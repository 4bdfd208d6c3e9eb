//! The traced run: per-layer metrics from a span-instrumented replay.
//!
//! 1. Run the loop engine untraced (the reference history and the wall
//!    clock the replay is compared with), then once under
//!    `TraceSession::capture`, which must give the same history.
//! 2. Read from the deterministic trace, per round, the online set, each
//!    worker's ratio, the codec pair and the exclusions.
//! 3. Replay that script through the layers' public functions under
//!    `exec::ordered_map`, with spans around every call. Local training
//!    is driven layer by layer (`LayerNode::forward`/`backward`,
//!    `cross_entropy_loss`, `clip_grad_norm`, `Sgd::step`) so forward and
//!    backward split per layer kind. The replay must reproduce the
//!    engine's training losses and evaluations bit for bit.
//! 4. Report self times per layer, and the share of span time no layer
//!    claims, so a missing layer shows instead of hiding.

use std::collections::BTreeMap;
use std::time::Instant;

use fedmp_data::BatchIter;
use fedmp_fl::{
    codec_delivered, decode_state, encode_state, evaluate_image, exec, local_train, r2sp_aggregate,
    wire_size_v2, Codec, ErrorFeedback, FlConfig, LinkCodecs, LocalOutcome, LocalTrainConfig,
    RunHistory, SyncScheme,
};
use fedmp_nn::{clip_grad_norm, model_cost, state_sub, LayerNode, Sequential, Sgd, StateEntry};
use fedmp_obs::{RunManifest, Trace, TraceEvent, TraceSession};
use fedmp_pruning::{
    dequantize_state, extract_sequential, plan_sequential_with, quantize_state, recover_state,
    sparse_state, PrunePlan,
};
use fedmp_tensor::parallel::{kernel_stats, sum_f32, KernelStats};
use fedmp_tensor::{cross_entropy_loss, seeded_rng};

use crate::report::{Metrics, Outcome};
use crate::spans::{self, Recorder, Span};
use crate::workload::{
    canonical, median, out_dir, percentile, run_engine, timed_setup, updates, Carrier, Deployment,
    Workload,
};

/// Every per-layer metric, in output order, with its unit. Counts and
/// bytes are per round; times are busy milliseconds per round summed
/// over workers, except the `wall` ones.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("core.build_ms", "ms"),
    ("local.train_ms", "ms"),
    ("local.share", "ratio"),
    ("nn.conv.fwd_ms", "ms"),
    ("nn.conv.bwd_ms", "ms"),
    ("nn.relu.fwd_ms", "ms"),
    ("nn.relu.bwd_ms", "ms"),
    ("nn.linear.fwd_ms", "ms"),
    ("nn.linear.bwd_ms", "ms"),
    ("nn.pool.fwd_ms", "ms"),
    ("nn.pool.bwd_ms", "ms"),
    ("nn.other_ms", "ms"),
    ("nn.loss_ms", "ms"),
    ("nn.optim_ms", "ms"),
    ("nn.conv.bwd_over_fwd", "ratio"),
    ("nn.relu.bwd_over_fwd", "ratio"),
    ("tensor.gemm_dense_calls", "count"),
    ("tensor.gemm_pruned_calls", "count"),
    ("tensor.pruned_gemm_share", "ratio"),
    ("tensor.train_gflops", "GFLOP/s"),
    ("data.batch_ms", "ms"),
    ("pruning.plan_extract_ms", "ms"),
    ("pruning.residual_ms", "ms"),
    ("pruning.recover_ms", "ms"),
    ("pruning.mean_ratio", "ratio"),
    ("pruning.kept_param_share", "ratio"),
    ("wire.codec_ms", "ms"),
    ("wire.down_bytes", "bytes"),
    ("wire.up_bytes", "bytes"),
    ("wire.compression_ratio", "ratio"),
    ("aggregate.r2sp_ms", "ms"),
    ("eval.ms_per_eval", "ms"),
    ("exec.wall_ms", "ms"),
    ("exec.busy_ms", "ms"),
    ("exec.idle_share", "ratio"),
    ("transport.tax_ms_per_round", "ms"),
    ("transport.tax_share", "ratio"),
    ("transport.codec_ms", "ms"),
    ("transport.frame_bytes", "bytes"),
    ("transport.retransmits", "count"),
    ("runtime.exclusion_share", "ratio"),
    ("obs.trace_overhead_share", "ratio"),
    ("round.wall_ms.p50", "ms"),
    ("round.wall_ms.p90", "ms"),
    ("round.samples", "count"),
    ("round.unattributed_share", "ratio"),
    ("replay.fidelity", "ratio"),
];

/// Set-ups timed for `core.build_ms`.
const SETUP_REPS: usize = 21;

/// Socket-carrier calls timed against as many loop-engine calls for
/// the transport tax.
const TAX_PAIRS: usize = 3;

pub fn run(w: &Workload, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut values = BTreeMap::new();
    let mut spans = Vec::new();
    if let Err(msg) = traced(w, seed, seconds, &mut out, &mut values, &mut spans) {
        out.failures.push(msg);
        out.failed = out.failed.max(1);
        out.attempted = out.attempted.max(1);
    }
    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        let v = values.get(name).copied().unwrap_or_else(|| {
            out.notes.push(format!("{name} was not measured"));
            0.0
        });
        m.push(name, v, unit);
    }
    out.metrics = m;
    if !spans.is_empty() {
        let path = out_dir().join(format!("trace-{}-seed{seed}.json", w.name));
        let meta = crate::report::stamp(w.name, seed, seconds, true);
        let doc = spans::chrome_trace(&spans, meta);
        match std::fs::write(&path, serde_json::to_string(&doc).expect("trace serialises")) {
            Ok(()) => out.notes.push(format!("chrome trace: {}", path.display())),
            Err(e) => out.notes.push(format!("chrome trace not written: {e}")),
        }
    }
    out
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

fn traced(
    w: &Workload,
    seed: u64,
    seconds: u64,
    out: &mut Outcome,
    values: &mut BTreeMap<&'static str, f64>,
    spans_out: &mut Vec<Span>,
) -> Result<(), String> {
    let start = Instant::now();
    let (first_setup, dep) = timed_setup(w);
    let mut setups: Vec<f64> = vec![first_setup];
    setups.extend((1..SETUP_REPS).map(|_| timed_setup(w).0));
    values.insert("core.build_ms", median(&mut setups) * 1e3);
    let cfg = w.config(seed, 0);
    if w.opts.sync != SyncScheme::R2SP || cfg.local.prox_mu != 0.0 {
        return Err("the replay covers R2SP without a proximal term".into());
    }

    // Untraced and traced engine runs; tracing must not change results.
    let (reference, wall) = timed(|| run_engine(w, &dep, &cfg, Carrier::Loop));
    let reference = reference?;
    out.attempted += updates(&reference);
    let text = canonical(&reference);
    let mut loop_walls = vec![wall];
    let threads = fedmp_tensor::parallel::configured_threads();
    let manifest = RunManifest::new("FedMP", cfg.seed, w.spec.workers, cfg.rounds, threads);
    let session = TraceSession::capture(&manifest);
    let (traced_run, traced_wall) = timed(|| run_engine(w, &dep, &cfg, Carrier::Loop));
    let trace = session.finish();
    check(out, &reference, canonical(&traced_run?) == text, "traced run differs")?;

    // The transport tax: socket calls interleaved with loop calls on
    // one spec. Elsewhere, more untraced samples while time allows.
    let mut runtime_history = reference.clone();
    let mut sock_walls = Vec::new();
    if w.carrier == Carrier::Sockets {
        for _ in 0..TAX_PAIRS {
            let (h, sw) = timed(|| run_engine(w, &dep, &cfg, Carrier::Sockets));
            let h = h?;
            let same = canonical(&h) == text;
            check(out, &reference, same, "socket run differs from the loop engine")?;
            sock_walls.push(sw);
            runtime_history = h;
            let (h, lw) = timed(|| run_engine(w, &dep, &cfg, Carrier::Loop));
            check(out, &reference, canonical(&h?) == text, "repeat loop run differs")?;
            loop_walls.push(lw);
        }
    } else {
        while start.elapsed().as_secs_f64() < seconds as f64 / 2.0 {
            let (h, lw) = timed(|| run_engine(w, &dep, &cfg, Carrier::Loop));
            check(out, &reference, canonical(&h?) == text, "repeat loop run differs")?;
            loop_walls.push(lw);
        }
    }
    let loop_wall = median(&mut loop_walls);
    let (tax_ms, tax_share) = if sock_walls.is_empty() {
        (0.0, 0.0)
    } else {
        let sock = median(&mut sock_walls);
        ((sock - loop_wall) * 1e3 / cfg.rounds as f64, (sock - loop_wall) / sock)
    };
    values.insert("transport.tax_ms_per_round", tax_ms);
    values.insert("transport.tax_share", tax_share);
    values.insert("obs.trace_overhead_share", traced_wall / loop_wall - 1.0);
    let rounds = &runtime_history.rounds;
    values.insert("transport.retransmits", rounds.iter().map(|r| r.retries as f64).sum());
    let excluded: f64 = rounds.iter().map(|r| r.exclusions as f64).sum();
    values.insert("runtime.exclusion_share", excluded / updates(&runtime_history).max(1) as f64);

    let script = script(&trace, cfg.rounds)?;
    let ctx = Ctx { w, dep: &dep, cfg: &cfg, transport: w.carrier == Carrier::Sockets };
    check_layer_loop(&ctx, &script[0])?;
    let rec = Recorder::new();
    let stats = replay(&ctx, &script, &reference, &rec)?;
    out.attempted += stats.updates;
    let spans = rec.into_spans();
    layer_metrics(&spans, &stats, loop_wall, values);
    *spans_out = spans;
    Ok(())
}

/// Counts a run compared against `reference`; a mismatch fails all of
/// its updates and ends the traced run.
fn check(out: &mut Outcome, reference: &RunHistory, same: bool, what: &str) -> Result<(), String> {
    let n = updates(reference);
    out.attempted += n;
    if same {
        Ok(())
    } else {
        out.failed += n;
        Err(what.to_string())
    }
}

/// One round of the captured run.
#[derive(Debug, Default, Clone)]
struct RoundScript {
    online: Vec<usize>,
    ratios: Vec<f32>,
    codecs: Vec<(String, String)>,
    excluded: Vec<usize>,
}

fn script(trace: &Trace, rounds: usize) -> Result<Vec<RoundScript>, String> {
    let mut out: Vec<RoundScript> = Vec::with_capacity(rounds);
    let at = |round: usize, out: &[RoundScript]| -> Result<usize, String> {
        if round + 1 == out.len() {
            Ok(round)
        } else {
            Err(format!("trace event for round {round} outside that round"))
        }
    };
    for ev in &trace.events {
        match ev {
            TraceEvent::RoundStart { round, online, .. } => {
                if *round != out.len() {
                    return Err(format!("trace skips to round {round}"));
                }
                out.push(RoundScript { online: online.clone(), ..Default::default() });
            }
            TraceEvent::LocalTrain { round, ratio, .. } => {
                let r = at(*round, &out)?;
                out[r].ratios.push(*ratio);
            }
            TraceEvent::CodecSelected { round, downlink, uplink, .. } => {
                let r = at(*round, &out)?;
                out[r].codecs.push((downlink.clone(), uplink.clone()));
            }
            TraceEvent::WorkerExcluded { round, worker, .. } => {
                let r = at(*round, &out)?;
                out[r].excluded.push(*worker);
            }
            _ => {}
        }
    }
    if out.len() != rounds || out.iter().any(|r| r.ratios.len() != r.online.len()) {
        return Err("trace does not script every round and worker".into());
    }
    Ok(out)
}

struct Ctx<'a> {
    w: &'a Workload,
    dep: &'a Deployment,
    cfg: &'a FlConfig,
    transport: bool,
}

/// The engine's per-`(seed, round, worker)` batch RNG.
fn worker_rng(seed: u64, round: usize, worker: usize) -> rand::rngs::StdRng {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(round as u64 + 1))
        .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(worker as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    seeded_rng(z ^ (z >> 31))
}

fn batches<'d>(ctx: &Ctx<'d>, round: usize, worker: usize) -> BatchIter<'d> {
    let task = &ctx.dep.task;
    BatchIter::new(
        &task.train,
        task.partition[worker].clone(),
        ctx.cfg.local.batch,
        worker_rng(ctx.cfg.seed, round, worker),
    )
}

/// Span names (forward, backward) for a layer kind.
fn layer_spans(layer: &LayerNode) -> (&'static str, &'static str) {
    match layer {
        LayerNode::Conv2d(_) => ("nn.conv.fwd", "nn.conv.bwd"),
        LayerNode::Linear(_) => ("nn.linear.fwd", "nn.linear.bwd"),
        LayerNode::ReLU(_) => ("nn.relu.fwd", "nn.relu.bwd"),
        LayerNode::MaxPool2d(_) | LayerNode::AvgPool2d(_) => ("nn.pool.fwd", "nn.pool.bwd"),
        _ => ("nn.other.fwd", "nn.other.bwd"),
    }
}

/// `local_train` without a proximal term, driven one layer at a time.
fn train_layers(
    model: &mut Sequential,
    batches: &mut BatchIter<'_>,
    cfg: &LocalTrainConfig,
    rec: &Recorder,
    round: usize,
    worker: usize,
) -> LocalOutcome {
    let id = Some(worker);
    let mut opt = Sgd::with_momentum(cfg.lr, cfg.momentum, 0.0);
    let (mut first_loss, mut last_loss, mut total_loss, mut samples) = (0.0f32, 0.0f32, 0.0f32, 0);
    for t in 0..cfg.tau {
        let (x, labels) = {
            let _s = rec.span("data.batch", round, id);
            batches.next_batch()
        };
        {
            let _s = rec.span("nn.optim", round, id);
            model.zero_grad();
        }
        let mut act = x;
        for layer in &mut model.layers {
            let _s = rec.span(layer_spans(layer).0, round, id);
            act = layer.forward(&act, true);
        }
        let out = {
            let _s = rec.span("nn.loss", round, id);
            cross_entropy_loss(&act, &labels)
        };
        let mut grad = out.grad_logits;
        for layer in model.layers.iter_mut().rev() {
            let _s = rec.span(layer_spans(layer).1, round, id);
            grad = layer.backward(&grad);
        }
        {
            let _s = rec.span("nn.optim", round, id);
            if cfg.clip > 0.0 {
                clip_grad_norm(model, cfg.clip);
            }
            opt.step(model);
        }
        if t == 0 {
            first_loss = out.loss;
        }
        last_loss = out.loss;
        total_loss += out.loss;
        samples += labels.len();
    }
    LocalOutcome { first_loss, last_loss, mean_loss: total_loss / cfg.tau as f32, samples }
}

fn same_bits(a: &[StateEntry], b: &[StateEntry]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.name == y.name
                && x.tensor.dims() == y.tensor.dims()
                && x.tensor
                    .data()
                    .iter()
                    .zip(y.tensor.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

fn same_outcome(a: &LocalOutcome, b: &LocalOutcome) -> bool {
    a.first_loss.to_bits() == b.first_loss.to_bits()
        && a.last_loss.to_bits() == b.last_loss.to_bits()
        && a.mean_loss.to_bits() == b.mean_loss.to_bits()
        && a.samples == b.samples
}

/// The layer-by-layer loop must equal `local_train` on the same batches:
/// checked for every worker of the first round.
fn check_layer_loop(ctx: &Ctx<'_>, first: &RoundScript) -> Result<(), String> {
    let discarded = Recorder::new();
    let global = &ctx.dep.model;
    let chw = ctx.dep.task.input_chw;
    for (&w, &ratio) in first.online.iter().zip(&first.ratios) {
        let plan = plan_sequential_with(global, chw, ratio, ctx.w.opts.importance);
        let mut a = extract_sequential(global, &plan);
        let mut b = a.clone();
        let oa = local_train(&mut a, &mut batches(ctx, 0, w), &ctx.cfg.local);
        let ob = train_layers(&mut b, &mut batches(ctx, 0, w), &ctx.cfg.local, &discarded, 0, w);
        if !same_outcome(&oa, &ob) || !same_bits(&a.state(), &b.state()) {
            return Err(format!("layer-by-layer training differs from local_train (worker {w})"));
        }
    }
    Ok(())
}

/// What one worker's replayed round produced.
struct WorkerOut {
    sub: Sequential,
    plan: PrunePlan,
    residual: Vec<StateEntry>,
    feedback: ErrorFeedback,
    outcome: LocalOutcome,
    /// Wire-v2 bytes (down, up, dense down, dense up) on compressed links.
    wire: Option<[u64; 4]>,
    frame_bytes: u64,
    transport_ok: bool,
}

#[derive(Debug, Default)]
struct ReplayStats {
    rounds: usize,
    updates: u64,
    evals: usize,
    ratio_sum: f64,
    kept_params: f64,
    global_params: f64,
    train_flops: f64,
    wire: [u64; 4],
    frame_bytes: u64,
    kernels: KernelStats,
}

fn worker_round(
    ctx: &Ctx<'_>,
    rec: &Recorder,
    global: &Sequential,
    fanout: u64,
    (round, worker, ratio, pair): (usize, usize, f32, LinkCodecs),
    mut feedback: ErrorFeedback,
) -> WorkerOut {
    let id = Some(worker);
    let opts = &ctx.w.opts;
    let _busy = rec.span_under("worker", fanout, round, id);
    let (plan, mut sub) = {
        let _s = rec.span("pruning.plan_extract", round, id);
        let plan = plan_sequential_with(global, ctx.dep.task.input_chw, ratio, opts.importance);
        let sub = extract_sequential(global, &plan);
        (plan, sub)
    };
    let residual = {
        let _s = rec.span("pruning.residual", round, id);
        let residual = state_sub(&global.state(), &sparse_state(global, &plan));
        if opts.quantize_residuals {
            dequantize_state(&quantize_state(&residual))
        } else {
            residual
        }
    };
    let compressed = !opts.compression.is_dense();
    let mut wire = None;
    let received = compressed.then(|| {
        let _s = rec.span("wire.codec", round, id);
        let state = sub.state();
        let delivered = codec_delivered(&state, pair.downlink, None, None);
        sub.load_state(&delivered);
        wire = Some([
            wire_size_v2(&state, pair.downlink) as u64,
            0,
            wire_size_v2(&state, Codec::DenseF32) as u64,
            0,
        ]);
        delivered
    });
    let (mut frame_bytes, mut transport_ok) = (0u64, true);
    let mut transport = |sub: &Sequential| {
        if ctx.transport {
            let _s = rec.span("transport.codec", round, id);
            let state = sub.state();
            let frame = encode_state(&state);
            frame_bytes += frame.len() as u64;
            transport_ok &= decode_state(&frame).is_ok_and(|d| same_bits(&d, &state));
        }
    };
    transport(&sub);
    let mut it = {
        let _s = rec.span("data.batch", round, id);
        batches(ctx, round, worker)
    };
    let outcome = {
        let _s = rec.span("local.train", round, id);
        train_layers(&mut sub, &mut it, &ctx.cfg.local, rec, round, worker)
    };
    if let (Some(received), Some(bytes)) = (received.as_deref(), wire.as_mut()) {
        let _s = rec.span("wire.codec", round, id);
        let trained = sub.state();
        let delivered = codec_delivered(&trained, pair.uplink, Some(received), Some(&mut feedback));
        sub.load_state(&delivered);
        bytes[1] = wire_size_v2(&trained, pair.uplink) as u64;
        bytes[3] = wire_size_v2(&trained, Codec::DenseF32) as u64;
    }
    transport(&sub);
    WorkerOut { sub, plan, residual, feedback, outcome, wire, frame_bytes, transport_ok }
}

fn replay(
    ctx: &Ctx<'_>,
    script: &[RoundScript],
    reference: &RunHistory,
    rec: &Recorder,
) -> Result<ReplayStats, String> {
    let (w, cfg, setup) = (ctx.w, ctx.cfg, ctx.dep.setup());
    let chw = ctx.dep.task.input_chw;
    let mut global = ctx.dep.model.clone();
    let global_params = model_cost(&global, chw).params as f64;
    let mut feedbacks = vec![ErrorFeedback::new(); setup.workers()];
    let mut stats = ReplayStats::default();
    let before = kernel_stats();
    for (r, rs) in script.iter().enumerate() {
        let record = reference.rounds.get(r).ok_or("trace has more rounds than the history")?;
        if rs.online.is_empty() {
            continue;
        }
        let round_span = rec.span("round", r, None);
        let pairs: Vec<LinkCodecs> =
            rs.online.iter().map(|&d| w.opts.compression.select(&setup.devices[d])).collect();
        let labels: Vec<(String, String)> =
            pairs.iter().map(|p| (p.downlink.label(), p.uplink.label())).collect();
        if !w.opts.compression.is_dense() && labels != rs.codecs {
            return Err(format!("round {r}: codec pairs differ from the trace"));
        }
        let work: Vec<_> = rs
            .online
            .iter()
            .zip(&rs.ratios)
            .zip(&pairs)
            .map(|((&d, &ratio), &pair)| ((r, d, ratio, pair), std::mem::take(&mut feedbacks[d])))
            .collect();
        let fan = rec.span("exec.fanout", r, None);
        let fan_id = fan.id();
        let mut results = exec::ordered_map(work, |_, (job, fb)| {
            worker_round(ctx, rec, &global, fan_id, job, fb)
        });
        drop(fan);
        for (res, &d) in results.iter_mut().zip(&rs.online) {
            feedbacks[d] = std::mem::take(&mut res.feedback);
        }
        let kept: Vec<usize> =
            (0..rs.online.len()).filter(|&i| !rs.excluded.contains(&rs.online[i])).collect();
        let recovered: Vec<_> = {
            let _s = rec.span("pruning.recover", r, None);
            kept.iter()
                .map(|&i| recover_state(&results[i].sub, &results[i].plan, &global))
                .collect()
        };
        {
            let _s = rec.span("aggregate.r2sp", r, None);
            let residuals: Vec<_> = kept.iter().map(|&i| results[i].residual.clone()).collect();
            global.load_state(&r2sp_aggregate(&recovered, &residuals));
        }
        let train_loss =
            sum_f32(kept.iter().map(|&i| results[i].outcome.mean_loss)) / kept.len() as f32;
        let eval = (r % cfg.eval_every == 0 || r + 1 == cfg.rounds).then(|| {
            let _s = rec.span("eval", r, None);
            let e = evaluate_image(
                &mut global,
                &ctx.dep.task.test,
                cfg.eval_batch,
                cfg.eval_max_samples,
            );
            (e.loss, e.accuracy)
        });
        drop(round_span);

        // Checks and accounting, outside the timed round.
        let bits = |e: Option<(f32, f32)>| e.map(|(l, a)| (l.to_bits(), a.to_bits()));
        if train_loss.to_bits() != record.train_loss.to_bits() || bits(eval) != bits(record.eval) {
            return Err(format!("round {r}: replay diverged from the engine"));
        }
        if results.iter().any(|res| !res.transport_ok) {
            return Err(format!("round {r}: a state did not survive encode_state/decode_state"));
        }
        stats.rounds += 1;
        stats.evals += eval.is_some() as usize;
        stats.updates += results.len() as u64;
        for (res, &ratio) in results.iter().zip(&rs.ratios) {
            let cost = model_cost(&res.sub, chw);
            stats.ratio_sum += ratio as f64;
            stats.kept_params += cost.params as f64;
            stats.global_params += global_params;
            stats.train_flops += cost.train_flops_per_sample() as f64 * res.outcome.samples as f64;
            let bytes = res.wire.unwrap_or_else(|| {
                let dense = wire_size_v2(&res.sub.state(), Codec::DenseF32) as u64;
                [dense; 4]
            });
            for (acc, b) in stats.wire.iter_mut().zip(bytes) {
                *acc += b;
            }
            stats.frame_bytes += res.frame_bytes;
        }
    }
    let after = kernel_stats();
    stats.kernels = KernelStats {
        gemm_simd_dense: after.gemm_simd_dense - before.gemm_simd_dense,
        gemm_scalar_dense: after.gemm_scalar_dense - before.gemm_scalar_dense,
        gemm_simd_pruned: after.gemm_simd_pruned - before.gemm_simd_pruned,
        gemm_scalar_pruned: after.gemm_scalar_pruned - before.gemm_scalar_pruned,
        ..Default::default()
    };
    Ok(stats)
}

fn layer_metrics(
    spans: &[Span],
    stats: &ReplayStats,
    loop_wall: f64,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let t = spans::totals(spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6;
    let rounds = stats.rounds.max(1) as f64;
    let per_round = |name: &str| ms(get(name).dur_ns) / rounds;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    // Main-thread time outside the fan-out plus busy worker time.
    let busy = ms(get("round").dur_ns) - ms(get("exec.fanout").dur_ns) + ms(get("worker").dur_ns);
    let unattributed =
        ms(get("round").self_ns) + ms(get("worker").self_ns) + ms(get("local.train").self_ns);

    values.insert("local.train_ms", per_round("local.train"));
    values.insert("local.share", ratio(ms(get("local.train").dur_ns), busy));
    for (metric, span) in [
        ("nn.conv.fwd_ms", "nn.conv.fwd"),
        ("nn.conv.bwd_ms", "nn.conv.bwd"),
        ("nn.relu.fwd_ms", "nn.relu.fwd"),
        ("nn.relu.bwd_ms", "nn.relu.bwd"),
        ("nn.linear.fwd_ms", "nn.linear.fwd"),
        ("nn.linear.bwd_ms", "nn.linear.bwd"),
        ("nn.pool.fwd_ms", "nn.pool.fwd"),
        ("nn.pool.bwd_ms", "nn.pool.bwd"),
        ("nn.loss_ms", "nn.loss"),
        ("nn.optim_ms", "nn.optim"),
        ("data.batch_ms", "data.batch"),
        ("pruning.plan_extract_ms", "pruning.plan_extract"),
        ("pruning.residual_ms", "pruning.residual"),
        ("pruning.recover_ms", "pruning.recover"),
        ("wire.codec_ms", "wire.codec"),
        ("aggregate.r2sp_ms", "aggregate.r2sp"),
        ("transport.codec_ms", "transport.codec"),
        ("exec.wall_ms", "exec.fanout"),
        ("exec.busy_ms", "worker"),
    ] {
        values.insert(metric, per_round(span));
    }
    values.insert("nn.other_ms", per_round("nn.other.fwd") + per_round("nn.other.bwd"));
    values
        .insert("nn.conv.bwd_over_fwd", ratio(per_round("nn.conv.bwd"), per_round("nn.conv.fwd")));
    values
        .insert("nn.relu.bwd_over_fwd", ratio(per_round("nn.relu.bwd"), per_round("nn.relu.fwd")));
    let k = &stats.kernels;
    let dense = (k.gemm_simd_dense + k.gemm_scalar_dense) as f64;
    let pruned = (k.gemm_simd_pruned + k.gemm_scalar_pruned) as f64;
    values.insert("tensor.gemm_dense_calls", dense / rounds);
    values.insert("tensor.gemm_pruned_calls", pruned / rounds);
    values.insert("tensor.pruned_gemm_share", ratio(pruned, dense + pruned));
    values.insert(
        "tensor.train_gflops",
        ratio(stats.train_flops / 1e9, ms(get("local.train").dur_ns) / 1e3),
    );
    let updates = stats.updates.max(1) as f64;
    values.insert("pruning.mean_ratio", stats.ratio_sum / updates);
    values.insert("pruning.kept_param_share", ratio(stats.kept_params, stats.global_params));
    let [down, up, dense_down, dense_up] = stats.wire.map(|b| b as f64);
    values.insert("wire.down_bytes", down / rounds);
    values.insert("wire.up_bytes", up / rounds);
    values.insert("wire.compression_ratio", ratio(dense_down + dense_up, down + up));
    values.insert("eval.ms_per_eval", ratio(ms(get("eval").dur_ns), stats.evals as f64));
    let threads = fedmp_tensor::parallel::configured_threads() as f64;
    let (wall, worker_busy) = (ms(get("exec.fanout").dur_ns), ms(get("worker").dur_ns));
    values.insert("exec.idle_share", 1.0 - ratio(worker_busy, threads * wall));
    values.insert("transport.frame_bytes", stats.frame_bytes as f64 / rounds);
    let mut round_ms: Vec<f64> =
        spans.iter().filter(|s| s.name == "round").map(|s| ms(s.dur_ns())).collect();
    if !round_ms.is_empty() {
        values.insert("round.wall_ms.p50", percentile(&mut round_ms, 50.0));
        values.insert("round.wall_ms.p90", percentile(&mut round_ms, 90.0));
    }
    values.insert("round.samples", round_ms.len() as f64);
    values.insert("round.unattributed_share", ratio(unattributed, busy));
    values.insert("replay.fidelity", ratio(ms(get("round").dur_ns) / 1e3, loop_wall));
}
