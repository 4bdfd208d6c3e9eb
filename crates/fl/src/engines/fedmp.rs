//! FedMP (the paper's system): adaptive per-worker pruning ratios via
//! E-UCB, distributed structured pruning, and R2SP aggregation.

use crate::aggregate::{bsp_aggregate, r2sp_aggregate};
use crate::engine::worker_rng;
use crate::engine::{
    emit_aggregate, emit_codec_selected, emit_compression_applied, emit_kernel_dispatch,
    emit_local_train, emit_quorum_aggregate, emit_round_end, emit_round_start,
    emit_worker_excluded, kernel_baseline, model_round_cost, worker_batches, FlConfig, FlSetup,
    SyncScheme,
};
use crate::eval::evaluate_image;
use crate::exec;
use crate::history::{RoundRecord, RunHistory};
use crate::local::{local_train, LocalOutcome};
use crate::wire::{codec_delivered, wire_size_v2, Codec, CompressionPolicy, ErrorFeedback};
use fedmp_bandit::{eucb_reward, Bandit, EUcbAgent, EUcbConfig, RewardConfig};
use fedmp_edgesim::{deadline_for, FaultInjector};
use fedmp_nn::{state_sub, Sequential, StateEntry};
use fedmp_pruning::{
    dequantize_state, extract_sequential, plan_sequential_with, quantize_state, recover_state,
    sparse_state, Importance, PrunePlan,
};
use fedmp_tensor::parallel::{sum_f32, sum_f64};
use serde::{Deserialize, Serialize};

/// Fault-tolerance options implementing the paper's §V-A mechanism:
/// workers fail and recover, and the PS sets a per-round deadline of
/// `deadline_factor · d`, where `d` is the time at which
/// `deadline_frac` of the online workers' models have arrived. Arrivals
/// after the deadline are discarded for the round.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FaultOptions {
    /// Per-round worker failure probability.
    pub fail_prob: f64,
    /// Rounds a failed worker stays offline after its failure round.
    pub recover_rounds: u32,
    /// Fraction of arrivals defining `d` (the paper uses 0.85).
    pub deadline_frac: f64,
    /// Deadline multiplier (the paper uses 1.5).
    pub deadline_factor: f64,
    /// When set, downtime per failure is drawn from an exponential
    /// distribution with this mean (clamped to ≥ 1 round) instead of
    /// the fixed `recover_rounds`.
    #[serde(default)]
    pub mean_down_rounds: Option<f64>,
}

impl Default for FaultOptions {
    fn default() -> Self {
        FaultOptions {
            fail_prob: 0.05,
            recover_rounds: 2,
            deadline_frac: 0.85,
            deadline_factor: 1.5,
            mean_down_rounds: None,
        }
    }
}

impl FaultOptions {
    /// Builds the matching injector: fixed recovery delay, or the
    /// exponential mean-downtime draw when `mean_down_rounds` is set.
    pub(crate) fn injector(&self, workers: usize) -> FaultInjector {
        match self.mean_down_rounds {
            Some(m) => FaultInjector::with_mean_downtime(workers, self.fail_prob, m),
            None => FaultInjector::new(workers, self.fail_prob, self.recover_rounds),
        }
    }
}

/// FedMP-specific options.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FedMpOptions {
    /// E-UCB configuration (one agent per worker; seeds are offset by
    /// the worker index).
    pub eucb: EUcbConfig,
    /// Reward shaping (Eq. 8 guards).
    pub reward: RewardConfig,
    /// Synchronisation scheme (R2SP, or BSP for the Fig. 7 ablation).
    pub sync: SyncScheme,
    /// When set, every worker uses this fixed ratio every round instead
    /// of the bandit — the mode behind the Fig. 2 / Fig. 5 ratio sweeps.
    pub fixed_ratio: Option<f32>,
    /// Store PS-side residual models 8-bit quantized (§III-C memory
    /// optimisation). Adds ≤ scale/2 per-weight reconstruction error.
    pub quantize_residuals: bool,
    /// Fault injection + deadline handling (§V-A); `None` disables.
    pub faults: Option<FaultOptions>,
    /// Filter/neuron importance metric (§VI: the pruning strategy is
    /// pluggable; the paper's default is L1).
    pub importance: Importance,
    /// Wire-format-v2 codec selection per device link. The default
    /// ([`CompressionPolicy::dense`]) keeps the exact legacy dense-f32
    /// exchange, byte-for-byte; any other policy routes model exchange
    /// through the v2 codecs with per-worker error feedback.
    #[serde(default)]
    pub compression: CompressionPolicy,
}

impl Default for FedMpOptions {
    fn default() -> Self {
        FedMpOptions {
            eucb: EUcbConfig::default(),
            reward: RewardConfig::default(),
            sync: SyncScheme::R2SP,
            fixed_ratio: None,
            quantize_residuals: false,
            faults: None,
            importance: Importance::L1,
            compression: CompressionPolicy::dense(),
        }
    }
}

/// One direction of a compressed exchange, for cost accounting and the
/// `CompressionApplied` trace event.
struct LinkApplied {
    codec: Codec,
    wire_bytes: u64,
    dense_bytes: u64,
}

/// Everything one worker's fanned-out round work produces.
struct WorkerRound {
    sub: Sequential,
    outcome: LocalOutcome,
    plan: PrunePlan,
    residual: Vec<StateEntry>,
    feedback: ErrorFeedback,
    down: Option<LinkApplied>,
    up: Option<LinkApplied>,
}

/// Runs FedMP for `cfg.rounds` rounds starting from `global`.
pub fn run_fedmp(
    cfg: &FlConfig,
    setup: &FlSetup<'_>,
    global: Sequential,
    opts: &FedMpOptions,
) -> RunHistory {
    run_fedmp_with_model(cfg, setup, global, opts).0
}

/// [`run_fedmp`], also returning the final global model.
pub fn run_fedmp_with_model(
    cfg: &FlConfig,
    setup: &FlSetup<'_>,
    mut global: Sequential,
    opts: &FedMpOptions,
) -> (RunHistory, Sequential) {
    let workers = setup.workers();
    let mut history = RunHistory::new(match opts.sync {
        SyncScheme::R2SP => "FedMP",
        SyncScheme::BSP => "FedMP-BSP",
    });
    let mut sim_time = 0.0f64;

    // ① One E-UCB agent per worker (§IV-C).
    let mut agents: Vec<EUcbAgent> = (0..workers)
        .map(|w| {
            let mut c = opts.eucb;
            c.seed = c.seed.wrapping_add(w as u64).wrapping_add(cfg.seed);
            EUcbAgent::new(c)
        })
        .collect();

    let mut injector = opts.faults.map(|f| f.injector(workers));
    let mut fault_rng = fedmp_tensor::seeded_rng(cfg.seed ^ 0xFA17);
    let mut kstats = kernel_baseline();

    // Wire-format-v2 compression: per-worker codec pairs from the
    // bandwidth policy, plus per-worker error-feedback accumulators
    // that persist across rounds. With the default dense policy the
    // whole path below is byte-identical to the legacy engine.
    let compression = opts.compression;
    let compressed = !compression.is_dense();
    let mut feedbacks: Vec<ErrorFeedback> = vec![ErrorFeedback::new(); workers];

    for round in 0..cfg.rounds {
        // §V-A: failed workers sit the round out. (`step` emits the
        // FaultInjected/FaultRecovered trace events, so they precede
        // this round's RoundStart.)
        let online: Vec<usize> = match injector.as_mut() {
            Some(inj) => inj.step(&mut fault_rng),
            None => (0..workers).collect(),
        };
        emit_round_start(round, sim_time, &online);
        if online.is_empty() {
            let rec = RoundRecord { round, sim_time, ..Default::default() };
            emit_kernel_dispatch(round, &mut kstats);
            emit_round_end(&rec);
            history.rounds.push(rec);
            continue;
        }

        // ① Adaptive model pruning: choose ratios, build sub-models.
        let ratios: Vec<f32> = online
            .iter()
            .map(|&w| match opts.fixed_ratio {
                Some(r) => r,
                None => agents[w].select(),
            })
            .collect();
        // Per-worker codec pairs for the round (pure function of the
        // device profiles, resolved PS-side in worker order).
        let pairs: Vec<crate::wire::LinkCodecs> =
            online.iter().map(|&w| compression.select(&setup.devices[w])).collect();
        if compressed {
            for (i, &w) in online.iter().enumerate() {
                let slow = setup.devices[w].is_slow_link(compression.slow_link_bps);
                emit_codec_selected(round, w, &pairs[i], slow);
            }
        }
        // ② Per-worker round work, fanned across the round executor:
        // plan and extract the sub-model, form the PS-side residual
        // (kept until aggregation, §III-C, optionally 8-bit quantized
        // to cut PS memory 4×), and run local training. Every input is
        // read-only (`global`, task, config) plus the worker's own
        // ratio, so each result is a pure function of its slot;
        // order-sensitive steps — bandit selection above, timing,
        // aggregation and trace emission below — stay on this thread
        // in worker order.
        let work: Vec<(usize, f32, ErrorFeedback)> = online
            .iter()
            .copied()
            .zip(ratios.iter().copied())
            .map(|(w, r)| (w, r, std::mem::take(&mut feedbacks[w])))
            .collect();
        let mut results = exec::ordered_map(work, |i, (w, ratio, mut feedback)| {
            let plan = plan_sequential_with(&global, setup.task.input_chw, ratio, opts.importance);
            let mut sub: Sequential = extract_sequential(&global, &plan);
            let residual = state_sub(&global.state(), &sparse_state(&global, &plan));
            let residual = if opts.quantize_residuals {
                dequantize_state(&quantize_state(&residual))
            } else {
                residual
            };
            // Downlink: the worker trains on what it *decodes*, which
            // the PS predicts exactly via the codec oracle. No error
            // feedback on the downlink — the PS state is authoritative
            // and a fresh sub-model is extracted every round.
            let pair = pairs[i];
            let (received, down) = if compressed {
                let sub_state = sub.state();
                let delivered = codec_delivered(&sub_state, pair.downlink, None, None);
                sub.load_state(&delivered);
                let link = LinkApplied {
                    codec: pair.downlink,
                    wire_bytes: wire_size_v2(&sub_state, pair.downlink) as u64,
                    dense_bytes: wire_size_v2(&sub_state, Codec::DenseF32) as u64,
                };
                (Some(delivered), Some(link))
            } else {
                (None, None)
            };
            let mut batches = worker_batches(setup.task, w, cfg.local.batch, cfg.seed, round);
            let outcome = local_train(&mut sub, &mut batches, &cfg.local);
            // Uplink: a delta against the model the worker received,
            // folded through its persistent error-feedback state. The
            // engine continues with the *delivered* reconstruction —
            // exactly what the PS would decode off the wire.
            let up = if compressed {
                let trained = sub.state();
                let delivered = codec_delivered(
                    &trained,
                    pair.uplink,
                    received.as_deref(),
                    Some(&mut feedback),
                );
                sub.load_state(&delivered);
                Some(LinkApplied {
                    codec: pair.uplink,
                    wire_bytes: wire_size_v2(&trained, pair.uplink) as u64,
                    dense_bytes: wire_size_v2(&trained, Codec::DenseF32) as u64,
                })
            } else {
                None
            };
            WorkerRound { sub, outcome, plan, residual, feedback, down, up }
        });
        // Error-feedback state flows back to its worker slot (worker
        // order — pure data movement, no float arithmetic).
        for (i, &w) in online.iter().enumerate() {
            feedbacks[w] = std::mem::take(&mut results[i].feedback);
        }

        // Timing from each sub-model's actual cost (Eq. 5).
        let mut times = Vec::with_capacity(online.len());
        let mut mean_comp = 0.0;
        let mut mean_comm = 0.0;
        for (i, (r, &w)) in results.iter().zip(online.iter()).enumerate() {
            let mut cost = model_round_cost(&r.sub, setup.task.input_chw, &cfg.local);
            // Compressed links pay their actual encoded frame sizes in
            // Eq. 5, not the dense parameter bytes.
            if let (Some(down), Some(up)) = (&r.down, &r.up) {
                cost.download_bytes = down.wire_bytes as f64;
                cost.upload_bytes = up.wire_bytes as f64;
                emit_compression_applied(
                    round,
                    w,
                    "down",
                    down.codec,
                    down.dense_bytes,
                    down.wire_bytes,
                );
                emit_compression_applied(round, w, "up", up.codec, up.dense_bytes, up.wire_bytes);
            }
            let mut rng = worker_rng(cfg.seed ^ 0xA5A5, round, w);
            let t = setup.simulate_round(w, &cost, &mut rng);
            mean_comp += t.comp;
            mean_comm += t.comm;
            emit_local_train(
                round,
                w,
                ratios[i],
                r.outcome.mean_loss,
                r.outcome.delta_loss(),
                cfg.local.tau,
                r.outcome.samples,
                &t,
                &setup.scaled_cost(&cost),
            );
            times.push(t.total());
        }
        mean_comp /= online.len() as f64;
        mean_comm /= online.len() as f64;

        // §V-A deadline: arrivals after `factor · d` are discarded.
        let deadline =
            opts.faults.and_then(|f| deadline_for(&times, f.deadline_frac, f.deadline_factor));
        let kept: Vec<usize> = match deadline {
            Some(d) => (0..online.len()).filter(|&i| times[i] <= d).collect(),
            None => (0..online.len()).collect(),
        };
        let round_time = match deadline {
            Some(d) => times.iter().copied().fold(0.0, f64::max).min(d),
            None => times.iter().copied().fold(0.0, f64::max),
        };
        sim_time += round_time;
        // Deadline stragglers still trained (and get bandit feedback
        // below) but their models are discarded for the round.
        if kept.len() < online.len() {
            for (i, &w) in online.iter().enumerate() {
                if !kept.contains(&i) {
                    emit_worker_excluded(round, w, "deadline");
                }
            }
        }

        // Bandit feedback (Eq. 8) for every online worker.
        if opts.fixed_ratio.is_none() {
            let t_avg = sum_f64(times.iter().copied()) / online.len() as f64;
            for (i, &w) in online.iter().enumerate() {
                let delta = results[i].outcome.delta_loss();
                agents[w].observe(eucb_reward(delta, times[i], t_avg, &opts.reward));
            }
        }

        // ③ Model aggregation over the kept arrivals.
        let recovered: Vec<_> = kept
            .iter()
            .map(|&i| recover_state(&results[i].sub, &results[i].plan, &global))
            .collect();
        let kept_residuals: Vec<_> = kept.iter().map(|&i| results[i].residual.clone()).collect();
        let new_state = match opts.sync {
            SyncScheme::R2SP => r2sp_aggregate(&recovered, &kept_residuals),
            SyncScheme::BSP => bsp_aggregate(&recovered),
        };
        global.load_state(&new_state);
        if kept.len() < online.len() {
            emit_quorum_aggregate(round, 1, kept.len(), online.len() - kept.len());
        }
        emit_aggregate(
            round,
            match opts.sync {
                SyncScheme::R2SP => "R2SP",
                SyncScheme::BSP => "BSP",
            },
            kept.len(),
        );

        let train_loss =
            sum_f32(kept.iter().map(|&i| results[i].outcome.mean_loss)) / kept.len() as f32;
        let eval = if round % cfg.eval_every == 0 || round + 1 == cfg.rounds {
            let r =
                evaluate_image(&mut global, &setup.task.test, cfg.eval_batch, cfg.eval_max_samples);
            Some((r.loss, r.accuracy))
        } else {
            None
        };
        emit_kernel_dispatch(round, &mut kstats);
        let rec = RoundRecord {
            round,
            sim_time,
            round_time,
            mean_comp,
            mean_comm,
            train_loss,
            eval,
            ratios,
            participants: kept.len(),
            retries: 0,
            exclusions: online.len() - kept.len(),
        };
        emit_round_end(&rec);
        history.rounds.push(rec);
    }
    (history, global)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ImageTask;
    use fedmp_data::{iid_partition, mnist_like};
    use fedmp_edgesim::{tx2_profile, ComputeMode, LinkQuality, TimeModel};
    use fedmp_nn::zoo;
    use fedmp_tensor::seeded_rng;

    fn small_setup(seed: u64) -> (ImageTask, Vec<fedmp_edgesim::DeviceProfile>) {
        let (train, test) = mnist_like(0.1, seed).generate();
        let mut rng = seeded_rng(seed);
        let part = iid_partition(&train, 4, &mut rng);
        let task = ImageTask::new(train, test, part);
        let devices = vec![
            tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
            tx2_profile(ComputeMode::Mode1, LinkQuality::Mid),
            tx2_profile(ComputeMode::Mode2, LinkQuality::Mid),
            tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
        ];
        (task, devices)
    }

    #[test]
    fn fedmp_learns_and_records_ratios() {
        let (task, devices) = small_setup(80);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(81);
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 16, eval_every: 4, ..Default::default() };
        let h = run_fedmp(&cfg, &setup, global, &FedMpOptions::default());

        // Chance is 10%; the calibrated (harder) synthetic task converges
        // slower, so require clearly-above-chance learning.
        let acc = h.final_accuracy().expect("evaluated");
        assert!(acc > 0.25, "FedMP accuracy only {acc}");
        assert!(h.rounds.iter().all(|r| r.ratios.len() == 4));
        assert!(h.rounds.iter().flat_map(|r| r.ratios.iter()).all(|&a| (0.0..0.9).contains(&a)));
    }

    #[test]
    fn fixed_ratio_mode_prunes_uniformly() {
        let (task, devices) = small_setup(82);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(83);
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 3, ..Default::default() };
        let opts = FedMpOptions { fixed_ratio: Some(0.5), ..Default::default() };
        let h = run_fedmp(&cfg, &setup, global, &opts);
        assert!(h.rounds.iter().all(|r| r.ratios.iter().all(|&x| x == 0.5)));
    }

    #[test]
    fn pruning_makes_rounds_faster_than_synfl() {
        let (task, devices) = small_setup(84);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(85);
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 4, ..Default::default() };
        let opts = FedMpOptions { fixed_ratio: Some(0.6), ..Default::default() };
        let pruned = run_fedmp(&cfg, &setup, global.clone(), &opts);
        let full = crate::engines::synfl::run_synfl(&cfg, &setup, global);
        assert!(
            pruned.total_time() < 0.8 * full.total_time(),
            "pruning saved too little: {} vs {}",
            pruned.total_time(),
            full.total_time()
        );
    }

    #[test]
    fn r2sp_and_bsp_runs_both_complete() {
        let (task, devices) = small_setup(86);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(87);
        let global = zoo::cnn_mnist(0.1, &mut rng);
        let cfg = FlConfig { rounds: 4, ..Default::default() };
        for sync in [SyncScheme::R2SP, SyncScheme::BSP] {
            let opts = FedMpOptions { sync, ..Default::default() };
            let h = run_fedmp(&cfg, &setup, global.clone(), &opts);
            assert_eq!(h.rounds.len(), 4);
        }
    }

    #[test]
    fn quantized_residuals_still_learn() {
        let (task, devices) = small_setup(90);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(91);
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 10, eval_every: 5, ..Default::default() };
        let exact = run_fedmp(&cfg, &setup, global.clone(), &FedMpOptions::default());
        let quant = run_fedmp(
            &cfg,
            &setup,
            global,
            &FedMpOptions { quantize_residuals: true, ..Default::default() },
        );
        let a = exact.final_accuracy().unwrap();
        let b = quant.final_accuracy().unwrap();
        // 8-bit residual storage must not meaningfully hurt training.
        assert!(b > a - 0.15, "quantized residuals degraded accuracy: {a} vs {b}");
    }

    #[test]
    fn compressed_links_still_learn() {
        // Adaptive wire-v2 compression (f16 downlink + int8 top-k
        // uplink with error feedback on the slow link) must stay within
        // tolerance of the dense baseline at matched rounds.
        let (task, devices) = small_setup(96);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(97);
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 10, eval_every: 5, ..Default::default() };
        let dense = run_fedmp(&cfg, &setup, global.clone(), &FedMpOptions::default());
        let opts = FedMpOptions {
            compression: crate::wire::CompressionPolicy::adaptive(),
            ..Default::default()
        };
        let compressed = run_fedmp(&cfg, &setup, global, &opts);
        let a = dense.final_accuracy().unwrap();
        let b = compressed.final_accuracy().unwrap();
        assert!(b > a - 0.15, "compressed links degraded accuracy: {a} vs {b}");
        // The slow (Far) link's communication got cheaper, so the
        // Eq. 5 completion times shift downward on the whole.
        let dense_comm: f64 = dense.rounds.iter().map(|r| r.mean_comm).sum();
        let comp_comm: f64 = compressed.rounds.iter().map(|r| r.mean_comm).sum();
        assert!(
            comp_comm < dense_comm,
            "compression did not shift Eq. 5 comm time: {dense_comm} vs {comp_comm}"
        );
    }

    #[test]
    fn compressed_runs_are_seed_reproducible() {
        let (task, devices) = small_setup(98);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(99);
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 4, eval_every: 2, ..Default::default() };
        let opts = FedMpOptions {
            compression: crate::wire::CompressionPolicy::adaptive(),
            ..Default::default()
        };
        let a = run_fedmp(&cfg, &setup, global.clone(), &opts);
        let b = run_fedmp(&cfg, &setup, global, &opts);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "compressed runs must be bit-identical under the same seed"
        );
    }

    #[test]
    fn fault_injection_drops_and_recovers_workers() {
        let (task, devices) = small_setup(92);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(93);
        let global = zoo::cnn_mnist(0.1, &mut rng);
        let cfg = FlConfig { rounds: 20, eval_every: 10, ..Default::default() };
        let opts = FedMpOptions {
            faults: Some(FaultOptions { fail_prob: 0.3, recover_rounds: 1, ..Default::default() }),
            ..Default::default()
        };
        let h = run_fedmp(&cfg, &setup, global, &opts);
        assert_eq!(h.rounds.len(), 20);
        // With 30% failure probability some rounds must run short-handed.
        let short_rounds = h.rounds.iter().filter(|r| r.ratios.len() < 4).count();
        assert!(short_rounds > 0, "no failures materialised");
        // And training still progresses (model evaluated at the end).
        assert!(h.final_accuracy().is_some());
    }

    #[test]
    fn deadline_caps_round_time() {
        let (task, _) = small_setup(94);
        // One pathological straggler.
        let devices = vec![
            tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
            tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
            tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
            tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
        ];
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(95);
        let global = zoo::cnn_mnist(0.1, &mut rng);
        let cfg = FlConfig { rounds: 2, ..Default::default() };
        let no_deadline = run_fedmp(
            &cfg,
            &setup,
            global.clone(),
            &FedMpOptions { fixed_ratio: Some(0.0), ..Default::default() },
        );
        let with_deadline = run_fedmp(
            &cfg,
            &setup,
            global,
            &FedMpOptions {
                fixed_ratio: Some(0.0),
                faults: Some(FaultOptions {
                    fail_prob: 0.0,
                    deadline_frac: 0.75,
                    deadline_factor: 1.1,
                    ..Default::default()
                }),
                ..Default::default()
            },
        );
        assert!(
            with_deadline.rounds[0].round_time < no_deadline.rounds[0].round_time,
            "deadline should cut the straggler's tail: {} vs {}",
            with_deadline.rounds[0].round_time,
            no_deadline.rounds[0].round_time
        );
    }

    #[test]
    fn runs_are_seed_reproducible() {
        let (task, devices) = small_setup(88);
        let setup = FlSetup::new(&task, devices.clone(), TimeModel::default());
        let mut rng = seeded_rng(89);
        let global = zoo::cnn_mnist(0.1, &mut rng);
        let cfg = FlConfig { rounds: 3, ..Default::default() };
        let a = run_fedmp(&cfg, &setup, global.clone(), &FedMpOptions::default());
        let b = run_fedmp(&cfg, &setup, global, &FedMpOptions::default());
        for (x, y) in a.rounds.iter().zip(b.rounds.iter()) {
            assert_eq!(x.ratios, y.ratios);
            assert_eq!(x.train_loss, y.train_loss);
            assert_eq!(x.sim_time, y.sim_time);
        }
    }
}
