//! The untraced run: end-to-end metrics a user of the system sees.

use std::time::{Duration, Instant};

use fedmp_fl::{FlConfig, RunHistory};

use crate::report::{Metrics, Outcome};
use crate::workload::{
    canonical, median, run_engine, timed_setup, updates, Carrier, Deployment, Workload,
};

/// Set-ups timed before each call of the fixed pass; `setup_s` is the
/// median of all of them. Spreading them over the run keeps one slow
/// stretch of the host from deciding the figure.
const SETUPS_PER_CALL: usize = 3;

/// Plays every ensemble member once, then repeats members in order until
/// `seconds` have passed (at least one repeat). Each repeat must
/// reproduce its member's history bit for bit; a socket member must
/// also match its paired loop-engine run.
pub fn run(w: &Workload, seed: u64, seconds: u64) -> Outcome {
    let (first_setup, dep) = timed_setup(w);
    let mut setups = vec![first_setup];
    let mut out = Outcome::default();
    // Wall seconds of each member's verified calls.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); w.subruns];
    let mut refs: Vec<Option<(String, RunHistory)>> = vec![None; w.subruns];
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut call = 0usize;
    // Read after the fixed ensemble pass, before the time-filling
    // repeats whose number depends on machine speed: each socket run
    // spawns fresh threads, and each new thread may claim another
    // allocator arena.
    let mut peak_rss_mb = 0.0;
    while call < w.subruns + 1 || start.elapsed() < budget {
        if call == w.subruns + 1 {
            peak_rss_mb = crate::report::peak_rss_mb();
        }
        if call <= w.subruns {
            setups.extend((0..SETUPS_PER_CALL).map(|_| timed_setup(w).0));
        }
        let k = call % w.subruns;
        let cfg = w.config(seed, k);
        let t = Instant::now();
        let result = run_engine(w, &dep, &cfg, w.carrier);
        let wall = t.elapsed().as_secs_f64();
        call += 1;
        let history = match result {
            Ok(h) => h,
            Err(e) => {
                out.fail(w.updates_per_run(), format!("member {k}: {e}"));
                continue;
            }
        };
        let attempted = updates(&history);
        out.attempted += attempted;
        let text = canonical(&history);
        let verdict = match &refs[k] {
            Some((reference, _)) if *reference != text => {
                Err(format!("member {k}: repeat run is not bit-identical"))
            }
            Some(_) => Ok(()),
            None => first_run_checks(w, &dep, &cfg, &history, &text),
        };
        match verdict {
            Ok(()) => {
                // Without seeded §V-A faults an exclusion is an update
                // lost in transit.
                if w.opts.faults.is_none() {
                    let lost: u64 = history.rounds.iter().map(|r| r.exclusions as u64).sum();
                    out.failed += lost;
                }
                walls[k].push(wall);
            }
            Err(msg) => out.fail_attempted(attempted, msg),
        }
        if refs[k].is_none() {
            refs[k] = Some((text, history));
        }
    }

    if peak_rss_mb == 0.0 {
        peak_rss_mb = crate::report::peak_rss_mb();
    }
    let histories: Vec<&RunHistory> = refs.iter().flatten().map(|(_, h)| h).collect();
    let members = histories.len().max(1) as f64;
    let rounds: usize = histories.iter().map(|h| h.rounds.len()).sum();
    let sim_total: f64 = histories.iter().map(|h| h.total_time()).sum();
    let final_acc: f64 = histories.iter().map(|h| late_accuracy(h)).sum::<f64>() / members;
    let mut missed = 0usize;
    let to_target: f64 = histories
        .iter()
        .map(|h| {
            h.time_to_accuracy(w.target).unwrap_or_else(|| {
                // Censored at the run's end: a lower bound on the time.
                missed += 1;
                h.total_time()
            })
        })
        .sum::<f64>()
        / members;

    // Rounds over the sum of each member's median wall time, so which
    // members the time-filling calls happen to repeat cannot move it.
    let member_walls: Vec<f64> =
        walls.iter_mut().filter(|ws| !ws.is_empty()).map(|ws| median(ws)).collect();
    let timed_wall: f64 = member_walls.iter().sum();
    let rounds_per_s = if timed_wall > 0.0 {
        (member_walls.len() * w.spec.fl.rounds) as f64 / timed_wall
    } else {
        0.0
    };
    out.notes.push(format!(
        "member median walls (s): {}",
        member_walls.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(" ")
    ));
    let mut m = Metrics::default();
    m.push("setup_s", median(&mut setups), "s");
    m.push("rounds_per_s", rounds_per_s, "1/s");
    m.push("peak_rss_mb", peak_rss_mb, "MB");
    m.push("success_share", out.success_share(), "ratio");
    m.push("final_accuracy", final_acc, "ratio");
    m.push("sim_s_per_round", sim_total / rounds.max(1) as f64, "virtual_s");
    m.push("sim_time_to_target_s", to_target, "virtual_s");
    out.metrics = m;
    out.notes.push(format!(
        "{call} engine calls over {} run seeds; target {} missed by {missed}",
        w.subruns, w.target
    ));
    out
}

/// Evaluations averaged into `final_accuracy`.
const LATE_EVALS: usize = 3;

/// Mean test accuracy of the last [`LATE_EVALS`] evaluations. With lossy
/// codecs, accuracy swings between neighbouring late evaluations, so a
/// single one is a poor summary of where training ended.
fn late_accuracy(h: &RunHistory) -> f64 {
    let accs: Vec<f64> = h.rounds.iter().filter_map(|r| r.eval.map(|(_, a)| a as f64)).collect();
    let late = &accs[accs.len().saturating_sub(LATE_EVALS)..];
    late.iter().sum::<f64>() / late.len().max(1) as f64
}

/// Checks on the first run of an ensemble member: the history is
/// complete, and a socket run equals the loop engine on the same spec.
fn first_run_checks(
    w: &Workload,
    dep: &Deployment,
    cfg: &FlConfig,
    history: &RunHistory,
    text: &str,
) -> Result<(), String> {
    if history.rounds.len() != cfg.rounds {
        return Err(format!("{} of {} rounds recorded", history.rounds.len(), cfg.rounds));
    }
    if history.final_accuracy().is_none() {
        return Err("no evaluation recorded".into());
    }
    if w.carrier == Carrier::Sockets {
        let paired = run_engine(w, dep, cfg, Carrier::Loop)?;
        if canonical(&paired) != text {
            return Err("socket history differs from the paired loop-engine run".into());
        }
    }
    Ok(())
}
