//! Socket ≡ loop on a model whose sub-models change shape every round
//! and carry batch-norm and residual state: `zoo::resnet_tiny` under
//! per-worker E-UCB ratios. Every socket dispatch rebuilds its
//! sub-model from the binary frame on the architecture sent at setup,
//! so this is the case where a shape or layer-kind slip would show.
//!
//! A binary of its own: trace sessions and the kernel-dispatch
//! counters are process-global.

use core::time::Duration;
use fedmp_data::{iid_partition, tiny_imagenet_like};
use fedmp_edgesim::{tx2_profile, ComputeMode, LinkQuality, TimeModel};
use fedmp_fl::{
    live_worker_threads, run_fedmp, run_fedmp_sockets, unique_socket_path, ChaosOptions,
    FedMpOptions, FlConfig, FlSetup, ImageTask, LocalTrainConfig, RunHistory, SocketRunOptions,
    ThreadNodes,
};
use fedmp_nn::{zoo, LayerNode};
use fedmp_obs::{diff, RunManifest, TraceSession};
use fedmp_tensor::seeded_rng;
use std::sync::Arc;

const WORKERS: usize = 3;

fn canonical(h: &RunHistory) -> String {
    serde_json::to_string(h).expect("serialise history")
}

#[test]
fn resnet_socket_runtime_matches_loop_engine() {
    let (train, test) = tiny_imagenet_like(0.1, 290).generate();
    let part = iid_partition(&train, WORKERS, &mut seeded_rng(290));
    let task = Arc::new(ImageTask::new(train, test, part));
    let devices = vec![
        tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
        tx2_profile(ComputeMode::Mode1, LinkQuality::Mid),
        tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
    ];
    let setup = FlSetup::new(task.as_ref(), devices, TimeModel::default());
    let global = zoo::resnet_tiny(0.125, &mut seeded_rng(291));
    let has = |kind: fn(&LayerNode) -> bool| global.layers.iter().any(kind);
    assert!(has(|l| matches!(l, LayerNode::BatchNorm2d(_))));
    assert!(has(|l| matches!(l, LayerNode::Residual(_))));
    let cfg = FlConfig {
        rounds: 4,
        eval_every: 2,
        eval_max_samples: 64,
        local: LocalTrainConfig { tau: 2, batch: 4, ..Default::default() },
        ..Default::default()
    };
    // Default options: per-worker E-UCB ratios, R2SP, dense links.
    let opts = FedMpOptions::default();

    let manifest = RunManifest::new("FedMP", cfg.seed, WORKERS, cfg.rounds, 1);
    let session = TraceSession::capture(&manifest);
    let h_loop = run_fedmp(&cfg, &setup, global.clone(), &opts);
    let t_loop = session.finish();

    let sock = SocketRunOptions::new(unique_socket_path("resnet"), Vec::new());
    let mut spawner = ThreadNodes {
        task: Arc::clone(&task),
        socket: sock.socket.clone(),
        connect_attempts: 12,
        connect_backoff: Duration::from_millis(2),
    };
    let manifest = RunManifest::new("FedMP-sockets", cfg.seed, WORKERS, cfg.rounds, 1);
    let session = TraceSession::capture(&manifest);
    let h_sock =
        run_fedmp_sockets(&cfg, &setup, global, &opts, &ChaosOptions::none(), &sock, &mut spawner)
            .expect("socket run");
    let t_sock = session.finish();
    assert_eq!(live_worker_threads(), 0, "socket run leaked runtime threads");
    assert!(!sock.socket.exists(), "socket run left its socket file behind");

    // The bandit really did move the sub-model shapes between rounds.
    let ratios: Vec<&Vec<f32>> = h_loop.rounds.iter().map(|r| &r.ratios).collect();
    assert!(ratios.windows(2).any(|w| w[0] != w[1]), "ratios never changed: {ratios:?}");

    assert_eq!(canonical(&h_loop), canonical(&h_sock), "socket history diverged");
    let d = diff(&t_loop, &t_sock);
    assert!(!d.is_divergent(), "socket trace diverged from the loop engine: {:?}", d.divergence);
    assert_eq!(d.len_a, d.len_b);
}
