//! End-to-end golden for the training kernels: a short FedMP run on the
//! small CNN/MNIST spec must reproduce, bit for bit, the `RunHistory`
//! JSON and a fixed sample of final global-state entries recorded
//! before the backward-pass optimisations (stride-1 col2im fold,
//! params-only backward, branchless ReLU select) landed.
//!
//! Each SIMD path is pinned separately: the scalar and AVX2 GEMMs
//! differ in the last ulps, but each is exactly reproducible on its own.
//! One test function only — the SIMD override is process-global.

use fedmp::prelude::*;
use fedmp_fl::{run_fedmp_with_model, FedMpOptions};
use fedmp_tensor::simd::{self, SimdPath};

// Recorded on the scalar and AVX2 paths before the backward-pass
// changes; the history is the same on both paths, the final weights
// differ in the last ulps. Never re-pin these: a mismatch means a
// kernel change moved a bit.
const HISTORY_JSON: &str = concat!(
    "{\"method\":\"FedMP\",\"rounds\":[{\"round\":0,\"sim_time\":2.56592541161578,\"round_time\":2.56592541161578,\"mean_comp\":0.5670654987501409,\"mean_comm\":0.6653282119761694,\"train_loss\":3.2896804809570313,\"eval\":[2.433366060256958,0.0949999988079071],\"ratios\":[0.2596602141857147,0.6492897272109985,0.6121882200241089,0.04116110876202583],\"participants\":4,\"retries\":0,\"exclusions\":0},{",
    "\"round\":1,\"sim_time\":3.961576614220306,\"round_time\":1.395651202604526,\"mean_comp\":0.46999874436381944,\"mean_comm\":0.46339940743015684,\"train_loss\":2.377244234085083,\"eval\":null,\"ratios\":[0.305791437625885,0.5976837873458862,0.4297301471233368,0.5183340311050415],\"participants\":4,\"retries\":0,\"exclusions\":0},{",
    "\"round\":2,\"sim_time\":6.127741925434686,\"round_time\":2.166165311214379,\"mean_comp\":0.5404593878226155,\"mean_comm\":0.609591243887354,\"train_loss\":2.314859628677368,\"eval\":[2.2979443073272705,0.1550000011920929],\"ratios\":[0.28769373893737793,0.08012070506811142,0.5210332274436951,0.6936112642288208],\"participants\":4,\"retries\":0,\"exclusions\":0}]}",
);
const SCALAR_BITS: [(&str, usize, u32); 32] = [
    ("0.weight", 0, 0x3f08a13e),
    ("0.weight", 66, 0x3e8fe923),
    ("0.weight", 133, 0x3cff9c64),
    ("0.weight", 199, 0x3e617a78),
    ("0.bias", 0, 0xbb6d4cf3),
    ("0.bias", 2, 0xbc308da4),
    ("0.bias", 5, 0xbb613190),
    ("0.bias", 7, 0xbca802b6),
    ("3.weight", 0, 0xbe0bba24),
    ("3.weight", 1066, 0x3d08df44),
    ("3.weight", 2133, 0xbd0ef68e),
    ("3.weight", 3199, 0x3dd8d18a),
    ("3.bias", 0, 0xbc42aa9a),
    ("3.bias", 5, 0xbb96c624),
    ("3.bias", 10, 0xbb1a1e24),
    ("3.bias", 15, 0xbb8b37c0),
    ("7.weight", 0, 0x3d74b51d),
    ("7.weight", 16725, 0xbd239fc6),
    ("7.weight", 33450, 0x3c97cf29),
    ("7.weight", 50175, 0xbd965ae4),
    ("7.bias", 0, 0xbb270284),
    ("7.bias", 21, 0xbb1da3a7),
    ("7.bias", 42, 0xbbfe4e26),
    ("7.bias", 63, 0xbb9578ad),
    ("9.weight", 0, 0xbda31ad3),
    ("9.weight", 213, 0x3d783bbc),
    ("9.weight", 426, 0x3eb4afa0),
    ("9.weight", 639, 0x3e27fc53),
    ("9.bias", 0, 0xbc24575c),
    ("9.bias", 3, 0xbb06673e),
    ("9.bias", 6, 0xba865356),
    ("9.bias", 9, 0xbc2a3272),
];
const AVX2_BITS: [(&str, usize, u32); 32] = [
    ("0.weight", 0, 0x3f08a13f),
    ("0.weight", 66, 0x3e8fe923),
    ("0.weight", 133, 0x3cff9c65),
    ("0.weight", 199, 0x3e617a77),
    ("0.bias", 0, 0xbb6d4cf9),
    ("0.bias", 2, 0xbc308da8),
    ("0.bias", 5, 0xbb613195),
    ("0.bias", 7, 0xbca802b6),
    ("3.weight", 0, 0xbe0bba24),
    ("3.weight", 1066, 0x3d08df44),
    ("3.weight", 2133, 0xbd0ef68e),
    ("3.weight", 3199, 0x3dd8d189),
    ("3.bias", 0, 0xbc42aa9c),
    ("3.bias", 5, 0xbb96c625),
    ("3.bias", 10, 0xbb1a1e24),
    ("3.bias", 15, 0xbb8b37c2),
    ("7.weight", 0, 0x3d74b51d),
    ("7.weight", 16725, 0xbd239fc6),
    ("7.weight", 33450, 0x3c97cf29),
    ("7.weight", 50175, 0xbd965ae4),
    ("7.bias", 0, 0xbb270284),
    ("7.bias", 21, 0xbb1da3a6),
    ("7.bias", 42, 0xbbfe4e26),
    ("7.bias", 63, 0xbb9578af),
    ("9.weight", 0, 0xbda31ad3),
    ("9.weight", 213, 0x3d783bbb),
    ("9.weight", 426, 0x3eb4afa0),
    ("9.weight", 639, 0x3e27fc53),
    ("9.bias", 0, 0xbc24575d),
    ("9.bias", 3, 0xbb066734),
    ("9.bias", 6, 0xba865354),
    ("9.bias", 9, 0xbc2a3272),
];

fn spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::small(TaskKind::CnnMnist);
    spec.fl.rounds = 3;
    spec
}

/// `(entry name, element index, f32 bits)` at four fixed positions of
/// every final global-state entry.
fn sample_bits(model: &Sequential) -> Vec<(String, usize, u32)> {
    let mut out = Vec::new();
    for e in model.state() {
        let d = e.tensor.data();
        let n = d.len();
        for idx in [0, n / 3, 2 * n / 3, n - 1] {
            out.push((e.name.clone(), idx, d[idx].to_bits()));
        }
    }
    out
}

fn run_on(path: SimdPath) -> (String, Vec<(String, usize, u32)>) {
    simd::override_path(Some(path));
    let spec = spec();
    let built = spec.build();
    let setup =
        FlSetup::with_cost_scale(&built.task, built.devices.clone(), built.time, built.cost_scale);
    let (history, model) =
        run_fedmp_with_model(&spec.fl, &setup, built.model, &FedMpOptions::default());
    simd::override_path(None);
    (serde_json::to_string(&history).expect("history serialises"), sample_bits(&model))
}

#[test]
fn fedmp_run_matches_pre_optimisation_golden() {
    for (path, golden) in [(SimdPath::Scalar, &SCALAR_BITS), (SimdPath::Avx2, &AVX2_BITS)] {
        if path == SimdPath::Avx2 && !simd::avx2_supported() {
            continue;
        }
        let (json, bits) = run_on(path);
        assert_eq!(json, HISTORY_JSON, "{path:?}: RunHistory JSON moved");
        assert_eq!(bits.len(), golden.len(), "{path:?}: state layout moved");
        for ((name, idx, got), &(want_name, want_idx, want)) in bits.iter().zip(golden.iter()) {
            assert_eq!((name.as_str(), *idx), (want_name, want_idx), "{path:?}: sample layout");
            assert_eq!(*got, want, "{path:?}: {name}[{idx}] is {got:#010x}, golden {want:#010x}");
        }
    }
}
