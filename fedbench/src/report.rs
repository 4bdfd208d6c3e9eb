//! Result plumbing: named metrics, the failure ledger, the host stamp
//! and the final JSON line.

use serde_json::{json, Value};

/// Metrics in the order they were pushed.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Adds a metric. JSON has no NaN or infinity; a ratio over an empty
    /// base reads 0.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name, value, unit));
    }

    pub fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|&(name, value, unit)| {
                    (name.to_string(), json!({ "value": value, "unit": unit }))
                })
                .collect(),
        )
    }
}

/// What one benchmark run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Worker-round updates attempted.
    pub attempted: u64,
    /// Updates lost to an error or a failed correctness check.
    pub failed: u64,
    /// One line per failed check; the run is correct iff this is empty.
    pub failures: Vec<String>,
    /// Informational lines for the human-readable output.
    pub notes: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a call that produced nothing: all of its updates fail.
    pub fn fail(&mut self, updates: u64, msg: String) {
        self.attempted += updates;
        self.fail_attempted(updates, msg);
    }

    /// Records a failed check on updates already counted as attempted.
    pub fn fail_attempted(&mut self, updates: u64, msg: String) {
        self.failed += updates;
        self.failures.push(msg);
    }

    pub fn success_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

/// Peak resident set of this process, from `VmHWM` in
/// `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` in the working
/// directory; `"unknown"` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host and run identity stamped on every result.
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> Value {
    json!({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit(),
        "host_cpus": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "fedmp_threads": fedmp_tensor::parallel::configured_threads(),
        "simd_path": fedmp_tensor::simd::active_path().name(),
        "simd_features": fedmp_tensor::simd::detected_features(),
    })
}
