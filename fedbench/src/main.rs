//! FedMP round benchmark.
//!
//! One command runs a named workload on the real engines. With
//! `--trace 0` it prints the end-to-end metrics a user sees, measured
//! with tracing off; with `--trace 1` it prints per-layer metrics from a
//! span-instrumented replay of a captured run and writes the spans as
//! Chrome trace-event JSON. Every run checks its outputs: a failed check
//! makes the command exit non-zero. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path fedbench/Cargo.toml -- \
//!     --workload cnn-fedmp --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! stamps the host and the run.

mod e2e;
mod replay;
mod report;
mod spans;
mod workload;

use serde_json::json;

/// Executor and kernel threads for every workload.
const THREADS: usize = 2;

const USAGE: &str =
    "usage: fedbench --workload <cnn-fedmp|fleet-ps|sockets-2w> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name: String = name.ok_or("--workload is required")?;
    Ok(Args {
        workload: workload::workload(&name).ok_or(format!("unknown workload {name}"))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    fedmp_tensor::parallel::override_threads(Some(THREADS));
    let w = &args.workload;
    let out = if args.trace {
        replay::run(w, args.seed, args.seconds)
    } else {
        e2e::run(w, args.seed, args.seconds)
    };

    let stamp = report::stamp(w.name, args.seed, args.seconds, args.trace);
    for &(name, value, unit) in &out.metrics.0 {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    for failure in &out.failures {
        println!("FAILED: {failure}");
    }
    let correct = out.correct();
    let result = json!({
        "correct": correct,
        "attempted": out.attempted.max(1),
        "failed": out.failed,
        "metrics": out.metrics.to_json(),
    });
    let record = json!({ "stamp": stamp, "result": result, "failures": out.failures });
    let path = workload::out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, serde_json::to_string_pretty(&record).unwrap_or_default())
    {
        eprintln!("result file {} not written: {e}", path.display());
    }
    let line = |v: &serde_json::Value| serde_json::to_string(v).expect("JSON values serialise");
    println!("{}", line(&json!({ "stamp": stamp })));
    println!("{}", line(&result));
    if !correct {
        std::process::exit(1);
    }
}
