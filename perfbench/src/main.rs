//! The repository benchmark; see `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <landmark-broadcast|hop-sweep|query-replay> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a run stamp line, then one JSON result line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`
//! (whose spans also go to `perfbench/out/`). Exits non-zero when any
//! answer disagrees with the `graphkit` oracles.

mod batch;
mod calib;
mod layers;
mod oneshot;
mod procfs;
mod query_replay;
mod replay;
mod report;
mod stats;
mod trace;

use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &["landmark-broadcast", "hop-sweep", "query-replay"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Pin the engine width to the host's CPUs before any network exists;
    // every `Network::new` reads it.
    let width = procfs::host_cpus();
    std::env::set_var("CONGEST_THREADS", width.to_string());

    let mut tr = Tracer::new(args.trace);
    let run = match args.workload.as_str() {
        "landmark-broadcast" => oneshot::run(
            &oneshot::LANDMARK_BROADCAST,
            args.seed,
            args.seconds,
            &mut tr,
        ),
        "hop-sweep" => oneshot::run(&oneshot::HOP_SWEEP, args.seed, args.seconds, &mut tr),
        _ => query_replay::run(args.seed, args.seconds, &mut tr),
    };
    let mut report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let ok = report.attempted.saturating_sub(report.failed) as f64;
    report.set("correct_frac", ok / report.attempted.max(1) as f64);

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let line = match report.result_line(table) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        if let Err(e) = write_trace(&args, &tr) {
            eprintln!("perfbench: writing the trace: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", stamp(&args, width, &report));
    println!("{line}");
    if report.failed > 0 {
        eprintln!(
            "perfbench: {}: {} of {} answers disagree with the oracles",
            args.workload, report.failed, report.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The run stamp: where and how the numbers were taken.
fn stamp(args: &Args, width: usize, report: &Report) -> String {
    let context: Vec<String> = report
        .context
        .iter()
        .map(|(name, v)| format!("\"{name}\": {v}"))
        .collect();
    let overhead = report
        .get("trace.overhead_frac")
        .filter(|_| args.trace)
        .map_or("null".to_string(), |v| v.to_string());
    format!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cpus\": {}, \"engine_width\": {width}, \"git_commit\": \"{}\", \
         \"trace_overhead_frac\": {overhead}, \"context\": {{{}}}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        procfs::host_cpus(),
        procfs::git_commit(),
        context.join(", ")
    )
}

/// Writes the traced run's spans to `perfbench/out/`.
fn write_trace(args: &Args, tr: &Tracer) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(path, tr.to_json())
}
