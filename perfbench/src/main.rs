//! End-to-end benchmark of the DCO-3D reproduction.
//!
//! ```text
//! dco-perfbench --workload <dco224|pin3d|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop driven through the public library API.
//! The workload seed fixes every input. With `--trace 0` the last stdout
//! line is a JSON object carrying the end-to-end metrics; with `--trace 1`
//! it carries the per-layer metrics of a separate traced run. The process
//! exits non-zero when any output fails its correctness check. See
//! `README.md` beside this crate for the workloads and how to read the
//! output.

mod flows;
mod serve_mixed;
mod stats;
mod trace;

use std::process::ExitCode;

use serde_json::Value;

use stats::HostProbe;
use trace::Layers;

/// Seed of every generated design. The designs are the benchmark's fixed
/// test cases; the workload seed varies the flow seeds and the requests.
pub const DESIGN_SEED: u64 = 1;

/// Every end-to-end metric, with its unit. Every workload reports all of
/// them from an untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_norm_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "fraction"),
    ("overflow", "tracks"),
    ("wirelength_um", "um"),
    ("tns_ps", "ps"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: fixes every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that errored, were shed, or failed a correctness check.
    pub failed: u64,
    /// End-to-end metrics by name (see [`END_TO_END`]).
    pub metrics: Vec<(&'static str, f64)>,
    /// Further named figures printed beside the metrics.
    pub extra: Vec<(String, f64, &'static str)>,
    /// Per-layer samples (traced runs only).
    pub layers: Layers,
    /// Host-speed probe samples.
    pub probe: HostProbe,
}

impl Outcome {
    /// Record a failed check with its reason on stderr.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("CHECK FAILED: {why}");
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dco-perfbench: {e}");
            eprintln!(
                "usage: dco-perfbench --workload <dco224|pin3d|serve_mixed> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Single-thread claims: the program's pool runs one worker.
    dco_parallel::set_threads(1);
    let outcome = match args.workload.as_str() {
        "dco224" => flows::run(flows::Workload::Dco224, &args),
        "pin3d" => flows::run(flows::Workload::Pin3d, &args),
        "serve_mixed" => serve_mixed::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dco-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    report(&args, &outcome)
}

/// Print the human-readable table, the probe line and the final JSON line.
fn report(args: &Args, o: &Outcome) -> ExitCode {
    let w = &args.workload;
    println!(
        "workload={w} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut metrics: Vec<(String, Value)> = Vec::new();
    let mut push = |name: &str, value: f64, unit: &str| {
        metrics.push((
            name.to_string(),
            serde_json::json!({ "value": value, "unit": unit }),
        ));
    };
    if args.trace {
        for (name, value, unit, n) in o.layers.table() {
            println!("  {w}/{name:<32} {value:>14.4} {unit:<8} (n={n})");
            push(name, value, unit);
        }
    } else {
        for &(name, unit) in END_TO_END {
            let value = o
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            println!("  {w}/{name:<32} {value:>14.4} {unit}");
            push(name, value, unit);
        }
    }
    let fail_frac = o.failed as f64 / o.attempted.max(1) as f64;
    println!("  {w}/{:<32} {fail_frac:>14.4} fraction", "fail_frac");
    for (name, value, unit) in &o.extra {
        println!("  {w}/{name:<32} {value:>14.4} {unit}");
    }
    println!("{}", o.probe.summary());
    let correct = o.failed == 0;
    let line = serde_json::json!({
        "correct": correct,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{}", serde_json::to_string(&line).unwrap_or_default());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
