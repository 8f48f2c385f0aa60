//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_sakoe|serve_sdtw|knn_sdtw|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One run generates the workload's inputs
//! from the seed, times cold starts, checks a seeded subset of requests
//! against the brute-force oracles, computes a reference answer for every
//! pattern, warms up, then drives closed-loop callers for `--seconds` and
//! checks every answer. `--trace 0` reports the end-to-end metrics, their
//! timings scaled to a reference host speed by a calibration loop (see
//! [`calib`]); `--trace 1` runs an untraced and a traced phase of half
//! the time each and reports the per-layer split. The last line of
//! standard output is the result as JSON; `--workload all` runs each
//! workload in a process of its own.

mod calib;
mod check;
mod drive;
mod layers;
mod metrics;
mod probes;
mod run;
mod setup;
mod spans;
mod stats;
mod workload;

use metrics::{result_line, END_TO_END, PER_LAYER};
use serde_json::{json, Value};
use std::path::Path;
use std::process::ExitCode;
use workload::{Spec, WORKLOADS};

/// Errors that end a run without a result.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <serve_sakoe|serve_sdtw|knn_sdtw|all> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if workload != "all" && Spec::by_name(&workload).is_none() {
            return Err(format!("unknown workload {workload}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment stamp every result carries.
fn stamp(workload: &str, seed: u64) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = json!({
        "workload": workload,
        "seed": seed,
        "nproc": cores,
        "lane_width": sdtw_suite::dtw::simd::LANE_WIDTH,
        "commit": commit(),
        "rustc": env!("PERFBENCH_RUSTC"),
    });
    format!("env: {}", to_json(&env))
}

fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("a value tree always serialises")
}

/// Runs every workload in a child process and prints a combined result
/// whose metric names carry the workload as a prefix. Returns whether
/// every workload was correct.
fn run_all(args: &Args) -> Result<bool, Error> {
    let exe = std::env::current_exe()?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for spec in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", spec.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let last = text.lines().last().unwrap_or("");
        let json = serde_json::parse(last)
            .map_err(|e| format!("{}: no result line ({e}); exit {}", spec.name, out.status))?;
        correct &= out.status.success() && json.get("correct") == Some(&Value::Bool(true));
        let count = |k: &str| match json.get(k) {
            Some(Value::Number(n)) => n.as_u64().unwrap_or(0),
            _ => 0,
        };
        attempted += count("attempted");
        failed += count("failed");
        for (name, m) in json
            .get("metrics")
            .and_then(|m| m.as_object())
            .unwrap_or(&[])
        {
            metrics.push((format!("{}/{name}", spec.name), m.clone()));
        }
    }
    let combined = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    println!("{}", to_json(&combined));
    Ok(correct && failed == 0)
}

/// Exit status of a finished run: failure unless it was correct.
fn status(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(correct) => status(correct),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let spec = Spec::by_name(&args.workload).expect("validated by Args::parse");
    println!("{}", stamp(spec.name, args.seed));
    let outcome = match run::run(
        &spec,
        args.seed,
        args.seconds,
        args.trace,
        Path::new("perfbench"),
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    let defs: &[metrics::Def] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for line in &outcome.report {
        println!("{line}");
    }
    println!("metrics ({}):", spec.name);
    for line in outcome.values.lines(defs) {
        println!("{line}");
    }
    if let Some(f) = &outcome.tally.first_failure {
        println!("first failure: {f}");
    }
    for problem in &outcome.problems {
        println!("check failed: {problem}");
    }
    println!(
        "requests: {} attempted, {} failed",
        outcome.tally.attempted, outcome.tally.failed
    );
    let correct = outcome.correct();
    println!(
        "{}",
        result_line(
            correct,
            outcome.tally.attempted,
            outcome.tally.failed,
            &outcome.values,
            defs,
        )
    );
    status(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let a = parse(&[
            "--workload",
            "knn_sdtw",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "knn_sdtw");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse(&[
            "--workload",
            "nope",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(parse(&[
            "--workload",
            "all",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(parse(&["--workload", "all", "--seed", "7", "--seconds", "1"]).is_err());
    }
}
