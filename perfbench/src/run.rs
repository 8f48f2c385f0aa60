//! One run of one workload, all phases in one process: inputs, cold
//! starts, correctness gate, references, warm-up, timed phases, then the
//! metrics.

use crate::calib::slowdown;
use crate::check::{self, Answer, Tally};
use crate::drive::{self, CallerPhase, KnnCaller, Phase, ServeCaller};
use crate::layers::{self, Split, ROWS};
use crate::metrics::Values;
use crate::probes::{self, Probes};
use crate::setup::{self, Loaded, RunDir, Setup, STEPS};
use crate::spans::SpanLog;
use crate::stats::{median, percentile, ratio};
use crate::workload::{corpus_file_bytes, generate, Kind, Spec, MATCHER_CACHE_CAP};
use crate::Error;
use sdtw_suite::prelude::{QueryTrace, ServeRequest, TimeSeries};
use sdtw_suite::serve::client_roundtrip;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Seconds of untimed warm-up requests before the timed phases.
const WARMUP_S: f64 = 1.0;

/// What a run hands back for printing.
pub struct Outcome {
    /// Every metric the run measured.
    pub values: Values,
    /// Checked requests, over the gate and every phase.
    pub tally: Tally,
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Failed accounting checks of the traced run; any one makes the
    /// run incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Whether the run counts as correct: requests were checked, none
    /// failed, and the traced run's accounting held.
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.tally.failed == 0 && self.problems.is_empty()
    }
}

/// The phases of a run: warm-up, then one untraced phase of
/// `seconds` (end-to-end run) or an untraced and a traced phase of half
/// the time each (traced run).
fn phases(seconds: f64, trace: bool) -> Vec<Phase> {
    let phase = |seconds, traced, end_to_end| Phase {
        seconds,
        traced,
        end_to_end,
    };
    let mut out = vec![phase(WARMUP_S, false, false)];
    if trace {
        out.push(phase(seconds / 2.0, false, false));
        out.push(phase(seconds / 2.0, true, false));
    } else {
        out.push(phase(seconds, false, true));
    }
    out
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, Error> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Completed requests per second over a phase (each caller's requests
/// over its time less its calibration loops, summed), the phase's wall,
/// and the request count.
fn throughput(callers: &[CallerPhase]) -> (f64, f64, usize) {
    let start = callers.iter().map(|c| c.start).min().unwrap_or_default();
    let end = callers.iter().map(|c| c.end).max().unwrap_or_default();
    let n: usize = callers.iter().map(|c| c.samples.len()).sum();
    let rps = callers
        .iter()
        .map(|c| ratio(c.samples.len() as f64, c.busy().as_secs_f64()))
        .sum();
    (rps, (end - start).as_secs_f64(), n)
}

/// Which row a workload exists to load.
fn purpose(spec: &Spec) -> &'static str {
    match (spec.kind, spec.sdtw_bands) {
        (Kind::Serve, false) => "dtw.dp_share",
        (Kind::Serve, true) => "salient.extract_share",
        (Kind::Knn, _) => "align.band_plan_share",
    }
}

/// Runs one workload.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: &Path,
) -> Result<Outcome, Error> {
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);
    let inputs = generate(spec, seed);
    let dir = RunDir::create(root, spec)?;
    std::fs::write(dir.corpus(), corpus_file_bytes(&inputs.corpus))?;
    let first = setup::cold_start(spec, &dir, &mut log)?;
    let bytes_per_sample = first.snapshot_bytes as f64 / first.samples as f64;
    let phases = phases(seconds, trace);
    let mut tally = Tally::default();
    let (mut logs, rss, probes) = match first.loaded {
        Loaded::Serve(engine, server) => {
            let engine = Arc::new(engine);
            let references = log.time("references", None, || {
                check::serve_references(spec, &engine, &inputs)
            });
            tally.merge(&log.time("gate", None, || {
                check::serve_gate(spec, &engine, &inputs, &references)
            }));
            let refs: Vec<Option<Answer>> = references.iter().map(|(_, a)| a.clone()).collect();
            let daemon = {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || server.serve(engine))
            };
            let socket = dir.socket();
            let callers = (0..spec.callers)
                .map(|c| ServeCaller::new(c, *spec, &socket, &inputs.patterns, &refs))
                .collect();
            let mut logs = drive::run(callers, seed, spec.pool, &phases, epoch);
            let rss = peak_rss_mib();
            // the callers closed their connections when their threads
            // ended, so the shutdown goes on a connection of its own
            client_roundtrip(&socket, &[ServeRequest::shutdown("perfbench-stop")])?;
            let traces = daemon.join().map_err(|_| "daemon thread panicked")??;
            attach_traces(&mut logs, &traces)?;
            let responses: Vec<_> = references.into_iter().map(|(r, _)| r).collect();
            let probes = trace.then(|| {
                log.time("probes", None, || {
                    probes::run(
                        spec,
                        engine.index(),
                        Some((&engine, &responses)),
                        &inputs,
                        seed,
                    )
                })
            });
            (logs, rss?, probes)
        }
        Loaded::Knn(index) => {
            let refs = log.time("references", None, || {
                check::knn_references(spec, &index, &inputs)
            });
            tally.merge(&log.time("gate", None, || {
                check::knn_gate(spec, &index, &inputs, &refs)
            }));
            let queries = inputs
                .patterns
                .iter()
                .map(|p| TimeSeries::new(p.clone()))
                .collect::<Result<Vec<_>, _>>()?;
            let callers = (0..spec.callers)
                .map(|c| KnnCaller::new(c, *spec, &index, &queries, &refs))
                .collect();
            let logs = drive::run(callers, seed, spec.pool, &phases, epoch);
            let rss = peak_rss_mib()?;
            let probes = trace.then(|| {
                log.time("probes", None, || {
                    probes::run(spec, &index, None, &inputs, seed)
                })
            });
            (logs, rss, probes)
        }
    };
    for phase in &logs {
        for caller in phase {
            tally.merge(&caller.tally);
        }
    }
    let setup = Setup::measure(spec, &dir, &mut log)?;
    let mut values = Values::default();
    let took = |name| log.durations(name).iter().sum::<f64>();
    let mut report = vec![
        format!(
            "workload {}: {} entries, pool {} (matcher cache {MATCHER_CACHE_CAP}), {} closed-loop callers, k={}",
            spec.name, spec.entries, spec.pool, spec.callers, spec.k
        ),
        format!(
            "phases: cold starts {:.2} s, references {:.2} s, gate {:.2} s, {}",
            took("cold_start"),
            took("references"),
            took("gate"),
            logs.iter()
                .map(|p| format!("{:.2} s", throughput(p).1))
                .collect::<Vec<_>>()
                .join(" + ")
        ),
    ];
    let mut problems = Vec::new();
    match probes {
        None => end_to_end(&mut values, &logs[1], &setup, rss)?,
        Some(probes) => {
            let traced = logs.pop().expect("the traced phase");
            problems = per_layer(
                spec,
                &mut values,
                &mut report,
                &logs[1],
                &traced,
                bytes_per_sample,
                &log,
                &probes,
            );
            record_requests(&mut log, &traced);
            let out = root.join("out");
            std::fs::create_dir_all(&out)?;
            log.write_ndjson(&out.join(format!("{}.spans.ndjson", spec.name)))?;
        }
    }
    Ok(Outcome {
        values,
        tally,
        report,
        problems,
    })
}

/// Hands each traced serve request the trace the daemon returned for it.
fn attach_traces(logs: &mut [Vec<CallerPhase>], lines: &[String]) -> Result<(), Error> {
    let mut by_id: HashMap<String, QueryTrace> = HashMap::with_capacity(lines.len());
    for line in lines {
        let t = QueryTrace::from_json_line(line)?;
        by_id.insert(t.query_id.clone(), t);
    }
    for sample in logs.iter_mut().flatten().flat_map(|c| c.samples.iter_mut()) {
        if let Some(t) = by_id.remove(&sample.id) {
            sample.trace = Some(Box::new(t));
        }
    }
    Ok(())
}

/// Adds the traced phase's caller and request spans to the log.
fn record_requests(log: &mut SpanLog, traced: &[CallerPhase]) {
    for c in traced {
        let parent = log.push("caller", None, String::new(), c.start, c.end);
        for s in &c.samples {
            log.push(
                "request",
                Some(parent),
                s.id.clone(),
                s.start,
                s.start + s.took,
            );
        }
    }
}

/// The end-to-end metrics of an untraced timed phase. Timings are scaled
/// to the calibration loop's reference speed (see [`crate::calib`]): the
/// callers' loops give the timed phase's slowdown, and loops between the
/// cold starts give the set-up's. The notes keep the measured values.
fn end_to_end(
    values: &mut Values,
    timed: &[CallerPhase],
    setup: &Setup,
    rss: f64,
) -> Result<(), Error> {
    let (rps, wall, n) = throughput(timed);
    let lat: Vec<f64> = timed
        .iter()
        .flat_map(|c| &c.samples)
        .map(|s| s.took.as_secs_f64() * 1e3)
        .collect();
    let p99 = percentile(&lat, 99.0).ok_or_else(|| {
        format!(
            "only {n} timed requests; a p99 needs {}",
            crate::stats::MIN_P99_SAMPLES
        )
    })?;
    let p50 = percentile(&lat, 50.0).expect("p99 had samples");
    let loops: Vec<_> = timed
        .iter()
        .flat_map(|c| c.calibrations.iter().copied())
        .collect();
    let slow = slowdown(&loops);
    let scaled = format!("slowdown {slow:.4} from {} calibration loops", loops.len());
    values.set(
        "throughput_rps",
        rps * slow,
        format!("n={n} requests over {wall:.3} s; measured {rps:.3}, {scaled}"),
    );
    values.set(
        "latency_p50_ms",
        p50 / slow,
        format!("n={n}; measured {p50:.4}, {scaled}"),
    );
    values.set(
        "latency_p99_ms",
        p99 / slow,
        format!("n={n}; measured {p99:.4}, {scaled}"),
    );
    let setup_slow = slowdown(&setup.calibrations);
    values.set(
        "setup_s",
        setup.setup_s() / setup_slow,
        format!(
            "median of n={} cold starts after the timed phase; measured {:.6}, slowdown {setup_slow:.4} from {} calibration loops",
            setup.starts.len(),
            setup.setup_s(),
            setup.calibrations.len()
        ),
    );
    values.set("rss_peak_mb", rss, "VmHWM after the timed phase");
    Ok(())
}

/// The per-layer metrics of a traced run; returns the accounting checks
/// that failed.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    spec: &Spec,
    values: &mut Values,
    report: &mut Vec<String>,
    untraced: &[CallerPhase],
    traced: &[CallerPhase],
    bytes_per_sample: f64,
    log: &SpanLog,
    probes: &Probes,
) -> Vec<String> {
    let split: Split = layers::split(traced, probes.extract_frac(spec));
    report.push(format!(
        "per-layer self time over {:.3} s of traced caller time ({} requests):",
        split.wall,
        traced.iter().map(|c| c.samples.len()).sum::<usize>()
    ));
    for (i, (name, krate)) in ROWS.iter().enumerate() {
        values.set(name, split.share(i), format!("{:.6} s self", split.secs[i]));
        report.push(format!(
            "  {:<26} {:<8} {:>10.6} s {:>6.2}%",
            name,
            krate,
            split.secs[i],
            100.0 * split.share(i)
        ));
    }
    let by_crate: Vec<String> = split
        .by_crate()
        .iter()
        .map(|(c, s)| format!("{c} {:.2}%", 100.0 * ratio(*s, split.wall)))
        .collect();
    report.push(format!("  by crate: {}", by_crate.join(", ")));
    let sum: f64 = split.secs.iter().sum();
    report.push(format!(
        "  sum check: layers + unattributed = {sum:.6} s, traced wall = {:.6} s, negative self times {} (worst {:.3e} s), untraced requests {}: {}",
        split.wall,
        split.negative.0,
        split.negative.1,
        split.untraced,
        if split.adds_up() { "ok" } else { "FAILED" }
    ));
    let mut problems = Vec::new();
    if !split.adds_up() {
        problems.push(format!(
            "per-layer split: {} negative self times, {} requests without a trace",
            split.negative.0, split.untraced
        ));
    }
    // The purpose is reported, not gated: it holds for the program as
    // it is, and an optimisation that shrinks the expected row below
    // another one is a result, not a wrong answer.
    let largest = ROWS
        .iter()
        .enumerate()
        .max_by(|a, b| split.secs[a.0].total_cmp(&split.secs[b.0]))
        .map_or("-", |(_, (n, _))| *n);
    report.push(format!(
        "  purpose: largest row is {largest}, expected {}: {}",
        purpose(spec),
        if largest == purpose(spec) {
            "confirmed"
        } else {
            "NOT confirmed"
        }
    ));

    let step = |name: &str| {
        let d = log.durations(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    let starts = format!(
        "median of {} cold starts",
        log.durations("cold_start").len()
    );
    values.set("tseries.parse_s", step(STEPS[0]), &starts);
    values.set("index.build_s", step(STEPS[1]), &starts);
    values.set("index.snapshot_encode_s", step(STEPS[2]), &starts);
    values.set("index.snapshot_decode_s", step(STEPS[3]), &starts);
    values.set(
        "index.snapshot_bytes_per_sample",
        bytes_per_sample,
        "binary v2",
    );

    let probe = "probe on the workload's seeded inputs";
    values.set(
        "salient.extract_corpus_s",
        probes.extract_corpus_s,
        "the extract_features calls build makes",
    );
    values.set("salient.extract_us_per_window", probes.extract_us, probe);
    values.set(
        "salient.features_per_window",
        probes.features_per_window,
        probe,
    );
    values.set(
        "scalespace.pyramid_share",
        probes.pyramid_share,
        "Pyramid::build / extract_features",
    );
    values.set("align.plan_band_us", probes.plan_band_us, probe);
    values.set("index.coarse_screen_us", probes.coarse_screen_us, probe);
    values.set("stream.matcher_new_us", probes.matcher_new_us, probe);
    values.set("serve.decode_us", probes.decode_us, probe);
    values.set("serve.encode_us", probes.encode_us, probe);

    let k = layers::counters(traced);
    let n = format!("n={} traced requests", k.requests);
    values.set("core.band_area_frac", ratio(k.band_area, k.full_grid), &n);
    values.set("dtw.dp_ns_per_cell", 1e9 * ratio(k.dp_s, k.cells), &n);
    values.set("dtw.cells_per_request", ratio(k.cells, k.requests), &n);
    // serve traces count each entry pruned whole as one Kim-pruned
    // candidate; the bound stages and the stream fractions see windows only
    let windows = k.candidates - k.entries_pruned;
    values.set("dtw.lb_ns_per_candidate", 1e9 * ratio(k.lb_s, windows), &n);
    let knn = spec.kind == Kind::Knn;
    let only = |on: bool, v: f64| if on { v } else { 0.0 };
    values.set(
        "index.lb_prune_frac",
        only(knn, ratio(k.kim + k.paa + k.keogh, k.candidates)),
        &n,
    );
    values.set(
        "index.lb_inapplicable_frac",
        only(knn, ratio(k.inapplicable, k.candidates)),
        &n,
    );
    values.set(
        "index.abandon_frac",
        only(knn, ratio(k.abandoned, k.candidates)),
        &n,
    );
    values.set(
        "index.dp_completed_per_query",
        only(knn, ratio(k.completed, k.requests)),
        &n,
    );
    values.set(
        "stream.windows_per_request",
        only(!knn, ratio(k.windows, k.requests)),
        &n,
    );
    values.set(
        "stream.kim_prune_frac",
        only(!knn, ratio(k.kim - k.entries_pruned, windows)),
        &n,
    );
    values.set(
        "stream.paa_prune_frac",
        only(!knn, ratio(k.paa, windows)),
        &n,
    );
    values.set(
        "stream.keogh_prune_frac",
        only(!knn, ratio(k.keogh, windows)),
        &n,
    );
    values.set(
        "stream.lb_inapplicable_frac",
        only(!knn, ratio(k.inapplicable, windows)),
        &n,
    );
    values.set(
        "stream.abandon_frac",
        only(!knn, ratio(k.abandoned, windows)),
        &n,
    );
    values.set(
        "stream.cache_hits_per_request",
        only(!knn, ratio(k.cache_hits, k.requests)),
        &n,
    );
    values.set(
        "serve.wire_ms",
        1e3 * ratio(k.wire_s, k.requests),
        "round trip minus engine wall; ".to_string() + &n,
    );
    values.set(
        "serve.entries_swept_frac",
        ratio(k.entries_swept, k.entries_swept + k.entries_pruned),
        &n,
    );
    let (plain, _, plain_n) = throughput(untraced);
    let (with, _, with_n) = throughput(traced);
    values.set(
        "obs.trace_overhead_frac",
        1.0 - ratio(with, plain),
        format!("{with:.2} req/s traced (n={with_n}) vs {plain:.2} untraced (n={plain_n})"),
    );
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workload::WORKLOADS;

    /// A smoke-size pass of every workload clears the correctness gate,
    /// answers every request correctly, and prints exactly the metrics
    /// `BENCHMARK.json` lists, untraced and traced.
    #[test]
    fn smoke_runs_are_correct_and_print_the_listed_metrics() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        std::thread::scope(|s| {
            for spec in WORKLOADS {
                s.spawn(move || {
                    let spec = spec.smoke();
                    for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                        let out = run(&spec, 11, 0.5, trace, root).expect("smoke run");
                        assert!(
                            out.correct(),
                            "{}: {:?} {:?}",
                            spec.name,
                            out.tally,
                            out.problems
                        );
                        let (extra, missing) = out.values.mismatches(defs);
                        assert!(
                            extra.is_empty() && missing.is_empty(),
                            "{}: extra {extra:?}, missing {missing:?}",
                            spec.name
                        );
                    }
                });
            }
        });
    }
}
