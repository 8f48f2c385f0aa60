//! Micro-benchmarks of the DTW engine: full grid vs Sakoe-Chiba vs
//! Itakura at several series lengths (the `O(band area)` scaling claim),
//! the scratch-reuse saving, the serial vs parallel batch distance-matrix
//! path on a 200-series corpus (`BENCH_baseline.json`), and the
//! API overhead checks tracked in `BENCH_api.json`:
//!
//! * `api_pairwise` — `dtw_run_options` vs the `SDtw::query` builder on
//!   the same pair (the builder must add no measurable overhead);
//! * `api_kernel` — the amerced (ADTW) kernel inside the same band
//!   machinery as the standard kernel;
//! * `api_knn` — index kNN batches under the standard and amerced
//!   kernels (same cascade, kernel swapped via configuration).
//!
//! Plus `lb_batch`, which pins the 8-lane LB_Keogh pass against eight
//! scalar calls, and `simd_lanes_<N>core`, which records the lane
//! wavefront fill and the lane LB batch (DESIGN §15) and *asserts* that
//! the lane fill beats the path-mode fill (the row fill plus traceback)
//! on a full grid by at least 2.2×; the measured ratio is printed.
//!
//! The `trace_overhead_<N>core` group is the telemetry zero-cost guard
//! (DESIGN §12): a disabled [`Recorder`] threaded through the hot paths
//! must cost nothing measurable. It records the shipping disabled- and
//! enabled-recorder index-kNN / stream-sweep paths side by side, times
//! the instrumentation seam itself (a window-scale banded DP behind
//! `Recorder::disabled().time(..)` vs the bare call — the only way the
//! post-obs hot loop differs from the pre-obs one), and *asserts* the
//! seam overhead stays under 2%. Tracked in `BENCH_obs.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdtw::{ConstraintPolicy, FeatureStore, KernelChoice, SDtw, SDtwConfig};
use sdtw_dtw::engine::{dtw_full, dtw_run_options, DtwOptions, DtwScratch};
use sdtw_dtw::itakura::itakura_band;
use sdtw_dtw::lower_bound::{lb_keogh_batch, lb_keogh_values, Envelope, LB_LANES};
use sdtw_dtw::sakoe::sakoe_chiba_band;
use sdtw_dtw::simd::LANE_WIDTH;
use sdtw_dtw::Band;
use sdtw_eval::compute_matrix;
use sdtw_index::{IndexConfig, SdtwIndex, SnapshotCodec, SnapshotFormat};
use sdtw_obs::{Recorder, TracePhase};
use sdtw_salient::extract_features;
use sdtw_serve::{ServeConfig, ServeEngine, ServeRequest};
use sdtw_stream::{StreamConfig, SubseqMatcher};
use sdtw_tseries::TimeSeries;
use std::hint::black_box;

fn series(n: usize, phase: f64) -> TimeSeries {
    TimeSeries::new(
        (0..n)
            .map(|i| {
                let t = i as f64;
                (t / 9.0 + phase).sin() + 0.4 * (t / 23.0 + phase).cos()
            })
            .collect(),
    )
    .unwrap()
}

/// One banded run with a fresh scratch (shorthand used throughout this
/// file).
fn run(x: &TimeSeries, y: &TimeSeries, band: &sdtw_dtw::Band, opts: &DtwOptions) -> f64 {
    dtw_run_options(
        x.values(),
        y.values(),
        band,
        opts,
        None,
        &mut DtwScratch::new(),
    )
    .expect("no cutoff configured")
    .distance
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("dtw_kernel");
    for &n in &[128usize, 256, 512] {
        let x = series(n, 0.0);
        let y = series(n, 1.3);
        let opts = DtwOptions::default();
        group.bench_with_input(BenchmarkId::new("full", n), &n, |b, _| {
            b.iter(|| black_box(dtw_full(&x, &y, &opts).distance))
        });
        let sc10 = sakoe_chiba_band(n, n, 0.10);
        group.bench_with_input(BenchmarkId::new("sakoe10", n), &n, |b, _| {
            b.iter(|| black_box(run(&x, &y, &sc10, &opts)))
        });
        let ita = itakura_band(n, n, 2.0);
        group.bench_with_input(BenchmarkId::new("itakura", n), &n, |b, _| {
            b.iter(|| black_box(run(&x, &y, &ita, &opts)))
        });
    }
    group.finish();
}

fn bench_traceback(c: &mut Criterion) {
    let n = 256;
    let x = series(n, 0.0);
    let y = series(n, 1.3);
    c.bench_function("dtw_full_with_path_256", |b| {
        b.iter(|| black_box(dtw_full(&x, &y, &DtwOptions::with_path()).path))
    });
}

fn bench_scratch_reuse(c: &mut Criterion) {
    // per-pair allocation vs reused scratch on a batch of banded runs
    let n = 256;
    let x = series(n, 0.0);
    let y = series(n, 1.3);
    let band = sakoe_chiba_band(n, n, 0.10);
    let opts = DtwOptions::default();
    let mut group = c.benchmark_group("dtw_scratch");
    group.bench_function("alloc_per_call", |b| {
        b.iter(|| black_box(run(&x, &y, &band, &opts)))
    });
    let mut scratch = DtwScratch::new();
    group.bench_function("reused_scratch", |b| {
        b.iter(|| {
            black_box(
                dtw_run_options(x.values(), y.values(), &band, &opts, None, &mut scratch)
                    .expect("no cutoff")
                    .distance,
            )
        })
    });
    group.finish();
}

/// The options-driven DP call vs the query builder on one pair: any
/// measurable gap is dispatch overhead the builder must not add.
fn bench_api_pairwise(c: &mut Criterion) {
    let n = 256;
    let x = series(n, 0.0);
    let y = series(n, 1.3);
    let band = sakoe_chiba_band(n, n, 0.10);
    let opts = DtwOptions::default();
    let mut group = c.benchmark_group("api_pairwise");

    let mut scratch = DtwScratch::new();
    group.bench_function("unified_dtw_run_options", |b| {
        b.iter(|| {
            black_box(
                dtw_run_options(x.values(), y.values(), &band, &opts, None, &mut scratch)
                    .expect("no cutoff")
                    .distance,
            )
        })
    });

    let engine = SDtw::new(SDtwConfig {
        policy: ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
        ..SDtwConfig::default()
    })
    .unwrap();
    let fx = extract_features(&x, &engine.config().salient).unwrap();
    let fy = extract_features(&y, &engine.config().salient).unwrap();
    group.bench_function("builder_query", |b| {
        b.iter(|| {
            black_box(
                engine
                    .query(&x, &y)
                    .features(&fx, &fy)
                    .scratch(&mut scratch)
                    .run()
                    .expect("supplied features")
                    .expect("no cutoff")
                    .distance,
            )
        })
    });
    group.finish();
}

/// The amerced kernel inside the same band machinery as the standard one.
fn bench_api_kernel(c: &mut Criterion) {
    let n = 256;
    let x = series(n, 0.0);
    let y = series(n, 1.3);
    let band = sakoe_chiba_band(n, n, 0.10);
    let mut group = c.benchmark_group("api_kernel");
    let mut scratch = DtwScratch::new();
    for (name, opts) in [
        ("standard", DtwOptions::default()),
        ("amerced", DtwOptions::amerced(0.25)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    dtw_run_options(x.values(), y.values(), &band, &opts, None, &mut scratch)
                        .expect("no cutoff")
                        .distance,
                )
            })
        });
    }
    group.finish();
}

/// One 8-lane batched LB_Keogh pass vs eight scalar calls over the same
/// envelopes — the cascade's candidate-batch shape. Bit-identity is the
/// test suite's business; this tracks what the chunked layout buys.
fn bench_lb_batch(c: &mut Criterion) {
    let n = 256;
    let x = series(n, 0.0);
    let envelopes: Vec<Envelope> = (0..LB_LANES)
        .map(|k| Envelope::build(&series(n, 0.7 + 0.1 * k as f64), n / 20))
        .collect();
    let env_refs: Vec<&Envelope> = envelopes.iter().collect();
    let metric = DtwOptions::default().metric;
    let mut group = c.benchmark_group("lb_batch");
    group.bench_function("scalar_x8", |b| {
        b.iter(|| {
            black_box(
                envelopes
                    .iter()
                    .map(|env| lb_keogh_values(x.values(), env, metric))
                    .sum::<f64>(),
            )
        })
    });
    let mut out = Vec::with_capacity(LB_LANES);
    group.bench_function("lanes_x8", |b| {
        b.iter(|| {
            lb_keogh_batch(x.values(), &env_refs, metric, &mut out);
            black_box(out.iter().sum::<f64>())
        })
    });
    group.finish();
}

/// The explicit-SIMD lane wavefront on full grids and the lane LB_Keogh
/// batch. The group name carries the core count (the lanes are
/// *instruction-level* parallelism, so a 1-core runner is exactly where
/// the speedup must show). The guard after the group *asserts* that the
/// lane fill beats the path-mode fill (the row fill plus traceback, the
/// other fill the library ships) by at least 2.2× on the 512-point full
/// grid, and prints the measured ratio — the perf-regression tripwire the
/// tracked baseline backs up with numbers.
fn bench_simd_lanes(c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let group_name = format!("simd_lanes_{cores}core");
    let mut group = c.benchmark_group(&group_name);
    let opts = DtwOptions::default();
    let mut scratch = DtwScratch::new();
    for &n in &[256usize, 512] {
        let x = series(n, 0.0);
        let y = series(n, 1.3);
        let band = Band::full(n, n);
        group.bench_with_input(BenchmarkId::new("fill_lanes", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    dtw_run_options(x.values(), y.values(), &band, &opts, None, &mut scratch)
                        .expect("no cutoff")
                        .distance,
                )
            })
        });
    }

    // the batched LB pass over one ragged batch (3 lanes + a 5-envelope
    // tail — the cascade's typical shape)
    let n = 256;
    let x = series(n, 0.0);
    let envelopes: Vec<Envelope> = (0..3 * LB_LANES + 5)
        .map(|k| Envelope::build(&series(n, 0.7 + 0.1 * k as f64), n / 20))
        .collect();
    let env_refs: Vec<&Envelope> = envelopes.iter().collect();
    let metric = opts.metric;
    let mut out = Vec::with_capacity(env_refs.len());
    group.bench_function("lb_batch_lanes", |b| {
        b.iter(|| {
            lb_keogh_batch(x.values(), &env_refs, metric, &mut out);
            black_box(out.iter().sum::<f64>())
        })
    });
    group.finish();

    // the guard proper, measured outside the shim: the lane fill must
    // beat the path-mode fill on the 512-point full grid
    let n = 512;
    let x = series(n, 0.0);
    let y = series(n, 1.3);
    let band = Band::full(n, n);
    let fill_ns = |opts: DtwOptions| {
        let mut scratch = DtwScratch::new();
        min_ns_per_call(
            &mut || {
                black_box(
                    dtw_run_options(x.values(), y.values(), &band, &opts, None, &mut scratch)
                        .expect("no cutoff")
                        .distance,
                );
            },
            20,
            8,
        )
    };
    let path_ns = fill_ns(DtwOptions::with_path());
    let lanes_ns = fill_ns(DtwOptions::default());
    let ratio = path_ns / lanes_ns;
    println!(
        "simd_lanes guard: path-mode fill {path_ns:.0} ns / lane fill {lanes_ns:.0} ns = \
         {ratio:.2}x (floor 2.2x; {LANE_WIDTH} lanes, {cores} cores)"
    );
    assert!(
        ratio >= 2.2,
        "lane fill ({lanes_ns:.0} ns) must beat the path-mode fill ({path_ns:.0} ns) by ≥ 2.2× \
         on a full grid (measured {ratio:.2}x)"
    );
}

/// 200 synthetic series (length 48) — big enough that the 200×200 matrix
/// dominates over setup, small enough for a tracked baseline.
fn distmat_corpus() -> Vec<TimeSeries> {
    (0..200usize)
        .map(|k| {
            TimeSeries::new(
                (0..48)
                    .map(|i| {
                        let t = i as f64;
                        ((t + k as f64) / 7.0).sin()
                            + 0.4 * ((t * (1.0 + k as f64 * 0.003)) / 17.0).cos()
                    })
                    .collect(),
            )
            .unwrap()
            .identified(k as u64)
        })
        .collect()
}

fn bench_distmat(c: &mut Criterion) {
    let corpus = distmat_corpus();
    let engine = SDtw::new(SDtwConfig {
        policy: ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.2 },
        ..SDtwConfig::default()
    })
    .unwrap();
    let store = FeatureStore::new(engine.config().salient.clone()).unwrap();
    let mut group = c.benchmark_group("distmat_200x200");
    group.bench_function("serial", |b| {
        b.iter(|| {
            black_box(
                compute_matrix(&corpus, &engine, &store, false)
                    .unwrap()
                    .stats
                    .pairs,
            )
        })
    });
    group.bench_function("parallel", |b| {
        b.iter(|| {
            black_box(
                compute_matrix(&corpus, &engine, &store, true)
                    .unwrap()
                    .stats
                    .pairs,
            )
        })
    });
    group.finish();
}

/// Index kNN batches under both kernels: the amerced cascade reuses the
/// whole band/LB machinery (bounds stay admissible for ω ≥ 0).
fn bench_api_knn(c: &mut Criterion) {
    let corpus = distmat_corpus();
    let queries: Vec<TimeSeries> = (0..20).map(|k| series(48, 0.05 * k as f64)).collect();
    let mut group = c.benchmark_group("api_knn");
    for (name, kernel) in [
        ("standard", KernelChoice::Standard),
        ("amerced", KernelChoice::Amerced { penalty: 0.25 }),
    ] {
        let mut config = IndexConfig::exact_banded(0.2);
        config.sdtw.dtw.kernel = kernel;
        let index = SdtwIndex::build(&corpus, config).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    index
                        .batch_query(&queries, 5, false)
                        .unwrap()
                        .iter()
                        .map(|r| r.stats.dp_completed)
                        .sum::<u64>(),
                )
            })
        });
    }
    group.finish();
}

/// Min-of-batches nanoseconds per call: warmed, then the minimum mean
/// over several batches — the estimator least sensitive to scheduler
/// noise on the shared 1-core CI runner, which is what a 2% assertion
/// needs.
fn min_ns_per_call(f: &mut dyn FnMut(), iters: u32, batches: u32) -> f64 {
    for _ in 0..iters / 4 {
        f();
    }
    let mut min = f64::INFINITY;
    for _ in 0..batches {
        let t = std::time::Instant::now();
        for _ in 0..iters {
            f();
        }
        min = min.min(t.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    min
}

/// Telemetry zero-cost guard (`BENCH_obs.json`). Records the shipping
/// disabled-recorder index-kNN and stream-sweep paths next to their
/// traced twins, then measures the instrumentation seam itself — one
/// window-scale banded DP behind `Recorder::disabled().time(..)` versus
/// the identical bare call — and asserts the seam overhead stays under
/// 2%. The seam pair is the honest pre-obs comparison: a disabled
/// recorder's `time` is one `Option` branch around the closure, and
/// that branch is the *only* difference between the post-obs hot loops
/// and the code they replaced. The measured overhead lands in the
/// `trace_overhead_guard/...` record id (the shim's record schema has
/// no free-form fields), and the core count in the group name qualifies
/// the numbers — the committed record is from a 1-core runner.
fn bench_trace_overhead(c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());

    // index-kNN workload: 64-series corpus, 8 queries, k = 5
    let corpus: Vec<TimeSeries> = (0..64).map(|k| series(48, 0.13 * k as f64)).collect();
    let queries: Vec<TimeSeries> = (0..8).map(|k| series(48, 0.05 * k as f64)).collect();
    let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap();

    // stream workload: one query swept over a 2048-sample haystack
    let pattern = series(64, 0.5);
    let hay = series(2048, 0.0);
    let matcher = SubseqMatcher::new(&pattern, StreamConfig::exact_banded(0.2)).unwrap();

    let group_name = format!("trace_overhead_{cores}core");
    let mut group = c.benchmark_group(&group_name);
    group.bench_function("index_knn_disabled_recorder", |b| {
        b.iter(|| {
            black_box(
                index
                    .batch_query(&queries, 5, false)
                    .unwrap()
                    .iter()
                    .map(|r| r.stats.dp_completed)
                    .sum::<u64>(),
            )
        })
    });
    group.bench_function("index_knn_traced", |b| {
        b.iter(|| {
            black_box(
                queries
                    .iter()
                    .map(|q| {
                        index
                            .query_traced(q, 5, "bench")
                            .unwrap()
                            .1
                            .counters
                            .cascade
                            .dp_completed
                    })
                    .sum::<u64>(),
            )
        })
    });
    group.bench_function("stream_sweep_disabled_recorder", |b| {
        let mut scratch = DtwScratch::new();
        b.iter(|| {
            let r = matcher
                .search(&hay)
                .k(3)
                .scratch(&mut scratch)
                .run()
                .unwrap()
                .0;
            black_box(r.matches.len())
        })
    });
    group.bench_function("stream_sweep_traced", |b| {
        let mut scratch = DtwScratch::new();
        b.iter(|| {
            let (r, t) = matcher
                .search(&hay)
                .k(3)
                .scratch(&mut scratch)
                .trace("bench")
                .run()
                .unwrap();
            black_box((r.matches.len(), t.map_or(0, |t| t.spans.len())))
        })
    });

    // the seam itself: a window-scale banded DP (the per-window unit of
    // both cascades) bare vs behind a disabled recorder
    let wx = series(64, 0.0);
    let wy = series(64, 0.9);
    let band = sakoe_chiba_band(64, 64, 0.2);
    let opts = DtwOptions::default();
    let window_dp = |scratch: &mut DtwScratch| {
        dtw_run_options(wx.values(), wy.values(), &band, &opts, None, scratch)
            .unwrap()
            .distance
    };
    group.bench_function("seam_dp_bare", |b| {
        let mut scratch = DtwScratch::new();
        b.iter(|| black_box(window_dp(&mut scratch)))
    });
    group.bench_function("seam_dp_disabled_recorder", |b| {
        let mut scratch = DtwScratch::new();
        let mut rec = Recorder::disabled();
        b.iter(|| black_box(rec.time(TracePhase::DpFill, || window_dp(&mut scratch))))
    });
    group.finish();

    // the guard proper: assert the seam overhead, measured outside the
    // shim so the ratio is ours to compare
    let mut scratch = DtwScratch::new();
    let bare_ns = min_ns_per_call(
        &mut || {
            black_box(window_dp(&mut scratch));
        },
        400,
        12,
    );
    let mut scratch = DtwScratch::new();
    let mut rec = Recorder::disabled();
    let disabled_ns = min_ns_per_call(
        &mut || {
            black_box(rec.time(TracePhase::DpFill, || window_dp(&mut scratch)));
        },
        400,
        12,
    );
    let overhead = disabled_ns / bare_ns - 1.0;
    assert!(
        overhead < 0.02,
        "disabled-recorder seam overhead {:.2}% exceeds the 2% budget \
         (bare {bare_ns:.0} ns vs disabled {disabled_ns:.0} ns)",
        overhead * 100.0
    );
    c.bench_function(
        &format!(
            "trace_overhead_guard/seam_{:+.2}pct_budget_2pct_cores_{cores}",
            overhead * 100.0
        ),
        |b| b.iter(|| black_box(overhead)),
    );
}

/// The resident-service payoff (`BENCH_serve.json`): a warm
/// [`ServeEngine`] answering a pattern request (snapshot resident,
/// matcher cached, scratch reused) versus the cold one-shot path a CLI
/// invocation pays every time (decode the binary snapshot, which
/// rebuilds the index's derived data, build the engine, prepare the
/// matcher, answer once). Same request, bit-identical
/// answer — the group *asserts* warm beats cold, and the measured ratio
/// lands in the `serve_warm_vs_cold/...` record id (the shim's record
/// schema has no free-form fields). The core count in the group name
/// qualifies the numbers.
fn bench_serve(c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());

    // archive: 24 entries × 512 samples; query: one 64-sample pattern
    let corpus: Vec<TimeSeries> = (0..24).map(|k| series(512, 0.17 * k as f64)).collect();
    let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap();
    let snapshot = SnapshotCodec::encode(&index, SnapshotFormat::BinaryV2).unwrap();
    let req = ServeRequest::query("bench", series(64, 0.4).values().to_vec(), 5);

    let warm = ServeEngine::new(index, ServeConfig::default()).unwrap();
    // prime the matcher cache — the warm path is the steady state of a
    // long-lived daemon, where the pattern has been seen before
    let (primed, _) = warm.answer(&req);
    assert!(primed.ok, "{}", primed.error);

    let cold_once = || {
        let index = SnapshotCodec::decode(&snapshot).unwrap();
        let engine = ServeEngine::new(index, ServeConfig::default()).unwrap();
        let (resp, _) = engine.answer(&req);
        resp
    };

    let group_name = format!("serve_{cores}core");
    let mut group = c.benchmark_group(&group_name);
    group.bench_function("warm_engine_query", |b| {
        let mut scratch = DtwScratch::new();
        b.iter(|| {
            let (resp, _) = warm.answer_with_scratch(&req, &mut scratch);
            black_box(resp.hits.len())
        })
    });
    group.bench_function("cold_one_shot_query", |b| {
        b.iter(|| black_box(cold_once().hits.len()))
    });
    group.finish();

    // the acceptance guard, measured outside the shim: the warm engine
    // must beat the cold one-shot on the same request
    let mut scratch = DtwScratch::new();
    let warm_ns = min_ns_per_call(
        &mut || {
            black_box(warm.answer_with_scratch(&req, &mut scratch).0.hits.len());
        },
        40,
        8,
    );
    let cold_ns = min_ns_per_call(
        &mut || {
            black_box(cold_once().hits.len());
        },
        40,
        8,
    );
    assert!(
        warm_ns < cold_ns,
        "warm serve ({warm_ns:.0} ns) must beat the cold one-shot ({cold_ns:.0} ns)"
    );
    c.bench_function(
        &format!(
            "serve_warm_vs_cold/speedup_{:.1}x_cores_{cores}",
            cold_ns / warm_ns
        ),
        |b| b.iter(|| black_box(cold_ns / warm_ns)),
    );
}

criterion_group!(
    benches,
    bench_kernels,
    bench_traceback,
    bench_scratch_reuse,
    bench_simd_lanes,
    bench_lb_batch,
    bench_api_pairwise,
    bench_api_kernel,
    bench_distmat,
    bench_api_knn,
    bench_trace_overhead,
    bench_serve
);
criterion_main!(benches);
