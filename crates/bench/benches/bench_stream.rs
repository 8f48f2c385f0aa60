//! Subsequence-search benchmark: the pruned cascade matcher against the
//! naive per-window DP (the `sdtw_eval` oracle), plus the streaming
//! monitor. Tracked in `BENCH_stream.json`; the bench corpus's cascade
//! prune rate is recorded in the `stream_prune_rate/...` id and asserted
//! to clear 50% before the DP stage.

use criterion::{criterion_group, criterion_main, Criterion};
use sdtw::{DtwScratch, SDtw};
use sdtw_eval::{brute_force_matches, select_matches, subsequence_profile};
use sdtw_stream::{MonitorBank, StreamConfig, SubseqMatcher};
use sdtw_tseries::TimeSeries;
use std::hint::black_box;

const QUERY_LEN: usize = 64;
const HAY_LEN: usize = 2048;

/// A two-bump query pattern.
fn query() -> TimeSeries {
    TimeSeries::new(
        (0..QUERY_LEN)
            .map(|i| {
                let a = (i as f64 - 20.0) / 5.0;
                let b = (i as f64 - 45.0) / 8.0;
                (-a * a / 2.0).exp() + 0.7 * (-b * b / 2.0).exp()
            })
            .collect(),
    )
    .unwrap()
}

/// A drifting haystack with the query planted at several gains/levels.
fn haystack(q: &TimeSeries) -> TimeSeries {
    let mut hay = vec![0.0; HAY_LEN];
    for (start, gain, level) in [(250usize, 1.0, 0.0), (900, 2.0, 3.0), (1500, 0.7, -2.0)] {
        for i in 0..QUERY_LEN {
            hay[start + i] += gain * q.at(i) + level;
        }
    }
    for (i, v) in hay.iter_mut().enumerate() {
        *v += 0.4 * (i as f64 / 150.0).sin() + 0.05 * (i as f64 / 7.0).cos();
    }
    TimeSeries::new(hay).unwrap()
}

fn bench_stream(c: &mut Criterion) {
    let q = query();
    let hay = haystack(&q);
    let config = StreamConfig::exact_banded(0.2);
    let matcher = SubseqMatcher::new(&q, config.clone()).unwrap();
    let engine = SDtw::new(config.sdtw.clone()).unwrap();
    let k = 3;

    // sanity + prune-rate capture outside the timing loops
    let reference = matcher.search(&hay).k(k).run().unwrap().0;
    let oracle = brute_force_matches(
        &engine,
        &q,
        &hay,
        true,
        k,
        matcher.exclusion(),
        f64::INFINITY,
    )
    .unwrap();
    assert_eq!(reference.matches.len(), oracle.len(), "cascade is exact");
    for (m, (w, d)) in reference.matches.iter().zip(&oracle) {
        assert_eq!(m.offset, *w);
        assert_eq!(m.distance.to_bits(), d.to_bits());
    }
    let lb_rate = reference.stats.lb_prune_rate();
    assert!(
        lb_rate >= 0.5,
        "bench corpus must see >= 50% of windows pruned before the DP stage, got {:.1}%",
        lb_rate * 100.0
    );
    // the coarse PAA pre-filter must itself dispose of windows on the
    // bench corpus (it sits between the rolling LB_Kim and LB_Keogh)
    assert!(
        reference.stats.cascade.pruned_paa > 0,
        "PAA pre-filter pruned nothing on the bench corpus: {:?}",
        reference.stats
    );
    // the sharded parallel scan is bit-identical to the serial one
    let cores = rayon::current_num_threads();
    let sharded = matcher.search(&hay).k(k).shards(0).run().unwrap().0;
    assert_eq!(sharded.matches.len(), reference.matches.len());
    for (p, s) in sharded.matches.iter().zip(&reference.matches) {
        assert_eq!(p.offset, s.offset);
        assert_eq!(p.distance.to_bits(), s.distance.to_bits());
    }

    let mut group = c.benchmark_group("stream_find");
    group.bench_function("cascade", |b| {
        let mut scratch = DtwScratch::new();
        b.iter(|| {
            let r = matcher
                .search(&hay)
                .k(k)
                .scratch(&mut scratch)
                .run()
                .unwrap()
                .0;
            black_box(r.matches.len())
        })
    });
    group.bench_function(&format!("cascade_parallel_cores_{cores}"), |b| {
        b.iter(|| {
            let r = matcher.search(&hay).k(k).shards(0).run().unwrap().0;
            black_box(r.matches.len())
        })
    });
    group.bench_function("naive_per_window_dp", |b| {
        b.iter(|| {
            let profile = subsequence_profile(&engine, &q, &hay, true).unwrap();
            let picks = select_matches(&profile, k, matcher.exclusion(), f64::INFINITY);
            black_box(picks.len())
        })
    });
    group.bench_function("monitor_top1", |b| {
        b.iter(|| {
            let mut monitor = MonitorBank::new([matcher.clone()], 1, f64::INFINITY).unwrap();
            monitor.process(hay.values()).unwrap();
            black_box(monitor.matches(0).len())
        })
    });
    group.bench_function("monitor_bank_top1_x4", |b| {
        // four phase-shifted variants of the query sharing one ingest
        let variants: Vec<SubseqMatcher> = (0..4)
            .map(|p| {
                let shifted = TimeSeries::new(
                    q.values()
                        .iter()
                        .enumerate()
                        .map(|(i, v)| v + 0.1 * ((i + 7 * p) as f64 / 9.0).sin())
                        .collect(),
                )
                .unwrap();
                SubseqMatcher::new(&shifted, StreamConfig::exact_banded(0.2)).unwrap()
            })
            .collect();
        b.iter(|| {
            let mut bank = MonitorBank::new(variants.clone(), 1, f64::INFINITY).unwrap();
            bank.process(hay.values()).unwrap();
            black_box(bank.merged_stats().cascade.candidates)
        })
    });
    group.finish();

    // record the measured rates and the core count in the results file
    // via the id (the shim's record schema has no free-form fields)
    c.bench_function(
        &format!(
            "stream_prune_rate/lb_{:.1}pct_paa_{}windows_total_{:.1}pct_cores_{cores}",
            lb_rate * 100.0,
            reference.stats.cascade.pruned_paa,
            reference.stats.prune_rate() * 100.0
        ),
        |b| b.iter(|| black_box(lb_rate)),
    );
}

criterion_group!(benches, bench_stream);
criterion_main!(benches);
