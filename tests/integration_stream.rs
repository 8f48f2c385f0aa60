//! Subsequence-search exactness: the pruned `sdtw-stream` matcher versus
//! the brute-force every-window oracle (`sdtw_eval::subsequence`), and
//! the streaming monitor versus the batch matcher.
//!
//! The acceptance bar is *bit-identical*: same offsets, same distance
//! bits, ties included, on three seeded datasets, for k ∈ {1, 5}, with
//! and without per-window z-normalisation, under every kernel. Fixed-band
//! sweeps fill their DPs in lock-step batches, so a periodic haystack
//! puts windows with bit-equal distances into one batch to hold the
//! tie-break as well. The batched fill only vectorises in optimised
//! builds, so this file also runs under `--release`.

use sdtw_suite::eval::{select_matches, subsequence_profile};
use sdtw_suite::prelude::*;

/// Concatenates corpus rows into one long haystack series.
fn haystack(series: &[TimeSeries]) -> TimeSeries {
    let mut v = Vec::new();
    for s in series {
        v.extend_from_slice(s.values());
    }
    TimeSeries::new(v).expect("concatenation of valid series is valid")
}

/// The kernels the sweeps must stay exact under: the paper's
/// symmetric1, symmetric2 with the `/(N+M)` normalisation, and amerced
/// with a penalty of 0.25.
fn kernel_grid() -> Vec<(&'static str, DtwOptions)> {
    vec![
        ("sym1", DtwOptions::default()),
        ("sym2", DtwOptions::normalized_symmetric2()),
        ("amerced", DtwOptions::amerced(0.25)),
    ]
}

/// A Sakoe 0.2 search under the given kernel and normalisation mode.
fn banded_config(dtw: DtwOptions, z_normalize: bool) -> StreamConfig {
    let base = StreamConfig::exact_banded(0.2);
    StreamConfig {
        sdtw: SDtwConfig { dtw, ..base.sdtw },
        z_normalize,
        ..base
    }
}

/// An sDTW-band search (the paper's `ac2,aw` constraints, planned per
/// window) under the given kernel and normalisation mode.
fn sdtw_band_config(dtw: DtwOptions, z_normalize: bool) -> StreamConfig {
    let base = StreamConfig::sdtw_bands();
    StreamConfig {
        sdtw: SDtwConfig { dtw, ..base.sdtw },
        z_normalize,
        lb_radius_frac: 0.2,
        ..base
    }
}

/// Asserts matcher == oracle on one seeded dataset, under every kernel,
/// both normalisation modes, k ∈ {1, 5}.
fn assert_exact(analog: UcrAnalog, seed: u64, hay_rows: usize) {
    let ds = analog.generate(seed);
    let query = ds.series[0].clone();
    let hay = haystack(&ds.series[1..1 + hay_rows]);
    for (kname, dtw) in kernel_grid() {
        for z_norm in [true, false] {
            let matcher = SubseqMatcher::new(&query, banded_config(dtw, z_norm)).unwrap();
            assert_matches_the_oracle(&matcher, &query, &hay, &format!("{analog:?} {kname}"));
        }
    }
}

/// Asserts one matcher against the brute-force oracle for k ∈ {1, 5}:
/// same offsets, same distance bits, ties broken toward the lower offset.
/// Returns the oracle's distance profile.
fn assert_matches_the_oracle(
    matcher: &SubseqMatcher,
    query: &TimeSeries,
    hay: &TimeSeries,
    label: &str,
) -> Vec<(usize, f64)> {
    let z_norm = matcher.config().z_normalize;
    let engine = SDtw::new(matcher.config().sdtw.clone()).unwrap();
    let profile = subsequence_profile(&engine, query, hay, z_norm).unwrap();
    assert_eq!(profile.len(), hay.len() - query.len() + 1);
    for k in [1usize, 5] {
        let expected = select_matches(&profile, k, matcher.exclusion(), f64::INFINITY);
        let got = matcher.find(hay, k).unwrap();
        assert_eq!(
            got.matches.len(),
            expected.len(),
            "{label} znorm={z_norm} k={k}: match count"
        );
        for (m, (w, d)) in got.matches.iter().zip(&expected) {
            assert_eq!(
                m.offset, *w,
                "{label} znorm={z_norm} k={k}: offsets diverge"
            );
            assert_eq!(
                m.distance.to_bits(),
                d.to_bits(),
                "{label} znorm={z_norm} k={k}: distance bits diverge at {w}"
            );
        }
        assert!(got.stats.is_consistent());
        assert_eq!(got.stats.windows as usize, profile.len());
    }
    profile
}

#[test]
fn matcher_is_exact_versus_the_oracle_on_gun() {
    assert_exact(UcrAnalog::Gun, 20120827, 6);
}

#[test]
fn matcher_is_exact_versus_the_oracle_on_trace() {
    assert_exact(UcrAnalog::Trace, 42, 3);
}

#[test]
fn matcher_is_exact_versus_the_oracle_on_50words() {
    assert_exact(UcrAnalog::Words50, 7, 3);
}

/// A haystack of period 5: every window recurs bit for bit five samples
/// later, so windows with bit-equal distances share one lock-step batch
/// (the deferred queue holds eight). Exactness then rests on the
/// tie-break toward the lower offset, for every kernel, both
/// normalisation modes and every shard count.
#[test]
fn periodic_haystacks_break_ties_exactly_inside_one_batch() {
    const PERIOD: [f64; 5] = [0.3, 1.7, -0.4, 2.2, 0.9];
    let hay = TimeSeries::new((0..240).map(|i| PERIOD[i % PERIOD.len()]).collect()).unwrap();
    // the query follows the period loosely, so distances are ties but
    // not zero
    let query = TimeSeries::new(
        (0..36)
            .map(|i| PERIOD[(i + 2) % 5] + 0.3 * (i as f64 / 4.0).sin())
            .collect(),
    )
    .unwrap();
    for (kname, dtw) in kernel_grid() {
        for z_norm in [true, false] {
            let matcher = SubseqMatcher::new(&query, banded_config(dtw, z_norm)).unwrap();
            assert_matches_the_oracle(&matcher, &query, &hay, &format!("periodic {kname}"));
            for k in [1usize, 5] {
                assert_sharded_equals_serial(&matcher, &hay, k, f64::INFINITY);
            }
        }
    }
}

/// Adaptive per-window bands planned from the query's cached salient
/// descriptors, behind the full-grid screen and the per-window records
/// the k passes share. The oracle extracts every window from scratch, so
/// this also pins the descriptor-cache path. A whole series as the query
/// under the default configuration, then a 70-sample cut under every
/// kernel, both normalisation modes, a finite τ equal to a match's
/// distance, and shard counts {1, 2, 3, 7}.
#[test]
fn matcher_is_exact_with_sdtw_bands() {
    let ds = UcrAnalog::Gun.generate(5);
    let whole = ds.series[0].clone();
    let config = StreamConfig {
        lb_radius_frac: 0.2,
        ..StreamConfig::sdtw_bands()
    };
    let matcher = SubseqMatcher::new(&whole, config).unwrap();
    let hay = haystack(&ds.series[1..4]);
    assert_matches_the_oracle(&matcher, &whole, &hay, "sdtw bands, whole query");

    let query = TimeSeries::new(ds.series[0].values()[30..100].to_vec()).unwrap();
    let hay = haystack(&ds.series[1..3]);
    for (kname, dtw) in kernel_grid() {
        for z_norm in [true, false] {
            let matcher = SubseqMatcher::new(&query, sdtw_band_config(dtw, z_norm)).unwrap();
            let label = format!("sdtw bands {kname} znorm={z_norm}");
            let profile = assert_matches_the_oracle(&matcher, &query, &hay, &label);
            // τ exactly at the second selected distance: the boundary
            // tie must survive
            let all = select_matches(&profile, 5, matcher.exclusion(), f64::INFINITY);
            assert!(all.len() >= 2, "{label}: the haystack holds two matches");
            let tau = all[1].1;
            let expected = select_matches(&profile, 5, matcher.exclusion(), tau);
            let got = matcher.find_under(&hay, 5, tau).unwrap();
            assert_eq!(got.matches.len(), expected.len(), "{label}: τ match count");
            for (m, (w, d)) in got.matches.iter().zip(&expected) {
                assert_eq!(m.offset, *w, "{label}: τ offsets diverge");
                assert_eq!(m.distance.to_bits(), d.to_bits(), "{label}: τ bits");
            }
            assert!(got.matches.iter().any(|m| m.distance == tau), "{label}");
            for k in [1usize, 5] {
                assert_sharded_equals_serial(&matcher, &hay, k, f64::INFINITY);
            }
            assert_sharded_equals_serial(&matcher, &hay, 5, tau);
        }
    }
}

#[test]
fn tau_restricted_search_matches_the_oracle_inclusively() {
    let ds = UcrAnalog::Gun.generate(99);
    let query = ds.series[0].clone();
    let hay = haystack(&ds.series[1..6]);
    let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
    let engine = SDtw::new(matcher.config().sdtw.clone()).unwrap();
    let profile = subsequence_profile(&engine, &query, &hay, true).unwrap();
    // tau exactly at the 2nd-best selected distance: the tie must survive
    let all = select_matches(&profile, 5, matcher.exclusion(), f64::INFINITY);
    assert!(all.len() >= 2, "dataset provides at least two matches");
    let tau = all[1].1;
    let expected = select_matches(&profile, 5, matcher.exclusion(), tau);
    let got = matcher.find_under(&hay, 5, tau).unwrap();
    assert_eq!(got.matches.len(), expected.len());
    for (m, (w, d)) in got.matches.iter().zip(&expected) {
        assert_eq!(m.offset, *w);
        assert_eq!(m.distance.to_bits(), d.to_bits());
    }
    assert!(
        got.matches.iter().any(|m| m.distance == tau),
        "the boundary tie survived"
    );
}

#[test]
fn monitor_streaming_equals_batch_on_seeded_data() {
    let ds = UcrAnalog::Gun.generate(3);
    let query = ds.series[0].clone();
    let hay = haystack(&ds.series[1..7]);
    let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();

    // k = 1, unbounded tau: UCR best-match tracking
    let batch1 = matcher.find(&hay, 1).unwrap();
    let mut monitor = StreamMonitor::new(matcher.clone(), 1, f64::INFINITY).unwrap();
    monitor.process(hay.values()).unwrap();
    let live = monitor.matches();
    assert_eq!(live.len(), 1);
    assert_eq!(live[0].offset, batch1.matches[0].offset);
    assert_eq!(
        live[0].distance.to_bits(),
        batch1.matches[0].distance.to_bits()
    );

    // k = 5 under a finite tau: threshold monitoring
    let probe = matcher.find(&hay, 5).unwrap();
    let tau = probe.matches.last().unwrap().distance;
    let batchk = matcher.find_under(&hay, 5, tau).unwrap();
    let mut monitor = StreamMonitor::new(matcher, 5, tau).unwrap();
    monitor.process(hay.values()).unwrap();
    let live = monitor.matches();
    assert_eq!(live.len(), batchk.matches.len());
    for (a, b) in live.iter().zip(&batchk.matches) {
        assert_eq!(a.offset, b.offset);
        assert_eq!(a.distance.to_bits(), b.distance.to_bits());
    }
    assert!(monitor.stats().is_consistent());
}

#[test]
fn cascade_prunes_most_windows_on_seeded_data() {
    // the pruning claim behind BENCH_stream.json, pinned as a test: on a
    // long haystack the lower bounds dispose of most window visits
    // before any DP runs
    let ds = UcrAnalog::Gun.generate(17);
    let query = ds.series[0].clone();
    let hay = haystack(&ds.series[1..13]);
    let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
    let got = matcher.find(&hay, 1).unwrap();
    assert!(
        got.stats.prune_rate() >= 0.5,
        "cascade pruned only {:.1}% of {} window visits: {:?}",
        got.stats.prune_rate() * 100.0,
        got.stats.cascade.candidates,
        got.stats
    );
    // the coarse PAA pre-filter stage must itself dispose of windows
    // (it sits between the rolling LB_Kim and the fine LB_Keogh)
    assert!(
        got.stats.cascade.pruned_paa > 0,
        "PAA pre-filter never fired: {:?}",
        got.stats
    );
}

/// Asserts `find_k_parallel` ≡ the serial scan on one (matcher, hay, k,
/// tau) combination across shard counts {1, 2, 3, 7}: bit-identical
/// matches for every count, full stats equality for one shard, and
/// shard-invariant visit accounting for the rest.
fn assert_sharded_equals_serial(matcher: &SubseqMatcher, hay: &TimeSeries, k: usize, tau: f64) {
    let serial = matcher.find_under(hay, k, tau).unwrap();
    for shards in [1usize, 2, 3, 7] {
        let parallel = matcher.find_k_parallel(hay, k, tau, shards).unwrap();
        assert_eq!(
            parallel.matches.len(),
            serial.matches.len(),
            "shards={shards} k={k}: match count"
        );
        for (p, s) in parallel.matches.iter().zip(&serial.matches) {
            assert_eq!(p.offset, s.offset, "shards={shards} k={k}: offsets");
            assert_eq!(
                p.distance.to_bits(),
                s.distance.to_bits(),
                "shards={shards} k={k}: distance bits"
            );
        }
        assert!(parallel.stats.is_consistent(), "shards={shards}");
        if shards == 1 {
            // one shard IS the serial scan — every counter agrees
            assert_eq!(parallel.stats, serial.stats, "one shard must equal serial");
        } else {
            // across shard counts the *visit* accounting is invariant:
            // same windows, same passes, same exclusion skips, and the
            // same number of window visits overall (a visit is either a
            // cascade entry or a cache hit — shard-local thresholds may
            // shift windows between those, never drop them)
            assert_eq!(parallel.stats.windows, serial.stats.windows);
            assert_eq!(parallel.stats.passes, serial.stats.passes);
            assert_eq!(
                parallel.stats.skipped_excluded,
                serial.stats.skipped_excluded
            );
            assert_eq!(
                parallel.stats.cascade.candidates + parallel.stats.cache_hits,
                serial.stats.cascade.candidates + serial.stats.cache_hits,
            );
        }
    }
}

#[test]
fn sharded_parallel_scan_is_bit_identical_to_serial() {
    for (analog, seed, rows) in [
        (UcrAnalog::Gun, 20120827u64, 6usize),
        (UcrAnalog::Trace, 42, 3),
        (UcrAnalog::Words50, 7, 3),
    ] {
        let ds = analog.generate(seed);
        let query = ds.series[0].clone();
        let hay = haystack(&ds.series[1..1 + rows]);
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        for k in [1usize, 5] {
            assert_sharded_equals_serial(&matcher, &hay, k, f64::INFINITY);
        }
        // a finite tau exactly at a selected distance: the boundary tie
        // must survive sharding too
        let probe = matcher.find(&hay, 2).unwrap();
        if let Some(last) = probe.matches.last() {
            assert_sharded_equals_serial(&matcher, &hay, 3, last.distance);
        }
    }
}

#[test]
fn sharded_scan_is_exact_with_sdtw_bands_and_raw_mode() {
    let ds = UcrAnalog::Gun.generate(5);
    let query = ds.series[0].clone();
    let hay = haystack(&ds.series[1..4]);
    // adaptive per-window sDTW bands planned inside each shard worker
    let adaptive = StreamConfig {
        lb_radius_frac: 0.2,
        ..StreamConfig::sdtw_bands()
    };
    let matcher = SubseqMatcher::new(&query, adaptive).unwrap();
    assert_sharded_equals_serial(&matcher, &hay, 3, f64::INFINITY);
    // raw mode: exact (unguarded) rolling bounds
    let raw = StreamConfig {
        z_normalize: false,
        ..StreamConfig::exact_banded(0.2)
    };
    let matcher = SubseqMatcher::new(&query, raw).unwrap();
    assert_sharded_equals_serial(&matcher, &hay, 2, f64::INFINITY);
}

#[test]
fn sharded_scan_handles_degenerate_inputs() {
    let ds = UcrAnalog::Gun.generate(9);
    let query = ds.series[0].clone();
    let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
    // series shorter than the query: empty result, no panic
    let short = TimeSeries::new(vec![0.0; 10]).unwrap();
    assert!(matcher
        .find_k_parallel(&short, 1, f64::INFINITY, 4)
        .unwrap()
        .matches
        .is_empty());
    // more shards than windows: clamped, still exact
    let tight = haystack(&ds.series[1..2]);
    let serial = matcher.find(&tight, 1).unwrap();
    let sharded = matcher
        .find_k_parallel(&tight, 1, f64::INFINITY, 10_000)
        .unwrap();
    assert_eq!(sharded.matches.len(), serial.matches.len());
    for (p, s) in sharded.matches.iter().zip(&serial.matches) {
        assert_eq!(p.offset, s.offset);
        assert_eq!(p.distance.to_bits(), s.distance.to_bits());
    }
    // bad parameters are rejected like the serial path
    assert!(matcher
        .find_k_parallel(&tight, 0, f64::INFINITY, 2)
        .is_err());
    assert!(matcher.find_k_parallel(&tight, 1, -1.0, 2).is_err());
}

#[test]
fn monitor_bank_equals_independent_monitors_on_seeded_data() {
    // the shared-ingest bank must be indistinguishable, query by query
    // and bit by bit, from N standalone monitors fed the same stream
    let ds = UcrAnalog::Gun.generate(31);
    let hay = haystack(&ds.series[4..10]);
    let queries: Vec<TimeSeries> = ds.series[..3].to_vec();
    let matchers: Vec<SubseqMatcher> = queries
        .iter()
        .map(|q| SubseqMatcher::new(q, StreamConfig::exact_banded(0.2)).unwrap())
        .collect();
    // mixed per-query regimes: UCR best-match, and threshold monitoring
    let probe = matchers[1].find(&hay, 2).unwrap();
    let tau1 = probe.matches.last().unwrap().distance * 1.2;
    let specs: Vec<(usize, f64)> = vec![(1, f64::INFINITY), (3, tau1), (1, tau1)];

    let mut bank = MonitorBank::new(
        matchers
            .iter()
            .zip(&specs)
            .map(|(m, &(k, tau))| BankQuery::new(m.clone(), k, tau)),
    )
    .unwrap();
    bank.process(hay.values()).unwrap();

    let mut merged_expected = StreamStats::default();
    for (qi, (m, &(k, tau))) in matchers.iter().zip(&specs).enumerate() {
        let mut solo = StreamMonitor::new(m.clone(), k, tau).unwrap();
        solo.process(hay.values()).unwrap();
        let bank_matches = bank.matches(qi);
        let solo_matches = solo.matches();
        assert_eq!(bank_matches.len(), solo_matches.len(), "query {qi}");
        for (a, b) in bank_matches.iter().zip(&solo_matches) {
            assert_eq!(a.offset, b.offset, "query {qi}: offsets");
            assert_eq!(
                a.distance.to_bits(),
                b.distance.to_bits(),
                "query {qi}: distance bits"
            );
        }
        assert_eq!(bank.stats(qi), solo.stats(), "query {qi}: stats");
        assert_eq!(
            bank.candidate_count(qi),
            solo.candidate_count(),
            "query {qi}: candidates"
        );
        merged_expected.merge(solo.stats());
    }
    assert_eq!(bank.merged_stats(), merged_expected);
    assert_eq!(bank.position(), hay.len() as u64);
}

/// The traced entry points must be pure observers: bit-identical
/// matches, counters equal to the untraced run, and merged shard traces
/// whose visit accounting is invariant across shard counts {1, 2, 3, 7}.
#[test]
fn traced_scans_are_bit_identical_and_shard_invariant() {
    let ds = UcrAnalog::Gun.generate(31);
    let query = ds.series[0].clone();
    let hay = haystack(&ds.series[1..5]);
    let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();

    let plain = matcher.find(&hay, 3).unwrap();
    let (traced, trace) = matcher.find_traced(&hay, 3, "q-serial").unwrap();
    assert_eq!(plain.matches.len(), traced.matches.len());
    for (a, b) in plain.matches.iter().zip(&traced.matches) {
        assert_eq!(a.offset, b.offset);
        assert_eq!(a.distance.to_bits(), b.distance.to_bits());
    }
    assert_eq!(plain.stats, traced.stats, "recording never changes stats");
    assert_eq!(trace.counters, plain.stats, "the trace embeds the counters");
    assert!(trace.counters.is_consistent());
    let phases: Vec<TracePhase> = trace.spans.iter().map(|s| s.phase).collect();
    for want in [
        TracePhase::LbKeogh,
        TracePhase::DpFill,
        TracePhase::WindowSweep,
    ] {
        assert!(phases.contains(&want), "missing {want:?} in {phases:?}");
    }
    // the per-window Kim compare is sweep self time, not a span of its
    // own; its prunes still reach the counters
    assert!(!phases.contains(&TracePhase::LbKim), "{phases:?}");
    assert!(trace.counters.cascade.pruned_kim > 0);
    assert!(trace.band_area > 0 && trace.band_area <= trace.full_grid);
    assert!(trace.counters.cascade.cells_filled <= trace.band_area);

    // the merged shard traces: same matches, invariant visit accounting
    let tau = plain.matches.last().unwrap().distance * 1.1;
    let serial = matcher.find_under(&hay, 3, tau).unwrap();
    for shards in [1usize, 2, 3, 7] {
        let (result, t) = matcher
            .find_k_parallel_traced(&hay, 3, tau, shards, "q-sharded")
            .unwrap();
        for (a, b) in serial.matches.iter().zip(&result.matches) {
            assert_eq!(a.offset, b.offset, "shards={shards}");
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
        assert_eq!(t.counters, result.stats, "shards={shards}");
        assert_eq!(t.counters.windows, serial.stats.windows, "shards={shards}");
        assert_eq!(t.counters.passes, serial.stats.passes, "shards={shards}");
        assert_eq!(
            t.counters.skipped_excluded, serial.stats.skipped_excluded,
            "shards={shards}"
        );
        assert_eq!(
            t.counters.cascade.candidates + t.counters.cache_hits,
            serial.stats.cascade.candidates + serial.stats.cache_hits,
            "shards={shards}: visits shift between categories, never drop"
        );
        // every shard contributed spans from its own recorder
        assert!(
            t.spans
                .iter()
                .filter(|s| s.phase == TracePhase::WindowSweep)
                .count()
                >= shards.min(3),
            "shards={shards}: {} sweep spans",
            t.spans.len()
        );
    }
}

/// Monitors and banks expose the same canonical trace: counters snapshot
/// the accumulated stats, spans appear once tracing is switched on, and
/// the bank's merged trace folds per-query traces like `merged_stats`.
#[test]
fn monitor_and_bank_traces_snapshot_the_stream() {
    let ds = UcrAnalog::Trace.generate(12);
    let query = ds.series[0].clone();
    let hay = haystack(&ds.series[1..3]);
    let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();

    let mut monitor = StreamMonitor::new(matcher.clone(), 1, f64::INFINITY).unwrap();
    monitor.set_tracing(true);
    monitor.process(hay.values()).unwrap();
    let stats = *monitor.stats();
    let trace = monitor.trace("mon");
    assert_eq!(trace.counters, stats);
    assert_eq!(trace.shape.y_len, hay.len() as u64);
    assert!(trace.spans.iter().any(|s| s.phase == TracePhase::DpFill));
    assert!(
        monitor.trace("mon-again").spans.is_empty(),
        "spans drain; a second snapshot starts empty"
    );

    let mut bank = MonitorBank::uniform([matcher.clone(), matcher], 1, f64::INFINITY).unwrap();
    bank.set_tracing(true);
    bank.process(hay.values()).unwrap();
    let merged_stats = bank.merged_stats();
    let merged = bank.merged_trace("bank");
    assert_eq!(merged.counters, merged_stats);
    assert!(merged.spans.iter().any(|s| s.phase == TracePhase::DpFill));
    assert!(merged.counters.cascade.pruned_kim > 0);
    // the NDJSON line round-trips byte for byte
    let line = merged.to_json_line();
    let back = QueryTrace::from_json_line(&line).unwrap();
    assert_eq!(back.to_json_line(), line);
}

/// A `BandPlan` span times band planning: fixed-band scans plan no band,
/// so neither the batch sweeps nor the monitors record one, while
/// adaptive (`sdtw_bands`) scans still do on both paths.
#[test]
fn band_plan_spans_appear_only_when_bands_are_planned() {
    let ds = UcrAnalog::Gun.generate(31);
    let query = ds.series[0].clone();
    let hay = haystack(&ds.series[1..3]);
    for (config, plans) in [
        (StreamConfig::exact_banded(0.2), false),
        (StreamConfig::sdtw_bands(), true),
    ] {
        let matcher = SubseqMatcher::new(&query, config).unwrap();
        let has_plan = |spans: &[SpanRecord]| spans.iter().any(|s| s.phase == TracePhase::BandPlan);
        let (_, trace) = matcher.find_traced(&hay, 2, "sweep").unwrap();
        assert!(trace.counters.cascade.candidates > 0);
        assert_eq!(has_plan(&trace.spans), plans, "sweep: {:?}", trace.spans);
        let (_, trace) = matcher
            .find_k_parallel_traced(&hay, 2, f64::INFINITY, 2, "sharded")
            .unwrap();
        assert_eq!(has_plan(&trace.spans), plans, "sharded: {:?}", trace.spans);
        let mut monitor = StreamMonitor::new(matcher, 1, f64::INFINITY).unwrap();
        monitor.set_tracing(true);
        monitor.process(hay.values()).unwrap();
        let trace = monitor.trace("monitor");
        assert!(trace.spans.iter().any(|s| s.phase == TracePhase::DpFill));
        assert_eq!(has_plan(&trace.spans), plans, "monitor: {:?}", trace.spans);
    }
}

/// Adaptive sweeps keep one record per window across their k passes, so
/// no window is extracted and planned twice: a traced search records at
/// most one `BandPlan` execution per window, serial or sharded. The
/// query is a 60-sample cut and k = 5, so a search that re-planned every
/// LB_Kim survivor in each pass would plan more often than there are
/// windows.
#[test]
fn adaptive_searches_plan_each_window_at_most_once() {
    let ds = UcrAnalog::Gun.generate(31);
    let query = TimeSeries::new(ds.series[0].values()[40..100].to_vec()).unwrap();
    let hay = haystack(&ds.series[1..5]);
    let matcher = SubseqMatcher::new(&query, StreamConfig::sdtw_bands()).unwrap();
    let plans = |spans: &[SpanRecord]| -> u64 {
        spans
            .iter()
            .filter(|s| s.phase == TracePhase::BandPlan)
            .map(|s| s.count)
            .sum()
    };
    let (result, trace) = matcher.find_traced(&hay, 5, "serial").unwrap();
    assert_eq!(result.matches.len(), 5);
    let planned = plans(&trace.spans);
    assert!(planned > 0, "an adaptive search plans bands");
    assert!(
        planned <= result.stats.windows,
        "{planned} band plans for {} windows: {:?}",
        result.stats.windows,
        result.stats
    );
    for shards in [2usize, 3, 7] {
        let (sharded, trace) = matcher
            .find_k_parallel_traced(&hay, 5, f64::INFINITY, shards, "sharded")
            .unwrap();
        assert_eq!(sharded.matches, result.matches, "shards={shards}");
        let planned = plans(&trace.spans);
        assert!(
            planned <= sharded.stats.windows,
            "shards={shards}: {planned} band plans for {} windows",
            sharded.stats.windows
        );
    }
}
