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
use sdtw_suite::stream::PreparedHaystack;

/// Concatenates corpus rows into one long haystack series.
fn haystack(series: &[TimeSeries]) -> TimeSeries {
    let mut v = Vec::new();
    for s in series {
        v.extend_from_slice(s.values());
    }
    TimeSeries::new(v).expect("concatenation of valid series is valid")
}

/// The kernels the sweeps must stay exact under: the paper's
/// symmetric1, and amerced with a penalty of 0.25.
fn kernel_grid() -> Vec<(&'static str, DtwOptions)> {
    vec![
        ("sym1", DtwOptions::default()),
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
        let got = matcher.search(hay).k(k).run().unwrap().0;
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
            let got = matcher.search(&hay).k(5).tau(tau).run().unwrap().0;
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

/// Adaptive sweeps decide screened windows best-first by their full-grid
/// floor, not in offset order. A haystack holding the same 70-sample
/// valley twice, far apart, gives two windows with bit-equal floors and
/// distances, so the `(distance, offset)` tie-break decides which is
/// the first match. For k ∈ {1, 3, 5}, τ ∈ {∞, the k-th match's
/// distance} and shard counts {1, 3}, raw and z-normalised, `ac2aw`
/// searches equal the brute-force oracle bit for bit.
#[test]
fn equal_valleys_break_ties_exactly_under_best_first_decisions() {
    let ds = UcrAnalog::Gun.generate(5);
    let cut = &ds.series[0].values()[30..100];
    let query = TimeSeries::new(
        cut.iter()
            .enumerate()
            .map(|(i, v)| v + 0.01 * (i as f64 / 3.0).sin())
            .collect(),
    )
    .unwrap();
    let mut samples = ds.series[1].values()[..100].to_vec();
    let first = samples.len();
    samples.extend_from_slice(cut);
    samples.extend_from_slice(&ds.series[2].values()[..100]);
    let second = samples.len();
    samples.extend_from_slice(cut);
    samples.extend_from_slice(&ds.series[3].values()[..100]);
    let hay = TimeSeries::new(samples).unwrap();
    for z_norm in [false, true] {
        let matcher =
            SubseqMatcher::new(&query, sdtw_band_config(DtwOptions::default(), z_norm)).unwrap();
        let engine = SDtw::new(matcher.config().sdtw.clone()).unwrap();
        let profile = subsequence_profile(&engine, &query, &hay, z_norm).unwrap();
        let valleys = select_matches(&profile, 2, matcher.exclusion(), f64::INFINITY);
        assert_eq!(
            (valleys[0].0, valleys[1].0),
            (first, second),
            "znorm={z_norm}: the valleys are the two best matches"
        );
        assert_eq!(valleys[0].1.to_bits(), valleys[1].1.to_bits());
        for k in [1usize, 3, 5] {
            let kth = select_matches(&profile, k, matcher.exclusion(), f64::INFINITY)
                .last()
                .expect("the haystack has windows")
                .1;
            for tau in [f64::INFINITY, kth] {
                let expected = select_matches(&profile, k, matcher.exclusion(), tau);
                for shards in [1usize, 3] {
                    let what = format!("znorm={z_norm} k={k} tau={tau} shards={shards}");
                    let got = matcher
                        .search(&hay)
                        .k(k)
                        .tau(tau)
                        .shards(shards)
                        .run()
                        .unwrap()
                        .0;
                    let got: Vec<(usize, u64)> = got
                        .matches
                        .iter()
                        .map(|m| (m.offset, m.distance.to_bits()))
                        .collect();
                    let want: Vec<(usize, u64)> =
                        expected.iter().map(|(w, d)| (*w, d.to_bits())).collect();
                    assert_eq!(got, want, "{what}");
                }
            }
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
    let got = matcher.search(&hay).k(5).tau(tau).run().unwrap().0;
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

/// The monitoring regimes as `(label, k, tau)`: best-match tracking
/// without and under `tau`, threshold monitoring under `tau`, and k > 1
/// without a threshold, where a monitor never prunes.
fn monitor_regimes(tau: f64) -> [(&'static str, usize, f64); 4] {
    [
        ("k=1, tau=inf", 1, f64::INFINITY),
        ("k=1, finite tau", 1, tau),
        ("k=3, finite tau", 3, tau),
        ("k=3, tau=inf", 3, f64::INFINITY),
    ]
}

/// Asserts a monitor's matches equal a batch search's: same offsets,
/// same distance bits, same order.
fn assert_same_matches(live: &[SubseqMatch], batch: &[SubseqMatch], what: &str) {
    assert_eq!(live.len(), batch.len(), "{what}: match count");
    for (a, b) in live.iter().zip(batch) {
        assert_eq!(a.offset, b.offset, "{what}: offsets");
        assert_eq!(
            a.distance.to_bits(),
            b.distance.to_bits(),
            "{what}: distance bits"
        );
    }
}

#[test]
fn monitor_streaming_equals_batch_on_seeded_data() {
    let ds = UcrAnalog::Gun.generate(3);
    let query = ds.series[0].clone();
    let hay = haystack(&ds.series[1..7]);
    let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
    // a finite tau admitting the five best matches, all of which k = 5
    // selects
    let probe = matcher.search(&hay).k(5).run().unwrap().0;
    let tau = probe.matches.last().unwrap().distance;
    let five = ("k=5, finite tau", 5, tau);
    for (label, k, tau) in monitor_regimes(tau).into_iter().chain([five]) {
        let batch = matcher.search(&hay).k(k).tau(tau).run().unwrap().0;
        let mut monitor = MonitorBank::new([matcher.clone()], k, tau).unwrap();
        monitor.process(hay.values()).unwrap();
        assert_same_matches(&monitor.matches(0), &batch.matches, label);
        assert!(monitor.stats(0).is_consistent(), "{label}");
        assert_eq!(monitor.stats(0).windows, batch.stats.windows, "{label}");
    }
}

#[test]
fn cascade_prunes_most_windows_on_seeded_data() {
    // the stream cascade's performance floor: on a long haystack the
    // lower bounds dispose of most window visits before any DP runs
    let ds = UcrAnalog::Gun.generate(17);
    let query = ds.series[0].clone();
    let hay = haystack(&ds.series[1..13]);
    let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
    let got = matcher.search(&hay).k(1).run().unwrap().0;
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

/// Asserts a sharded search ≡ the serial (one-shard) search on one
/// (matcher, hay, k, tau) combination across shard counts {1, 2, 3, 7}:
/// bit-identical matches for every count, full stats equality for one
/// shard, and shard-invariant visit accounting for the rest.
fn assert_sharded_equals_serial(matcher: &SubseqMatcher, hay: &TimeSeries, k: usize, tau: f64) {
    let serial = matcher.search(hay).k(k).tau(tau).run().unwrap().0;
    for shards in [1usize, 2, 3, 7] {
        let parallel = matcher
            .search(hay)
            .k(k)
            .tau(tau)
            .shards(shards)
            .run()
            .unwrap()
            .0;
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
        let probe = matcher.search(&hay).k(2).run().unwrap().0;
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
        .search(&short)
        .k(1)
        .shards(4)
        .run()
        .unwrap()
        .0
        .matches
        .is_empty());
    // more shards than windows: clamped, still exact
    let tight = haystack(&ds.series[1..2]);
    let serial = matcher.search(&tight).k(1).run().unwrap().0;
    let sharded = matcher.search(&tight).k(1).shards(10_000).run().unwrap().0;
    assert_eq!(sharded.matches.len(), serial.matches.len());
    for (p, s) in sharded.matches.iter().zip(&serial.matches) {
        assert_eq!(p.offset, s.offset);
        assert_eq!(p.distance.to_bits(), s.distance.to_bits());
    }
    // bad parameters are rejected like the serial path
    assert!(matcher.search(&tight).k(0).shards(2).run().is_err());
    assert!(matcher
        .search(&tight)
        .k(1)
        .tau(-1.0)
        .shards(2)
        .run()
        .is_err());
}

#[test]
fn monitor_bank_equals_independent_monitors_on_seeded_data() {
    // a bank of three must report, query by query and bit for bit, what
    // three banks of one fed the same stream report — matches, stats and
    // candidates — and both what the batch search finds
    let ds = UcrAnalog::Gun.generate(31);
    let hay = haystack(&ds.series[4..10]);
    let matchers: Vec<SubseqMatcher> = ds.series[..3]
        .iter()
        .map(|q| SubseqMatcher::new(q, StreamConfig::exact_banded(0.2)).unwrap())
        .collect();
    let probe = matchers[1].search(&hay).k(2).run().unwrap().0;
    let tau = probe.matches.last().unwrap().distance * 1.2;
    for (label, k, tau) in monitor_regimes(tau) {
        let mut bank = MonitorBank::new(matchers.clone(), k, tau).unwrap();
        bank.process(hay.values()).unwrap();
        let mut merged_expected = StreamStats::default();
        for (q, matcher) in matchers.iter().enumerate() {
            let what = format!("{label}, query {q}");
            let batch = matcher.search(&hay).k(k).tau(tau).run().unwrap().0;
            let mut solo = MonitorBank::new([matcher.clone()], k, tau).unwrap();
            solo.process(hay.values()).unwrap();
            assert_same_matches(&solo.matches(0), &batch.matches, &what);
            assert_same_matches(&bank.matches(q), &batch.matches, &what);
            assert_eq!(bank.stats(q), solo.stats(0), "{what}: stats");
            assert_eq!(
                bank.candidate_count(q),
                solo.candidate_count(0),
                "{what}: candidates"
            );
            merged_expected.merge(solo.stats(0));
        }
        assert_eq!(bank.merged_stats(), merged_expected, "{label}");
        assert_eq!(bank.position(), hay.len() as u64);
    }
}

/// A pushed sample that is not finite, or too large for a raw query's
/// metric, is refused before it touches the bank: every query keeps its
/// matches, stats and candidates, and finishing the stream reproduces
/// the batch search.
#[test]
fn refused_pushes_leave_every_query_of_a_bank_unchanged() {
    let ds = UcrAnalog::Gun.generate(31);
    let hay = haystack(&ds.series[4..8]);
    let raw = StreamConfig {
        z_normalize: false,
        ..StreamConfig::exact_banded(0.2)
    };
    let matchers: Vec<SubseqMatcher> = ds.series[..3]
        .iter()
        .zip([StreamConfig::exact_banded(0.2), raw.clone(), raw])
        .map(|(q, config)| SubseqMatcher::new(q, config).unwrap())
        .collect();
    let mut bank = MonitorBank::new(matchers.clone(), 1, f64::INFINITY).unwrap();
    let mid = hay.len() / 2;
    bank.process(&hay.values()[..mid]).unwrap();
    let state = |bank: &MonitorBank| -> Vec<_> {
        (0..bank.query_count())
            .map(|q| (bank.matches(q), *bank.stats(q), bank.candidate_count(q)))
            .collect()
    };
    let before = state(&bank);
    for bad in [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.7e308,
        -1.7e308,
    ] {
        let err = bank.push(bad).unwrap_err();
        if bad.is_finite() {
            let msg = err.to_string();
            assert!(msg.contains("too large for the squared metric"), "{msg}");
        } else {
            assert!(matches!(err, TsError::NonFinite { .. }), "{err}");
        }
        assert_eq!(bank.position(), mid as u64);
        assert_eq!(state(&bank), before);
    }
    bank.process(&hay.values()[mid..]).unwrap();
    for (q, matcher) in matchers.iter().enumerate() {
        let batch = matcher.search(&hay).run().unwrap().0;
        assert_same_matches(&bank.matches(q), &batch.matches, &format!("query {q}"));
    }
}

/// Raw windows inherit the haystack's magnitude, so samples whose DP
/// cost overflows `f64` are refused, by the batch search and by the
/// monitor alike, instead of answered at `+∞`.
#[test]
fn raw_searches_refuse_samples_too_large_for_the_metric() {
    let ds = UcrAnalog::Gun.generate(31);
    let mut values = ds.series[1].values().to_vec();
    values.extend([1.7e308; 200]);
    let hay = TimeSeries::new(values).unwrap();
    let raw = StreamConfig {
        z_normalize: false,
        ..StreamConfig::exact_banded(0.2)
    };
    let matcher = SubseqMatcher::new(&ds.series[0], raw).unwrap();
    for shards in [1, 3] {
        let err = matcher.search(&hay).k(2).shards(shards).run().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("too large for the squared metric"), "{msg}");
    }
    let mut bank = MonitorBank::new([matcher.clone()], 1, f64::INFINITY).unwrap();
    let err = bank.process(hay.values()).unwrap_err();
    assert!(err.to_string().contains("too large for the squared metric"));
    assert_eq!(bank.position(), ds.series[1].len() as u64);
    // z-normalised windows are bounded whatever the haystack holds
    let znorm = SubseqMatcher::new(&ds.series[0], StreamConfig::exact_banded(0.2)).unwrap();
    let found = znorm.search(&hay).k(2).run().unwrap().0;
    assert!(found.matches.iter().all(|m| m.distance.is_finite()));
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

    let plain = matcher.search(&hay).k(3).run().unwrap().0;
    let (traced, trace) = matcher.search(&hay).k(3).trace("q-serial").run().unwrap();
    let trace = trace.expect("a traced search returns its trace");
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
    let serial = matcher.search(&hay).k(3).tau(tau).run().unwrap().0;
    for shards in [1usize, 2, 3, 7] {
        let (result, t) = matcher
            .search(&hay)
            .k(3)
            .tau(tau)
            .shards(shards)
            .trace("q-sharded")
            .run()
            .unwrap();
        let t = t.expect("a traced search returns its trace");
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

/// One scratch lent to a traced search of a prepared haystack, then to
/// an untraced one, under a fixed band and under per-window sDTW bands:
/// both agree bit for bit with a search that lends nothing, matches and
/// counters alike, and the trace carries those counters.
#[test]
fn traced_and_untraced_searches_share_one_scratch() {
    let ds = UcrAnalog::Gun.generate(31);
    let query = TimeSeries::new(ds.series[0].values()[30..100].to_vec()).unwrap();
    let hay = haystack(&ds.series[1..4]);
    let mut scratch = DtwScratch::new();
    for (label, config) in [
        ("fixed band", banded_config(DtwOptions::default(), true)),
        ("sdtw bands", sdtw_band_config(DtwOptions::default(), true)),
    ] {
        let matcher = SubseqMatcher::new(&query, config).unwrap();
        let mut prepared = PreparedHaystack::new(&matcher);
        prepared.load(&hay);
        let fresh = matcher.search(&hay).k(3).run().unwrap().0;
        let search = matcher.search(&prepared).k(3).scratch(&mut scratch);
        let (traced, trace) = search.trace("lent").run().unwrap();
        let trace = trace.expect("a traced search returns its trace");
        let (plain, none) = matcher
            .search(&prepared)
            .k(3)
            .scratch(&mut scratch)
            .run()
            .unwrap();
        assert!(none.is_none(), "{label}: no trace was asked for");
        for got in [&traced, &plain] {
            assert_eq!(got.matches.len(), fresh.matches.len(), "{label}");
            for (a, b) in got.matches.iter().zip(&fresh.matches) {
                assert_eq!(a.offset, b.offset, "{label}: offsets");
                assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "{label}");
            }
            assert_eq!(got.stats, fresh.stats, "{label}: counters");
        }
        assert_eq!(trace.counters, fresh.stats, "{label}: the trace's counters");
    }
}

/// Banks of one and of two expose the same canonical trace: counters
/// snapshot the accumulated stats, spans appear once tracing is switched
/// on, and the merged trace folds per-query traces like `merged_stats`.
#[test]
fn monitor_and_bank_traces_snapshot_the_stream() {
    let ds = UcrAnalog::Trace.generate(12);
    let query = ds.series[0].clone();
    let hay = haystack(&ds.series[1..3]);
    let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();

    let mut monitor = MonitorBank::new([matcher.clone()], 1, f64::INFINITY).unwrap();
    monitor.set_tracing(true);
    monitor.process(hay.values()).unwrap();
    let stats = *monitor.stats(0);
    let trace = monitor.trace(0, "mon");
    assert_eq!(trace.counters, stats);
    assert_eq!(trace.shape.y_len, hay.len() as u64);
    assert!(trace.spans.iter().any(|s| s.phase == TracePhase::DpFill));
    assert!(
        monitor.trace(0, "mon-again").spans.is_empty(),
        "spans drain; a second snapshot starts empty"
    );

    let mut bank = MonitorBank::new([matcher.clone(), matcher], 1, f64::INFINITY).unwrap();
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
        let (_, trace) = matcher.search(&hay).k(2).trace("sweep").run().unwrap();
        let trace = trace.expect("a traced search returns its trace");
        assert!(trace.counters.cascade.candidates > 0);
        assert_eq!(has_plan(&trace.spans), plans, "sweep: {:?}", trace.spans);
        let (_, trace) = matcher
            .search(&hay)
            .k(2)
            .shards(2)
            .trace("sharded")
            .run()
            .unwrap();
        let trace = trace.expect("a traced search returns its trace");
        assert_eq!(has_plan(&trace.spans), plans, "sharded: {:?}", trace.spans);
        let mut monitor = MonitorBank::new([matcher], 1, f64::INFINITY).unwrap();
        monitor.set_tracing(true);
        monitor.process(hay.values()).unwrap();
        let trace = monitor.trace(0, "monitor");
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
    let (result, trace) = matcher.search(&hay).k(5).trace("serial").run().unwrap();
    let trace = trace.expect("a traced search returns its trace");
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
            .search(&hay)
            .k(5)
            .shards(shards)
            .trace("sharded")
            .run()
            .unwrap();
        let trace = trace.expect("a traced search returns its trace");
        assert_eq!(sharded.matches, result.matches, "shards={shards}");
        let planned = plans(&trace.spans);
        assert!(
            planned <= sharded.stats.windows,
            "shards={shards}: {planned} band plans for {} windows",
            sharded.stats.windows
        );
    }
}
