//! Differential grid for the rolling LB_Kim pass: the one-pass window
//! bounds of a `PreparedHaystack` against the push-based accumulators the
//! streaming monitors run (`WindowedStats` + `RollingExtrema`, fed one
//! sample at a time, then `SubseqMatcher::kim_bound`).
//!
//! The bar is bit identity: every window's bound (`None` where the stage
//! abstains) compared via `to_bits`, and the floor against the
//! per-window fold it replaced — deflate every bound by the guard, take
//! abstentions as 0, keep the minimum. The scans must then agree too:
//! sweeping a prepared haystack returns what sweeping the bare series
//! returns, counters included, and 1, 2, 3 and 7 shards return the
//! serial matches. Inputs are seeded haystacks — a random walk, a 10⁶
//! level shift, constant runs, and windows whose σ straddles the σ
//! floor at which the bound abstains — under query lengths 1, 2, 3, 17
//! and the whole haystack, with z-normalisation on and off, under the
//! symmetric1 and amerced kernels with both metrics. The pass's
//! arithmetic vectorises only in optimised builds, so this file also
//! runs under `--release`.

mod common;

use common::TestRng;
use sdtw_suite::prelude::*;
use sdtw_suite::stream::matcher::KIM_GUARD;
use sdtw_suite::stream::{PreparedHaystack, RollingExtrema};

/// The named seeded haystacks.
fn haystacks() -> Vec<(&'static str, TimeSeries)> {
    let mut rng = TestRng::new(17);
    let mut walk = Vec::with_capacity(420);
    let mut level = 0.0;
    for _ in 0..420 {
        level += rng.f64_in(-1.0, 1.0);
        walk.push(level);
    }
    // the shift lands mid-way between two re-centring refreshes of
    // every window length in the grid
    let shift: Vec<f64> = (0..400)
        .map(|i| 0.01 * (i as f64 / 3.0).sin() + if i >= 203 { 1e6 } else { 0.0 })
        .collect();
    let mut runs = Vec::with_capacity(400);
    while runs.len() < 400 {
        let value = rng.f64_in(-5.0, 5.0);
        let len = rng.usize_in(1, 60);
        runs.extend(std::iter::repeat_n(value, len));
        if rng.f64() < 0.5 {
            runs.push(value + rng.f64_in(-1.0, 1.0));
        }
    }
    runs.truncate(400);
    // σ ≈ amplitude/√3 around a level of 3, against the floor
    // 1e-9·(1 + 3): segments on both sides of it
    let mut tiny = Vec::with_capacity(400);
    for amplitude in [1e-10, 2e-9, 6e-9, 7e-9, 1e-8, 1e-7, 1e-9, 4e-9] {
        for _ in 0..50 {
            tiny.push(3.0 + amplitude * rng.f64_in(-1.0, 1.0));
        }
    }
    [
        ("random walk", walk),
        ("level shift", shift),
        ("constant runs", runs),
        ("sigma floor", tiny),
    ]
    .into_iter()
    .map(|(name, v)| (name, TimeSeries::new(v).unwrap()))
    .collect()
}

/// The kernels and metrics the bound is computed under.
fn kernel_grid() -> Vec<(&'static str, DtwOptions)> {
    vec![
        ("sym1", DtwOptions::default()),
        ("amerced", DtwOptions::amerced(0.25)),
        (
            "sym1-abs",
            DtwOptions {
                metric: ElementMetric::Absolute,
                ..DtwOptions::default()
            },
        ),
    ]
}

/// Every window's bound as the streaming monitors compute it: samples
/// pushed one at a time, the bound taken from the accumulators.
fn push_based_bounds(matcher: &SubseqMatcher, hay: &[f64]) -> Vec<Option<f64>> {
    let m = matcher.query_len();
    let mut moments = WindowedStats::new(m);
    let mut extrema = RollingExtrema::new(m);
    let mut bounds = Vec::new();
    for &v in hay {
        moments.push(v);
        extrema.push(v);
        if moments.is_full() {
            bounds.push(matcher.kim_bound(
                moments.front(),
                moments.back(),
                extrema.min(),
                extrema.max(),
                moments.moments(),
            ));
        }
    }
    bounds
}

/// The per-window floor fold the serve daemon used to run.
fn folded_floor(bounds: &[Option<f64>], z_normalize: bool) -> f64 {
    let guard = if z_normalize { KIM_GUARD } else { 0.0 };
    bounds
        .iter()
        .map(|kim| match kim {
            Some(kim) => ((kim * (1.0 - guard) - guard) / (1.0 + guard)).max(0.0),
            None => 0.0,
        })
        .fold(f64::INFINITY, f64::min)
}

fn bits(bounds: &[Option<f64>]) -> Vec<Option<u64>> {
    bounds.iter().map(|b| b.map(f64::to_bits)).collect()
}

#[test]
fn one_pass_bounds_equal_the_push_accumulators_and_scans_agree() {
    let mut rng = TestRng::new(5);
    for (name, hay) in haystacks() {
        let n = hay.len();
        // (abstaining, bounded) windows of the z-normalised runs
        let mut seen = (0usize, 0usize);
        for m in [1usize, 2, 3, 17, n] {
            let query = TimeSeries::new((0..m).map(|_| rng.f64_in(-2.0, 2.0)).collect()).unwrap();
            for (kname, dtw) in kernel_grid() {
                for z_normalize in [true, false] {
                    let base = StreamConfig::exact_banded(0.2);
                    let config = StreamConfig {
                        sdtw: SDtwConfig { dtw, ..base.sdtw },
                        z_normalize,
                        ..base
                    };
                    let ctx = format!("{name} m={m} {kname} z={z_normalize}");
                    let matcher = SubseqMatcher::new(&query, config).unwrap();
                    let mut prepared = PreparedHaystack::new(&matcher);
                    prepared.load(&hay);

                    let want = push_based_bounds(&matcher, hay.values());
                    assert_eq!(want.len(), n - m + 1, "{ctx}");
                    assert_eq!(bits(prepared.window_bounds()), bits(&want), "{ctx}");
                    assert_eq!(
                        prepared.floor().to_bits(),
                        folded_floor(&want, z_normalize).to_bits(),
                        "{ctx}: floor"
                    );
                    if z_normalize {
                        seen.0 += want.iter().filter(|b| b.is_none()).count();
                        seen.1 += want.iter().filter(|b| b.is_some()).count();
                    }

                    let k = 3;
                    let serial = matcher.search(&prepared).k(k).run().unwrap().0;
                    assert_eq!(
                        serial,
                        matcher.search(&hay).k(k).run().unwrap().0,
                        "{ctx}: bare series"
                    );
                    for shards in [1usize, 2, 3, 7] {
                        let sharded = matcher
                            .search(&prepared)
                            .k(k)
                            .shards(shards)
                            .run()
                            .unwrap()
                            .0;
                        assert_eq!(sharded.matches.len(), serial.matches.len(), "{ctx}");
                        for (a, b) in sharded.matches.iter().zip(&serial.matches) {
                            assert_eq!(a.offset, b.offset, "{ctx} shards={shards}");
                            assert_eq!(
                                a.distance.to_bits(),
                                b.distance.to_bits(),
                                "{ctx} shards={shards}"
                            );
                        }
                        if shards == 1 {
                            assert_eq!(sharded.stats, serial.stats, "{ctx}: one shard");
                        }
                    }
                }
            }
        }
        // the shift, the flat runs and the tiny σ each make some windows
        // abstain and leave others bounded
        if name != "random walk" {
            assert!(seen.0 > 0 && seen.1 > 0, "{name}: {seen:?}");
        }
    }
}

#[test]
fn reloading_a_prepared_haystack_equals_preparing_afresh() {
    let hays = haystacks();
    let query = TimeSeries::new((0..17).map(|i| (i as f64 / 4.0).sin()).collect()).unwrap();
    let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
    let mut reused = PreparedHaystack::new(&matcher);
    for (name, hay) in hays.iter().chain(hays.iter().rev()) {
        reused.load(hay);
        let mut fresh = PreparedHaystack::new(&matcher);
        fresh.load(hay);
        assert_eq!(
            bits(reused.window_bounds()),
            bits(fresh.window_bounds()),
            "{name}"
        );
        assert_eq!(reused.floor().to_bits(), fresh.floor().to_bits(), "{name}");
        assert_eq!(
            matcher.search(&reused).k(2).run().unwrap().0,
            matcher.search(hay).k(2).run().unwrap().0,
            "{name}: the reload searches the new series"
        );
    }
}
