//! Property tests over the DTW core invariants, run on seeded
//! pseudo-random inputs (deterministic — no framework, no wall-clock or
//! entropy dependence; see `tests/common/mod.rs`).

mod common;

use common::{random_series, TestRng};
use sdtw_suite::dtw::band::{Band, ColRange};
use sdtw_suite::dtw::itakura::itakura_band;
use sdtw_suite::dtw::sakoe::sakoe_chiba_band;
use sdtw_suite::prelude::*;

/// Shorthand: banded run to completion with a fresh scratch.
fn banded_distance(x: &TimeSeries, y: &TimeSeries, band: &Band, opts: &DtwOptions) -> f64 {
    dtw_run_options(
        x.values(),
        y.values(),
        band,
        opts,
        None,
        &mut DtwScratch::new(),
    )
    .expect("a run without a cutoff never abandons")
    .distance
}

/// A random (possibly infeasible) band over an `n × m` grid.
fn random_band(rng: &mut TestRng, n: usize, m: usize) -> Band {
    let ranges = (0..n)
        .map(|_| {
            let a = rng.usize_in(0, m);
            let b = rng.usize_in(0, m);
            ColRange::new(a.min(b), a.max(b))
        })
        .collect();
    Band::from_ranges(n, m, ranges)
}

#[test]
fn dtw_is_symmetric_on_random_series() {
    let mut rng = TestRng::new(1);
    let opts = DtwOptions::default();
    for case in 0..64 {
        let x = random_series(&mut rng);
        let y = random_series(&mut rng);
        let xy = dtw_full(&x, &y, &opts).distance;
        let yx = dtw_full(&y, &x, &opts).distance;
        assert!((xy - yx).abs() < 1e-9, "case {case}: {xy} vs {yx}");
    }
}

#[test]
fn dtw_self_distance_is_zero_and_distances_non_negative() {
    let mut rng = TestRng::new(2);
    let opts = DtwOptions::default();
    for case in 0..64 {
        let x = random_series(&mut rng);
        let d_self = dtw_full(&x, &x, &opts).distance;
        assert!(d_self.abs() < 1e-12, "case {case}: self-distance {d_self}");
        let y = random_series(&mut rng);
        let d = dtw_full(&x, &y, &opts).distance;
        assert!(d >= 0.0, "case {case}: negative distance {d}");
    }
}

#[test]
fn every_band_family_upper_bounds_exact_dtw() {
    // Sakoe-Chiba, Itakura, random raw bands, and the sDTW locally
    // relevant band: constrained search can never beat the full grid.
    let mut rng = TestRng::new(3);
    let opts = DtwOptions::default();
    let sdtw_engine = SDtw::new(SDtwConfig {
        policy: ConstraintPolicy::adaptive_core_adaptive_width(),
        ..SDtwConfig::default()
    })
    .unwrap();
    for case in 0..32 {
        let x = random_series(&mut rng);
        let y = random_series(&mut rng);
        let exact = dtw_full(&x, &y, &opts).distance;
        let checks: [(&str, f64); 4] = [
            (
                "sakoe",
                banded_distance(&x, &y, &sakoe_chiba_band(x.len(), y.len(), 0.2), &opts),
            ),
            (
                "itakura",
                banded_distance(&x, &y, &itakura_band(x.len(), y.len(), 2.0), &opts),
            ),
            (
                "random-band",
                banded_distance(&x, &y, &random_band(&mut rng, x.len(), y.len()), &opts),
            ),
            ("sdtw", sdtw_engine.query(&x, &y).run().unwrap().distance),
        ];
        for (name, banded) in checks {
            assert!(
                banded >= exact - 1e-9,
                "case {case}: {name} distance {banded} < exact {exact}"
            );
        }
    }
}

#[test]
fn full_width_sakoe_equals_full_dtw() {
    let mut rng = TestRng::new(4);
    let opts = DtwOptions::default();
    for case in 0..32 {
        let x = random_series(&mut rng);
        let y = random_series(&mut rng);
        let full = dtw_full(&x, &y, &opts).distance;
        let band = sakoe_chiba_band(x.len(), y.len(), 1.0);
        let banded = banded_distance(&x, &y, &band, &opts);
        assert!(
            (full - banded).abs() < 1e-12,
            "case {case}: {banded} vs {full}"
        );
    }
}

#[test]
fn warp_path_is_always_valid_and_costs_the_distance() {
    let mut rng = TestRng::new(5);
    let opts = DtwOptions::with_path();
    for case in 0..64 {
        let x = random_series(&mut rng);
        let y = random_series(&mut rng);
        let r = dtw_full(&x, &y, &opts);
        let p = r.path.expect("path requested");
        p.validate(x.len(), y.len())
            .unwrap_or_else(|e| panic!("case {case}: invalid path: {e}"));
        let cost = p.cost(&x, &y, ElementMetric::Squared);
        assert!(
            (cost - r.distance).abs() < 1e-6,
            "case {case}: path cost {cost} vs distance {}",
            r.distance
        );
    }
}

#[test]
fn sanitize_yields_feasible_superset_idempotently() {
    let mut rng = TestRng::new(6);
    for case in 0..128 {
        let n = rng.usize_in(2, 20);
        let m = rng.usize_in(2, 20);
        let band = random_band(&mut rng, n, m);
        let fixed = band.sanitize();
        assert!(fixed.is_feasible(), "case {case}: sanitize not feasible");
        assert!(
            band.is_subset_of(&fixed),
            "case {case}: sanitize dropped cells"
        );
        assert_eq!(fixed.sanitize(), fixed, "case {case}: not idempotent");
    }
}

#[test]
fn band_union_contains_both_operands() {
    let mut rng = TestRng::new(7);
    for case in 0..64 {
        let n = rng.usize_in(2, 20);
        let m = rng.usize_in(2, 20);
        let a = random_band(&mut rng, n, m);
        // reflected sibling of the same dimensions
        let b = Band::from_ranges(
            n,
            m,
            (0..n)
                .map(|i| {
                    let r = a.row(n - 1 - i);
                    ColRange::new(m - 1 - r.hi, m - 1 - r.lo)
                })
                .collect(),
        );
        let u = a.union(&b);
        assert!(a.is_subset_of(&u), "case {case}: lost a");
        assert!(b.is_subset_of(&u), "case {case}: lost b");
        assert!(u.area() >= a.area().max(b.area()), "case {case}");
    }
}

#[test]
fn warp_maps_are_monotone_and_fix_endpoints() {
    let mut rng = TestRng::new(8);
    for case in 0..64 {
        let anchor_x = rng.f64_in(0.1, 0.9);
        let anchor_y = rng.f64_in(0.1, 0.9);
        let w = WarpMap::from_anchors(&[(anchor_x, anchor_y)]).expect("single anchor valid");
        assert!(w.eval(0.0).abs() < 1e-12, "case {case}");
        assert!((w.eval(1.0) - 1.0).abs() < 1e-12, "case {case}");
        let mut prev = 0.0;
        for k in 0..=32 {
            let v = w.eval(k as f64 / 32.0);
            assert!(v >= prev - 1e-12, "case {case}: not monotone at {k}");
            prev = v;
        }
    }
}

#[test]
fn z_normalization_is_idempotent_up_to_eps() {
    use sdtw_suite::tseries::transform::z_normalize;
    let mut rng = TestRng::new(9);
    for case in 0..64 {
        let x = random_series(&mut rng);
        let z1 = z_normalize(&x);
        let z2 = z_normalize(&z1);
        for (a, b) in z1.values().iter().zip(z2.values()) {
            assert!((a - b).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn incremental_window_moments_match_batch_statistics() {
    // the streaming accumulator behind the rolling LB_Kim: across random
    // pushes (mixed scales and offsets, crossing many refresh cycles) the
    // O(1) windowed mean/std must stay within 1e-9 of the batch
    // stats::mean / stats::std_dev of the same window
    use sdtw_suite::tseries::stats::{mean, std_dev};
    let mut rng = TestRng::new(31);
    for case in 0..16 {
        let capacity = rng.usize_in(2, 64);
        let offset = rng.f64_in(-500.0, 500.0);
        let scale = rng.f64_in(0.01, 20.0);
        let len = rng.usize_in(capacity, 1200);
        let stream: Vec<f64> = (0..len)
            .map(|_| offset + scale * rng.f64_in(-1.0, 1.0))
            .collect();
        let mut w = WindowedStats::new(capacity);
        for (t, &v) in stream.iter().enumerate() {
            let evicted = w.push(v);
            assert_eq!(evicted.is_some(), t >= capacity, "case {case} eviction");
            let lo = (t + 1).saturating_sub(capacity);
            let window = &stream[lo..=t];
            assert_eq!(w.len(), window.len());
            assert!(
                (w.mean() - mean(window)).abs() <= 1e-9 * (1.0 + mean(window).abs()),
                "case {case}: mean drifted at {t}"
            );
            assert!(
                (w.std_dev() - std_dev(window)).abs() <= 1e-9 * (1.0 + std_dev(window)),
                "case {case}: std drifted at {t} ({} vs {})",
                w.std_dev(),
                std_dev(window)
            );
        }
    }
}

#[test]
fn pruned_matches_are_always_rank_consistent() {
    use sdtw_suite::align::matcher::MatchedPair;
    use sdtw_suite::align::prune::{committed_boundaries, prune_inconsistent};
    let mut rng = TestRng::new(10);
    for case in 0..200 {
        let pairs = rng.usize_in(1, 30);
        let raw: Vec<MatchedPair> = (0..pairs)
            .map(|k| {
                let a = rng.usize_in(0, 200);
                let b = a + 1 + rng.usize_in(0, 50);
                let c = rng.usize_in(0, 200);
                let d = c + 1 + rng.usize_in(0, 50);
                MatchedPair {
                    idx1: k,
                    idx2: k,
                    desc_distance: 0.0,
                    combined_score: 1.0 / (k + 1) as f64,
                    scope1: (a, b),
                    scope2: (c, d),
                }
            })
            .collect();
        let kept = prune_inconsistent(&raw);
        let (b1, b2) = committed_boundaries(&kept);
        assert_eq!(b1.len(), b2.len(), "case {case}");
        for p in &kept {
            for (v1, v2) in [(p.scope1.0, p.scope2.0), (p.scope1.1, p.scope2.1)] {
                let lo1 = b1.partition_point(|&x| x < v1);
                let hi1 = b1.partition_point(|&x| x <= v1);
                let lo2 = b2.partition_point(|&x| x < v2);
                let hi2 = b2.partition_point(|&x| x <= v2);
                assert!(
                    lo1 <= hi2 && lo2 <= hi1,
                    "case {case}: ranks diverge [{lo1},{hi1}] vs [{lo2},{hi2}]"
                );
            }
        }
    }
}

#[test]
fn every_policy_produces_finite_upper_bounds() {
    let mut rng = TestRng::new(11);
    let policies = [
        ConstraintPolicy::FullGrid,
        ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.2 },
        ConstraintPolicy::Itakura { slope: 2.0 },
        ConstraintPolicy::fixed_core_adaptive_width(),
        ConstraintPolicy::adaptive_core_fixed_width(0.2),
        ConstraintPolicy::adaptive_core_adaptive_width(),
    ];
    for case in 0..18 {
        let x = random_series(&mut rng);
        let y = random_series(&mut rng);
        let policy = policies[case % policies.len()];
        let engine = SDtw::new(SDtwConfig {
            policy,
            ..SDtwConfig::default()
        })
        .unwrap();
        let out = engine.query(&x, &y).run().unwrap();
        let full = dtw_full(&x, &y, &DtwOptions::default()).distance;
        assert!(out.distance.is_finite(), "case {case} ({})", policy.label());
        assert!(
            out.distance >= full - 1e-9,
            "case {case} ({}): {} < {full}",
            policy.label(),
            out.distance
        );
        assert!(
            out.cells_filled >= x.len().max(y.len()),
            "case {case} ({})",
            policy.label()
        );
    }
}
