//! Cross-crate integration tests: the full sDTW pipeline against ground
//! truth produced by known warp maps.

use sdtw_suite::align::{match_features, MatchConfig};
use sdtw_suite::prelude::*;
use sdtw_suite::salient::feature::extract_features;

/// Two warped instances of a proto with three distinct features, plus the
/// warp that relates them.
fn ground_truth_pair() -> (TimeSeries, TimeSeries, WarpMap) {
    let proto = TimeSeries::new(
        (0..220)
            .map(|i| {
                let t = i as f64;
                let a = (t - 45.0) / 6.0;
                let b = (t - 120.0) / 10.0;
                let c = (t - 185.0) / 8.0;
                (-a * a / 2.0).exp() - 0.8 * (-b * b / 2.0).exp() + 0.6 * (-c * c / 2.0).exp()
            })
            .collect(),
    )
    .unwrap();
    let warp = WarpMap::from_anchors(&[(0.35, 0.25), (0.7, 0.62)]).unwrap();
    let y = warp.apply(&proto, 240).unwrap();
    (proto, y, warp)
}

#[test]
fn features_match_across_the_warp() {
    let (x, y, _) = ground_truth_pair();
    let cfg = SalientConfig::default();
    let fx = extract_features(&x, &cfg).unwrap();
    let fy = extract_features(&y, &cfg).unwrap();
    assert!(fx.len() >= 3, "X features: {}", fx.len());
    assert!(fy.len() >= 3, "Y features: {}", fy.len());
    let result = match_features(&fx, &fy, x.len(), y.len(), &MatchConfig::default());
    assert!(
        !result.consistent_pairs.is_empty(),
        "warped copies of the same pattern must produce consistent matches"
    );
    // consistency invariant: committed boundary lists are rank-aligned
    let part = &result.partition;
    assert_eq!(part.cuts_x().len(), part.cuts_y().len());
    assert!(part.cuts_x().windows(2).all(|w| w[0] <= w[1]));
    assert!(part.cuts_y().windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn adaptive_core_follows_the_true_warp() {
    let (x, y, warp) = ground_truth_pair();
    let engine = SDtw::new(SDtwConfig {
        policy: ConstraintPolicy::adaptive_core_adaptive_width(),
        ..SDtwConfig::default()
    })
    .unwrap();
    let fx = extract_features(&x, &engine.config().salient).unwrap();
    let fy = extract_features(&y, &engine.config().salient).unwrap();
    let (band, _) = engine.plan_band(&fx, &fy, x.len(), y.len());

    // The true correspondence of sample i of X is where the inverse warp
    // sends it in Y. The adaptive band must contain (or nearly contain)
    // that cell for the vast majority of rows.
    let mut hits = 0usize;
    let n = x.len();
    let m = y.len();
    for i in 0..n {
        let t = i as f64 / (n - 1) as f64;
        let j = (warp.inverse().eval(t) * (m - 1) as f64).round() as usize;
        if band.contains(i, j.min(m - 1)) {
            hits += 1;
        }
    }
    let hit_rate = hits as f64 / n as f64;
    assert!(
        hit_rate > 0.85,
        "true warp path inside the adaptive band only {:.1}% of rows",
        hit_rate * 100.0
    );
}

#[test]
fn sdtw_distance_close_to_optimal_despite_pruning() {
    // The pair is noise-free, so the optimal distance is close to zero and
    // relative errors are ill-conditioned; the meaningful claims are
    // comparative: the adaptive band's excess over the optimum must be a
    // small fraction of the thin fixed band's excess, at real pruning.
    let (x, y, _) = ground_truth_pair();
    let optimal = dtw_full(&x, &y, &DtwOptions::default()).distance;
    let run = |policy: ConstraintPolicy| {
        SDtw::new(SDtwConfig {
            policy,
            ..SDtwConfig::default()
        })
        .unwrap()
        .query(&x, &y)
        .run()
        .unwrap()
    };
    let adaptive = run(ConstraintPolicy::adaptive_core_adaptive_width_averaged());
    let fixed = run(ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.06 });
    let adaptive_excess = adaptive.distance - optimal;
    let fixed_excess = fixed.distance - optimal;
    assert!(adaptive_excess >= -1e-9);
    assert!(
        adaptive_excess < fixed_excess * 0.2,
        "adaptive excess {adaptive_excess} should be well below fixed excess {fixed_excess}"
    );
    assert!(
        adaptive.band_coverage < 0.9,
        "band should prune a meaningful grid fraction, covered {:.1}%",
        adaptive.band_coverage * 100.0
    );
}

#[test]
fn pipeline_handles_degenerate_inputs_end_to_end() {
    let engine = SDtw::new(SDtwConfig::default()).unwrap();
    // single-sample vs long series
    let x = TimeSeries::new(vec![1.0]).unwrap();
    let y = TimeSeries::new((0..64).map(|i| (i as f64 / 5.0).sin()).collect()).unwrap();
    let out = engine.query(&x, &y).run().unwrap();
    assert!(out.distance.is_finite());
    // two constant series
    let c1 = TimeSeries::new(vec![2.0; 50]).unwrap();
    let c2 = TimeSeries::new(vec![3.0; 70]).unwrap();
    let out = engine.query(&c1, &c2).run().unwrap();
    assert!(out.distance.is_finite());
    assert_eq!(out.consistent_pairs, 0);
    // identical short series
    let s = TimeSeries::new(vec![0.0, 1.0, 0.0]).unwrap();
    let out = engine.query(&s, &s).run().unwrap();
    assert_eq!(out.distance, 0.0);
}

#[test]
fn feature_store_integrates_with_engine() {
    let (x, y, _) = ground_truth_pair();
    let x = x.identified(1);
    let y = y.identified(2);
    let engine = SDtw::new(SDtwConfig::default()).unwrap();
    let store = FeatureStore::new(engine.config().salient.clone()).unwrap();
    let fx = store.features_for(&x).unwrap();
    let fy = store.features_for(&y).unwrap();
    let cached = engine.query(&x, &y).features(&fx, &fy).run().unwrap();
    let uncached = engine.query(&x, &y).run().unwrap();
    assert_eq!(cached.distance, uncached.distance);
    assert_eq!(store.cached_count(), 2);
}

#[test]
fn ucr_io_round_trip_preserves_distances() {
    let ds = UcrAnalog::Gun.generate(3);
    let corpus = &ds.series[..4];
    let mut buf = Vec::new();
    sdtw_suite::tseries::io::write_ucr(&mut buf, corpus).unwrap();
    let back = sdtw_suite::tseries::io::read_ucr(buf.as_slice()).unwrap();
    assert_eq!(back.len(), 4);
    let opts = DtwOptions::default();
    for (a, b) in corpus.iter().zip(&back) {
        assert_eq!(a.label(), b.label());
        // distances survive the text round trip to printed-f64 precision
        let d = dtw_full(a, b, &opts).distance;
        assert!(d < 1e-12, "round-tripped series differs: DTW {d}");
    }
}
