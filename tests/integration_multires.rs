//! Integration tests of the multi-resolution (FastDTW-style) extension and
//! its combination with sDTW bands — the paper's §2.1.4 remark that
//! reduced-representation solutions are orthogonal and composable.

use sdtw_suite::dtw::multires::{dtw_multires, multires_band};
use sdtw_suite::prelude::*;
use sdtw_suite::salient::feature::extract_features;

fn warped_pair() -> (TimeSeries, TimeSeries) {
    let proto = TimeSeries::new(
        (0..320)
            .map(|i| {
                let t = i as f64;
                let a = (t - 80.0) / 10.0;
                let b = (t - 230.0) / 14.0;
                (-a * a / 2.0).exp() + 0.7 * (-b * b / 2.0).exp() + 0.04 * (t / 13.0).sin()
            })
            .collect(),
    )
    .unwrap();
    let warp = WarpMap::from_anchors(&[(0.45, 0.34)]).unwrap();
    let y = warp.apply(&proto, 300).unwrap();
    (proto, y)
}

#[test]
fn multires_tracks_optimum_on_warped_pairs() {
    let (x, y) = warped_pair();
    let opts = DtwOptions::default();
    let exact = dtw_full(&x, &y, &opts);
    let fast = dtw_multires(&x, &y, 4, &opts);
    assert!(fast.distance >= exact.distance - 1e-9);
    // the corridor must be dramatically cheaper...
    assert!(fast.cells_filled * 4 < exact.cells_filled);
    // ...and nearly as accurate on this structured pair
    let excess = fast.distance - exact.distance;
    assert!(
        excess <= 0.1 * exact.distance.max(1e-9) + 1e-9,
        "excess {excess} over optimum {}",
        exact.distance
    );
}

#[test]
fn sdtw_band_intersected_with_corridor_is_cheaper_than_either() {
    let (x, y) = warped_pair();
    let opts = DtwOptions::default();
    let engine = SDtw::new(SDtwConfig {
        policy: ConstraintPolicy::adaptive_core_adaptive_width(),
        ..SDtwConfig::default()
    })
    .unwrap();
    let fx = extract_features(&x, &engine.config().salient).unwrap();
    let fy = extract_features(&y, &engine.config().salient).unwrap();
    let (sdtw_band, _) = engine.plan_band(&fx, &fy, x.len(), y.len());
    let corridor = multires_band(&x, &y, 2, &opts);
    let combined = sdtw_band.intersect(&corridor).sanitize();

    assert!(combined.is_feasible());
    assert!(
        combined.area() <= sdtw_band.area(),
        "intersection {} should not exceed the sDTW band {}",
        combined.area(),
        sdtw_band.area()
    );
    assert!(combined.area() <= corridor.area());

    // the combined band still completes and upper-bounds the optimum
    let exact = dtw_full(&x, &y, &opts).distance;
    let combined_result = sdtw_suite::dtw::engine::dtw_run_options(
        x.values(),
        y.values(),
        &combined,
        &opts,
        None,
        &mut sdtw_suite::dtw::DtwScratch::new(),
    )
    .expect("no cutoff configured");
    assert!(combined_result.distance.is_finite());
    assert!(combined_result.distance >= exact - 1e-9);
}

#[test]
fn multires_radius_sweeps_toward_exactness() {
    let (x, y) = warped_pair();
    let opts = DtwOptions::default();
    let exact = dtw_full(&x, &y, &opts).distance;
    let mut last = f64::INFINITY;
    for radius in [0usize, 2, 8, 32] {
        let fast = dtw_multires(&x, &y, radius, &opts).distance;
        assert!(fast >= exact - 1e-9);
        assert!(fast <= last + 1e-9, "radius {radius}: {fast} > {last}");
        last = fast;
    }
    // very large radius reproduces the optimum
    let wide = dtw_multires(&x, &y, 400, &opts).distance;
    assert!((wide - exact).abs() < 1e-9);
}

#[test]
fn multires_handles_degenerate_series() {
    let opts = DtwOptions::default();
    let one = TimeSeries::new(vec![1.0]).unwrap();
    let long = TimeSeries::new((0..200).map(|i| (i as f64 / 9.0).sin()).collect()).unwrap();
    let r = dtw_multires(&one, &long, 1, &opts);
    assert!(r.distance.is_finite());
    let c = TimeSeries::new(vec![3.0; 123]).unwrap();
    let r = dtw_multires(&c, &c, 1, &opts);
    assert_eq!(r.distance, 0.0);
}
