//! Quickstart: compute the full DTW and the sDTW (adaptive core &
//! adaptive width) distance between two warped instances of one pattern,
//! and compare cost and accuracy.
//!
//! Run with `cargo run --release --example quickstart`.

use sdtw_suite::prelude::*;

fn main() {
    // A pattern with two salient features...
    let proto = TimeSeries::new(
        (0..240)
            .map(|i| {
                let a = (i as f64 - 60.0) / 9.0;
                let b = (i as f64 - 170.0) / 15.0;
                (-a * a / 2.0).exp() + 0.6 * (-b * b / 2.0).exp()
            })
            .collect(),
    )
    .expect("finite samples");

    // ...and a time-warped sibling: the first half is compressed, so the
    // features drift far from the diagonal.
    let warp = WarpMap::from_anchors(&[(0.5, 0.36)]).expect("valid anchors");
    let x = proto.clone();
    let y = warp.apply(&proto, 240).expect("warp applies");

    // Reference: optimal DTW over the full grid.
    let full = dtw_full(&x, &y, &DtwOptions::default());
    println!(
        "full DTW        distance = {:10.4}   cells = {}",
        full.distance, full.cells_filled
    );

    // sDTW with the paper's best-performing policy (ac2,aw).
    let engine = SDtw::new(SDtwConfig {
        policy: ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
        ..SDtwConfig::default()
    })
    .expect("valid config");
    let out = engine.query(&x, &y).run().expect("extraction succeeds");
    println!(
        "sDTW (ac2,aw)   distance = {:10.4}   cells = {}   band coverage = {:.1}%",
        out.distance,
        out.cells_filled,
        out.band_coverage * 100.0
    );
    println!(
        "matching: {} raw pairs -> {} consistent pairs ({} descriptor comparisons)",
        out.raw_pairs, out.consistent_pairs, out.descriptor_comparisons
    );

    // A Sakoe-Chiba band of the same area class for comparison.
    let sakoe = SDtw::new(SDtwConfig {
        policy: ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.10 },
        ..SDtwConfig::default()
    })
    .expect("valid config");
    let sc = sakoe.query(&x, &y).run().expect("no extraction needed");
    println!(
        "Sakoe 10%       distance = {:10.4}   cells = {}",
        sc.distance, sc.cells_filled
    );

    let err = |d: f64| (d - full.distance) / full.distance.max(1e-12) * 100.0;
    println!(
        "\nrelative error vs optimal: sDTW {:+.2}%  |  Sakoe {:+.2}%",
        err(out.distance),
        err(sc.distance)
    );
    println!(
        "work saved vs full grid:   sDTW {:.1}%  |  Sakoe {:.1}%",
        (1.0 - out.cells_filled as f64 / full.cells_filled as f64) * 100.0,
        (1.0 - sc.cells_filled as f64 / full.cells_filled as f64) * 100.0
    );
}
