//! Serde round-trips of the public configuration and result types —
//! experiment outputs are archived as JSON, so these must stay stable.

use sdtw_suite::prelude::*;

#[test]
fn sdtw_config_round_trips() {
    let cfg = SDtwConfig {
        policy: ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
        symmetry: BandSymmetry::Union,
        ..SDtwConfig::default()
    };
    let json = serde_json::to_string(&cfg).unwrap();
    let back: SDtwConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(cfg, back);
}

#[test]
fn outcome_round_trips() {
    let proto = TimeSeries::new((0..100).map(|i| (i as f64 / 9.0).sin()).collect()).unwrap();
    let engine = SDtw::new(SDtwConfig::default()).unwrap();
    let out = engine.query(&proto, &proto).run().unwrap();
    let json = serde_json::to_string(&out).unwrap();
    let back: SDtwOutcome = serde_json::from_str(&json).unwrap();
    assert_eq!(out.cells_filled, back.cells_filled);
    assert_eq!(out.distance, back.distance);
}

#[test]
fn policy_labels_survive_round_trip() {
    for policy in [
        ConstraintPolicy::FullGrid,
        ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.06 },
        ConstraintPolicy::Itakura { slope: 2.0 },
        ConstraintPolicy::fixed_core_adaptive_width(),
        ConstraintPolicy::adaptive_core_fixed_width(0.1),
        ConstraintPolicy::adaptive_core_adaptive_width(),
        ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
    ] {
        let json = serde_json::to_string(&policy).unwrap();
        let back: ConstraintPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(policy.label(), back.label());
    }
}

#[test]
fn dataset_round_trips_via_json() {
    let ds = UcrAnalog::Gun.generate(3);
    let json = serde_json::to_string(&ds).unwrap();
    let back: Dataset = serde_json::from_str(&json).unwrap();
    assert_eq!(ds.series.len(), back.series.len());
    assert_eq!(ds.class_count(), back.class_count());
    for (a, b) in ds.series.iter().zip(&back.series) {
        assert_eq!(a.label(), b.label());
        assert_eq!(a.id(), b.id());
        assert_eq!(a.len(), b.len());
    }
}

#[test]
fn warp_path_round_trips() {
    let x = TimeSeries::new(vec![0.0, 1.0, 2.0]).unwrap();
    let y = TimeSeries::new(vec![0.0, 2.0]).unwrap();
    let r = dtw_full(&x, &y, &DtwOptions::with_path());
    let p = r.path.unwrap();
    let json = serde_json::to_string(&p).unwrap();
    let back: WarpPath = serde_json::from_str(&json).unwrap();
    assert_eq!(p, back);
    back.validate(3, 2).unwrap();
}
