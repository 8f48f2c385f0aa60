//! Differential harness: the shipped banded DP against a textbook dense
//! DP (`common::textbook_dtw`) over a seeded grid of kernels × band
//! families × cutoffs. Each configuration runs twice — without a warp
//! path (the lane wavefront) and with one (the row fill plus traceback) —
//! and both runs must agree with the textbook **bit for bit**: distance,
//! cells filled, and the early-abandon outcome (`None` exactly when the
//! textbook distance exceeds the cutoff). Every fill evaluates the same
//! per-cell kernel expression, so any drift here is an indexing bug in
//! the diagonal sweep (or a lane-interior bound error), never a tolerance
//! question. Path runs must also return a valid warp path that pays the
//! reported distance.
//!
//! The lock-step fill (`dtw_run_windows`) runs the same grid with one
//! to eight windows per call, one of them an exact duplicate: every lane
//! must carry its textbook distance bit for bit, and return `None`
//! exactly when that distance exceeds the cutoff.
//!
//! The full-grid screen that adaptive stream sweeps run before
//! extracting a window rests on one property, checked here over the same
//! grid: a lock-step fill of `Band::full` never exceeds the textbook
//! distance on the window's planned salient band, and abandons at a
//! cutoff only when that banded distance exceeds the cutoff too.
//!
//! The same harness drives the edge cases: degenerate lengths, bands
//! wider than the grid, all-equal series (maximal tie-path ambiguity),
//! non-staircase bands, and non-finite-input rejection.

mod common;

use common::{
    assert_lanes_agree, assert_runs_agree, lane_windows, structured_series, textbook_dtw, TestRng,
};
use sdtw_suite::core::{ConstraintPolicy, SDtw, SDtwConfig};
use sdtw_suite::dtw::band::ColRange;
use sdtw_suite::dtw::engine::{
    dtw_run_windows, DtwOptions, DtwScratch, Normalization, StepPattern,
};
use sdtw_suite::dtw::itakura::itakura_band;
use sdtw_suite::dtw::sakoe::sakoe_chiba_band;
use sdtw_suite::dtw::{Band, KernelChoice};
use sdtw_suite::salient::extract_features;
use sdtw_suite::tseries::{TimeSeries, TsError};

/// The three kernels the grid sweeps: standard symmetric1 (the paper's
/// recurrence), standard symmetric2 with the conventional normalisation,
/// and the amerced (ADTW) kernel.
fn kernel_grid() -> Vec<(&'static str, DtwOptions)> {
    let sym1 = DtwOptions::default();
    let sym2 = DtwOptions {
        step_pattern: StepPattern::Symmetric2,
        normalization: Normalization::LengthSum,
        ..DtwOptions::default()
    };
    let amerced = DtwOptions {
        kernel: KernelChoice::Amerced { penalty: 0.25 },
        ..DtwOptions::default()
    };
    vec![("sym1", sym1), ("sym2", sym2), ("amerced", amerced)]
}

/// The salient (sDTW) band of a pair, planned by the `fc,aw` policy from
/// freshly extracted descriptors — the band family the paper is about.
fn salient_band(x: &TimeSeries, y: &TimeSeries) -> Band {
    let config = SDtwConfig {
        policy: ConstraintPolicy::fixed_core_adaptive_width(),
        ..SDtwConfig::default()
    };
    let engine = SDtw::new(config.clone()).expect("valid config");
    let fx = extract_features(x, &config.salient).expect("finite series");
    let fy = extract_features(y, &config.salient).expect("finite series");
    let (band, _) = engine.plan_band(&fx, &fy, x.len(), y.len());
    if band.is_feasible() {
        band
    } else {
        band.sanitize()
    }
}

#[test]
fn wavefront_matches_rows_across_the_seeded_grid() {
    let mut rng = TestRng::new(0xD1FF_EE01);
    for pair in 0..4 {
        let x = structured_series(&mut rng);
        let y = structured_series(&mut rng);
        let (xv, yv) = (x.values(), y.values());
        let bands: Vec<(&str, Band)> = vec![
            ("sakoe", sakoe_chiba_band(x.len(), y.len(), 0.2)),
            ("itakura", itakura_band(x.len(), y.len(), 2.0)),
            ("salient", salient_band(&x, &y)),
        ];
        for (bname, band) in &bands {
            for (kname, opts) in kernel_grid() {
                let label = format!("pair {pair} band {bname} kernel {kname}");
                // no cutoff first — its distance seeds the cutoff cases
                let full = assert_runs_agree(xv, yv, band, &opts, None, &label)
                    .expect("no cutoff cannot abandon");
                // a generous cutoff (survives, including the tie) and a
                // tight one (must abandon): both decisions must agree
                for (cname, cutoff) in [
                    ("loose", full.distance * 1.5 + 1.0),
                    ("tie", full.distance),
                    ("tight", full.distance * 0.5 - 1e-9),
                ] {
                    let outcome = assert_runs_agree(
                        xv,
                        yv,
                        band,
                        &opts,
                        Some(cutoff),
                        &format!("{label} cutoff {cname}"),
                    );
                    match cname {
                        "tight" => assert!(outcome.is_none(), "tight cutoff must abandon"),
                        _ => assert!(outcome.is_some(), "cutoff at/above the distance survives"),
                    }
                }
            }
        }
    }
}

#[test]
fn lock_step_lanes_match_the_textbook_across_the_seeded_grid() {
    let mut rng = TestRng::new(0xD1FF_EE02);
    let mut scratch = DtwScratch::new();
    for pair in 0..4 {
        let x = structured_series(&mut rng);
        let y = structured_series(&mut rng);
        let windows = lane_windows(&mut rng, y.values(), 8);
        let views: Vec<&[f64]> = windows.iter().map(|w| w.as_slice()).collect();
        let bands: Vec<(&str, Band)> = vec![
            ("sakoe", sakoe_chiba_band(x.len(), y.len(), 0.2)),
            ("itakura", itakura_band(x.len(), y.len(), 2.0)),
            ("salient", salient_band(&x, &y)),
        ];
        for (bname, band) in &bands {
            for (kname, opts) in kernel_grid() {
                let want: Vec<f64> = views
                    .iter()
                    .map(|w| textbook_dtw(x.values(), w, band, &opts).0)
                    .collect();
                let (lo, hi) = want.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &d| {
                    (lo.min(d), hi.max(d))
                });
                for count in 1..=views.len() {
                    // "one" sits exactly on one lane's distance: that lane
                    // (and its duplicate) survive the tie, lanes above abandon
                    for (cname, cutoff) in [
                        ("none", f64::INFINITY),
                        ("loose", hi * 1.5 + 1.0),
                        ("one", want[count / 2]),
                        ("tight", lo * 0.5 - 1e-9),
                    ] {
                        assert_lanes_agree(
                            x.values(),
                            &views[..count],
                            &want[..count],
                            band,
                            &opts,
                            cutoff,
                            &mut scratch,
                            &format!("pair {pair} band {bname} kernel {kname} lanes {count} cutoff {cname}"),
                        );
                    }
                }
            }
        }
    }
}

/// The screen's admissibility: every planned band lies inside the full
/// grid, a superset of cells can only lower each DP cell, and rounding is
/// monotone, so the full-grid lane distance is at most the textbook
/// distance on the window's salient band, and a lane dies at a cutoff
/// only when the banded distance exceeds it as well.
#[test]
fn full_grid_lanes_lower_bound_the_salient_band() {
    let mut rng = TestRng::new(0xD1FF_EE03);
    let mut scratch = DtwScratch::new();
    for pair in 0..4 {
        let x = structured_series(&mut rng);
        let y = structured_series(&mut rng);
        let windows = lane_windows(&mut rng, y.values(), 8);
        let views: Vec<&[f64]> = windows.iter().map(|w| w.as_slice()).collect();
        let bands: Vec<Band> = windows
            .iter()
            .map(|w| salient_band(&x, &TimeSeries::new(w.clone()).expect("finite")))
            .collect();
        let grid = Band::full(x.len(), y.len());
        for (kname, opts) in kernel_grid() {
            let label = format!("pair {pair} kernel {kname}");
            let banded: Vec<f64> = views
                .iter()
                .zip(&bands)
                .map(|(w, band)| textbook_dtw(x.values(), w, band, &opts).0)
                .collect();
            let full = dtw_run_windows(
                x.values(),
                &views,
                &grid,
                &opts,
                f64::INFINITY,
                &mut scratch,
            );
            let full: Vec<f64> = full[..views.len()]
                .iter()
                .map(|d| d.expect("no cutoff never abandons"))
                .collect();
            for (l, (f, b)) in full.iter().zip(&banded).enumerate() {
                assert!(
                    f <= b,
                    "[{label}] lane {l}: full grid {f} above its band's {b}"
                );
            }
            // cutoffs on and between every lane's two distances, and
            // below all of them
            let mut cutoffs = vec![full.iter().fold(f64::INFINITY, |a, &d| a.min(d)) * 0.5];
            for (f, b) in full.iter().zip(&banded) {
                cutoffs.extend([*f, *b, 0.5 * (f + b)]);
            }
            for cutoff in cutoffs {
                let got = dtw_run_windows(x.values(), &views, &grid, &opts, cutoff, &mut scratch);
                for (l, lane) in got[..views.len()].iter().enumerate() {
                    match lane {
                        Some(d) => assert_eq!(d.to_bits(), full[l].to_bits(), "[{label}] lane {l}"),
                        None => assert!(
                            banded[l] > cutoff,
                            "[{label}] lane {l} died at {cutoff}, its band's distance {} is not above",
                            banded[l]
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn degenerate_lengths_agree_and_empty_inputs_are_rejected() {
    // length-1 × length-1 and length-1 × length-n: the wavefront's first
    // row/column special cases in their purest form
    for (xv, yv) in [
        (vec![2.5], vec![-1.0]),
        (vec![2.5], (0..40).map(|i| (i as f64 / 5.0).sin()).collect()),
        (
            (0..40).map(|i| (i as f64 / 7.0).cos()).collect(),
            vec![0.25],
        ),
    ] {
        let band = Band::full(xv.len(), yv.len());
        for (kname, opts) in kernel_grid() {
            assert_runs_agree(&xv, &yv, &band, &opts, None, &format!("degenerate {kname}"));
        }
    }
    // empty input never reaches either fill: the series type rejects it,
    // and so does the window query, with or without a path
    assert!(matches!(TimeSeries::new(vec![]), Err(TsError::Empty)));
    let engine = SDtw::new(SDtwConfig::default()).unwrap();
    for compute_path in [false, true] {
        let err = engine.query_window(&[], &[1.0]).path(compute_path).run();
        assert!(
            matches!(err, Err(TsError::Empty)),
            "path {compute_path}: empty windows must be rejected"
        );
    }
}

#[test]
fn bands_wider_than_the_grid_clamp_identically() {
    let x: Vec<f64> = (0..24).map(|i| (i as f64 / 3.0).sin()).collect();
    let y: Vec<f64> = (0..17).map(|i| (i as f64 / 4.0).cos()).collect();
    // a Sakoe radius beyond every row clamps to the full grid
    let band = sakoe_chiba_band(x.len(), y.len(), 5.0);
    assert_eq!(band.area(), Band::full(x.len(), y.len()).area());
    for (kname, opts) in kernel_grid() {
        assert_runs_agree(&x, &y, &band, &opts, None, &format!("overwide {kname}"));
    }
}

#[test]
fn all_equal_series_resolve_ties_identically() {
    // every cell costs 0 (squared metric): the DP is one giant tie and
    // the traceback's deterministic preference order is all that picks
    // the path — it must still be valid and pay the distance
    let x = vec![3.0; 20];
    let y = vec![3.0; 25];
    let band = Band::full(x.len(), y.len());
    for (kname, opts) in kernel_grid() {
        let r = assert_runs_agree(&x, &y, &band, &opts, None, &format!("ties {kname}"))
            .expect("no cutoff");
        let path = r.path.expect("path requested");
        // amerced pays a penalty per off-diagonal step, so only the
        // standard kernels yield exactly 0 here
        if !matches!(opts.kernel, KernelChoice::Amerced { .. }) {
            assert_eq!(r.distance.to_bits(), 0f64.to_bits(), "{kname}");
        }
        path.validate(x.len(), y.len())
            .unwrap_or_else(|e| panic!("{kname}: invalid tie path: {e}"));
    }
}

#[test]
fn non_staircase_bands_agree() {
    // a feasible band whose per-row spans regress (row 1 starts after
    // row 2) — the wavefront cannot use tight two-pointer spans and must
    // fall back to its conservative diagonal cover with per-cell
    // membership checks; results still match the textbook exactly
    let x: Vec<f64> = (0..4).map(|i| i as f64).collect();
    let y: Vec<f64> = (0..5).map(|i| (i as f64) * 0.5).collect();
    let band = Band::from_ranges(
        4,
        5,
        vec![
            ColRange::new(0, 4),
            ColRange::new(3, 4),
            ColRange::new(1, 4),
            ColRange::new(2, 4),
        ],
    );
    assert!(band.is_feasible(), "the test band must be DP-feasible");
    for (kname, opts) in kernel_grid() {
        for cutoff in [None, Some(1.0), Some(1e9)] {
            assert_runs_agree(
                &x,
                &y,
                &band,
                &opts,
                cutoff,
                &format!("non-staircase {kname}"),
            );
        }
    }
}

#[test]
fn non_finite_inputs_never_reach_the_engines() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(
            matches!(
                TimeSeries::new(vec![0.0, bad, 1.0]),
                Err(TsError::NonFinite { .. })
            ),
            "series construction must reject {bad}"
        );
    }
}
