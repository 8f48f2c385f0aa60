//! Properties of the batched lower-bound lanes: the chunked
//! `lb_keogh`/`lb_kim` passes must be **bit-identical** to their scalar
//! counterparts across every batch width (full lanes, sub-lane batches,
//! ragged tails), and the bounds themselves must stay admissible — at or
//! below the true constrained DTW distance — on seeded data.
//!
//! Bit-identity is the load-bearing property: the retrieval cascade and
//! the stream sweeps substitute a batched bound for the scalar one
//! mid-pipeline, and exactness of kNN/subsequence results is argued from
//! "the cascade cannot tell which implementation produced the number".

mod common;

use common::{random_series, structured_series, TestRng};
use sdtw_suite::dtw::engine::{dtw_run_options, DtwOptions, DtwScratch};
use sdtw_suite::dtw::lower_bound::{
    lb_keogh_batch, lb_keogh_batch_windows, lb_keogh_values, lb_kim, lb_kim_batch, Envelope,
    SeriesSummary, LB_LANES,
};
use sdtw_suite::dtw::sakoe::sakoe_chiba_band;
use sdtw_suite::tseries::{ElementMetric, TimeSeries};

/// The batch widths under test: a single lane, one short of a lane, one
/// exact lane, one lane plus a ragged tail of one, and a multi-chunk run
/// (all relative to `LB_LANES == 8`).
const WIDTHS: [usize; 5] = [1, 7, 8, 9, 64];

const METRICS: [ElementMetric; 2] = [ElementMetric::Squared, ElementMetric::Absolute];

#[test]
fn lane_width_assumption_holds() {
    // WIDTHS is phrased around the 8-lane layout; if LB_LANES ever
    // changes, re-derive the interesting widths instead of silently
    // testing less
    assert_eq!(LB_LANES, 8, "update WIDTHS for the new lane count");
}

#[test]
fn batched_keogh_matches_scalar_across_widths() {
    let mut rng = TestRng::new(0xB0B5_0001);
    for &count in &WIDTHS {
        for metric in METRICS {
            let n = rng.usize_in(8, 48);
            let x: Vec<f64> = (0..n).map(|_| rng.f64_in(-5.0, 5.0)).collect();
            let candidates: Vec<Vec<f64>> = (0..count)
                .map(|_| (0..n).map(|_| rng.f64_in(-5.0, 5.0)).collect())
                .collect();
            let envelopes: Vec<Envelope> = candidates
                .iter()
                .map(|c| Envelope::build_from_values(c, rng.usize_in(0, n)))
                .collect();
            let env_refs: Vec<&Envelope> = envelopes.iter().collect();
            let mut batched = Vec::new();
            lb_keogh_batch(&x, &env_refs, metric, &mut batched);
            assert_eq!(batched.len(), count);
            for (i, env) in envelopes.iter().enumerate() {
                let scalar = lb_keogh_values(&x, env, metric);
                assert_eq!(
                    batched[i].to_bits(),
                    scalar.to_bits(),
                    "count {count} lane {i} {metric:?}: batched {} vs scalar {scalar}",
                    batched[i]
                );
            }
        }
    }
}

#[test]
fn batched_window_keogh_matches_scalar_across_widths() {
    let mut rng = TestRng::new(0xB0B5_0002);
    for &count in &WIDTHS {
        for metric in METRICS {
            let m = rng.usize_in(8, 40);
            let query: Vec<f64> = (0..m).map(|_| rng.f64_in(-5.0, 5.0)).collect();
            let env = Envelope::build_from_values(&query, rng.usize_in(0, m));
            // overlapping windows of one long buffer — the stream layout
            let hay: Vec<f64> = (0..m + count).map(|_| rng.f64_in(-5.0, 5.0)).collect();
            let windows: Vec<&[f64]> = (0..count).map(|w| &hay[w..w + m]).collect();
            let mut batched = Vec::new();
            lb_keogh_batch_windows(&windows, &env, metric, &mut batched);
            assert_eq!(batched.len(), count);
            for (w, window) in windows.iter().enumerate() {
                let scalar = lb_keogh_values(window, &env, metric);
                assert_eq!(
                    batched[w].to_bits(),
                    scalar.to_bits(),
                    "count {count} window {w} {metric:?}"
                );
            }
        }
    }
}

#[test]
fn batched_kim_matches_scalar_across_widths() {
    let mut rng = TestRng::new(0xB0B5_0003);
    for &count in &WIDTHS {
        for metric in METRICS {
            let x = SeriesSummary::of(&random_series(&mut rng));
            // mixed lengths: LB_Kim allows them, and the lane pass must
            // not assume a shared length
            let ys: Vec<SeriesSummary> = (0..count)
                .map(|_| SeriesSummary::of(&random_series(&mut rng)))
                .collect();
            let mut batched = Vec::new();
            lb_kim_batch(&x, &ys, metric, &mut batched);
            assert_eq!(batched.len(), count);
            for (i, y) in ys.iter().enumerate() {
                let scalar = lb_kim(&x, y, metric);
                assert_eq!(
                    batched[i].to_bits(),
                    scalar.to_bits(),
                    "count {count} lane {i} {metric:?}"
                );
            }
        }
    }
}

#[test]
fn bounds_stay_admissible_on_seeded_pairs() {
    // LB ≤ true DTW, under the exact conditions the cascade relies on:
    // LB_Kim against any feasible band, LB_Keogh when the band sits
    // inside the envelope window. The standard symmetric1 kernel with raw
    // (unnormalised) accumulation is the regime the bounds are stated
    // for — the same one the cascade enforces via
    // `lower_bounds_admissible`.
    let mut rng = TestRng::new(0xB0B5_0004);
    let mut scratch = DtwScratch::new();
    let opts = DtwOptions::default();
    for case in 0..24 {
        let x = structured_series(&mut rng);
        let n = x.len();
        // equal lengths: the Keogh stage requires them
        let y = {
            let vals: Vec<f64> = (0..n).map(|_| rng.f64_in(-1.5, 1.5)).collect();
            TimeSeries::new(vals).unwrap()
        };
        let radius = rng.usize_in(1, n);
        let env_y = Envelope::build(&y, radius);
        let band = {
            let b = sakoe_chiba_band(n, n, radius as f64 / n as f64);
            if b.is_feasible() {
                b
            } else {
                b.sanitize()
            }
        };
        let dtw = dtw_run_options(x.values(), y.values(), &band, &opts, None, &mut scratch)
            .expect("no cutoff")
            .distance;

        let kim = lb_kim(&SeriesSummary::of(&x), &SeriesSummary::of(&y), opts.metric);
        assert!(
            kim <= dtw,
            "case {case}: LB_Kim {kim} exceeds the DTW distance {dtw}"
        );

        if band.within_window(env_y.radius) {
            let keogh = lb_keogh_values(x.values(), &env_y, opts.metric);
            assert!(
                keogh <= dtw,
                "case {case}: LB_Keogh {keogh} exceeds the DTW distance {dtw} \
                 (radius {radius}, band inside the window)"
            );
            // and the batched lane produces that very bound
            let mut batched = Vec::new();
            lb_keogh_batch(x.values(), &[&env_y], opts.metric, &mut batched);
            assert_eq!(batched[0].to_bits(), keogh.to_bits(), "case {case}");
        }
    }
}
