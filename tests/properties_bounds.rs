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
//!
//! The band-exact reversed LB_Keogh is held bit for bit to a per-column
//! reference of its definition, and to the DP distance itself, with no
//! tolerance, on random feasible bands of every shape, under every
//! kernel and both metrics.

mod common;

use common::{random_series, structured_series, TestRng};
use sdtw_suite::dtw::band::ColRange;
use sdtw_suite::dtw::engine::{dtw_run_options, DtwOptions, DtwScratch};
use sdtw_suite::dtw::lower_bound::{
    lb_keogh_band, lb_keogh_batch, lb_keogh_batch_windows, lb_keogh_values, lb_kim, lb_kim_batch,
    Envelope, RangeTable, SeriesSummary, LB_LANES,
};
use sdtw_suite::dtw::sakoe::{diagonal_column, sakoe_chiba_band};
use sdtw_suite::dtw::{Band, KernelChoice};
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
    // inside the envelope window. The standard symmetric1 kernel is the
    // regime the bounds are stated for; every configurable kernel
    // dominates its cost.
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

/// Every kernel the cascade prunes under, sym1 and amerced, on both
/// metrics.
fn bound_grid() -> Vec<DtwOptions> {
    let mut grid = Vec::new();
    for metric in METRICS {
        for kernel in [
            KernelChoice::Standard,
            KernelChoice::Amerced { penalty: 0.25 },
        ] {
            grid.push(DtwOptions {
                metric,
                kernel,
                ..DtwOptions::default()
            });
        }
    }
    grid
}

/// The band-exact bound of `(x, y)` on `band` under `opts`' metric.
fn band_bound(x: &[f64], y: &[f64], band: &Band, opts: &DtwOptions) -> f64 {
    lb_keogh_band(y, &RangeTable::build(x), band, opts.metric, &mut Vec::new())
}

/// The band-exact bound by its definition, one column at a time: the
/// rows from the first whose running maximum of `hi` reaches the column
/// to the last whose suffix minimum of `lo` is at most it, which must
/// hold every row that meets the column, and a plain min and max over
/// them.
fn band_bound_reference(y: &[f64], x: &[f64], band: &Band, metric: ElementMetric) -> f64 {
    let rows = band.rows();
    let mut acc = 0.0;
    for (j, &yj) in y.iter().enumerate() {
        let first = (0..rows.len())
            .find(|&i| rows[..=i].iter().any(|r| r.hi >= j))
            .expect("a feasible band reaches every column");
        let last = (0..rows.len())
            .rev()
            .find(|&i| rows[i..].iter().any(|r| r.lo <= j))
            .expect("a feasible band starts at column 0");
        for (i, r) in rows.iter().enumerate() {
            assert!(!r.contains(j) || (first..=last).contains(&i));
        }
        let lower = x[first..=last]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let upper = x[first..=last]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if yj > upper {
            acc += metric.eval(yj, upper);
        } else if yj < lower {
            acc += metric.eval(yj, lower);
        }
    }
    acc
}

/// A random feasible band over an `n × m` grid: rows of random
/// half-widths around a jittered diagonal, sanitised (ragged edges make
/// most of them non-staircase), a Sakoe-Chiba band (staircase), or the
/// full grid.
fn random_feasible_band(rng: &mut TestRng, n: usize, m: usize) -> Band {
    match rng.usize_in(0, 4) {
        0 => sakoe_chiba_band(n, m, rng.f64_in(0.02, 0.5)),
        1 => Band::full(n, m),
        _ => {
            let rows = (0..n)
                .map(|i| {
                    let c = (diagonal_column(i, n, m) + rng.usize_in(0, 7)).saturating_sub(3);
                    let c = c.min(m - 1);
                    ColRange::new(c.saturating_sub(rng.usize_in(0, 5)), c + rng.usize_in(0, 5))
                })
                .collect();
            Band::from_ranges(n, m, rows).sanitize()
        }
    }
}

#[test]
fn band_exact_reversed_keogh_never_exceeds_the_dp_distance() {
    let mut rng = TestRng::new(0xB0B5_0005);
    let mut scratch = DtwScratch::new();
    let (mut staircase, mut ragged, mut unequal) = (0, 0, 0);
    for case in 0..160 {
        let n = rng.usize_in(1, 60);
        let m = if rng.usize_in(0, 3) == 0 {
            n
        } else {
            rng.usize_in(1, 60)
        };
        let x: Vec<f64> = (0..n).map(|_| rng.f64_in(-3.0, 3.0)).collect();
        let y: Vec<f64> = (0..m).map(|_| rng.f64_in(-3.0, 3.0)).collect();
        let band = random_feasible_band(&mut rng, n, m);
        assert!(band.is_feasible());
        if band.is_staircase() {
            staircase += 1;
        } else {
            ragged += 1;
        }
        unequal += usize::from(n != m);
        for metric in METRICS {
            let got = lb_keogh_band(&y, &RangeTable::build(&x), &band, metric, &mut Vec::new());
            let want = band_bound_reference(&y, &x, &band, metric);
            assert_eq!(got.to_bits(), want.to_bits(), "case {case} {metric:?}");
        }
        for opts in bound_grid() {
            let dtw = dtw_run_options(&x, &y, &band, &opts, None, &mut scratch)
                .expect("no cutoff")
                .distance;
            let bound = band_bound(&x, &y, &band, &opts);
            assert!(
                bound <= dtw,
                "case {case} {n}x{m} {opts:?}: bound {bound} exceeds the DP distance {dtw}"
            );
        }
        // where the envelope form applies, the band-exact one is at
        // least as tight
        if n == m {
            let reach = band.reach();
            for radius in [reach, reach + 1, reach + rng.usize_in(0, 9)] {
                let env = Envelope::build_from_values(&x, radius);
                for metric in METRICS {
                    let envelope = lb_keogh_values(&y, &env, metric);
                    let exact =
                        lb_keogh_band(&y, &RangeTable::build(&x), &band, metric, &mut Vec::new());
                    assert!(
                        envelope <= exact,
                        "case {case}: envelope bound {envelope} above the band-exact {exact} \
                         (reach {reach}, radius {radius})"
                    );
                }
            }
        }
    }
    assert!(staircase > 10 && ragged > 10 && unequal > 10);
}

#[test]
fn band_exact_reversed_keogh_is_the_distance_on_the_diagonal() {
    // a one-cell-per-row band has one warp path, whose diagonal steps
    // pay the local cost alone under every kernel: the bound sums
    // exactly the path's costs in its order
    let mut rng = TestRng::new(0xB0B5_0006);
    let mut scratch = DtwScratch::new();
    for _ in 0..20 {
        let n = rng.usize_in(1, 50);
        let x: Vec<f64> = (0..n).map(|_| rng.f64_in(-3.0, 3.0)).collect();
        let y: Vec<f64> = (0..n).map(|_| rng.f64_in(-3.0, 3.0)).collect();
        let band = Band::from_ranges(n, n, (0..n).map(|i| ColRange::new(i, i)).collect());
        for opts in bound_grid() {
            let dtw = dtw_run_options(&x, &y, &band, &opts, None, &mut scratch)
                .expect("no cutoff")
                .distance;
            let bound = band_bound(&x, &y, &band, &opts);
            assert_eq!(bound.to_bits(), dtw.to_bits(), "{opts:?}");
        }
    }
}

#[test]
fn range_table_answers_every_range() {
    let mut rng = TestRng::new(0xB0B5_0007);
    for n in [1usize, 2, 3, 7, 8, 9, 33] {
        let v: Vec<f64> = (0..n).map(|_| rng.f64_in(-5.0, 5.0)).collect();
        let table = RangeTable::build(&v);
        assert_eq!(table.len(), n);
        for lo in 0..n {
            for hi in lo..n {
                let want = v[lo..=hi]
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &s| {
                        (a.min(s), b.max(s))
                    });
                assert_eq!(table.min_max(lo, hi), want, "n {n} range {lo}..={hi}");
            }
        }
    }
}
