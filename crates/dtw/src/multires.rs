//! Multi-resolution (coarse-to-fine) DTW — the reduced-representation
//! speedup family the paper cites as orthogonal to sDTW (§2.1.4, refs
//! [2, 8, 18]; the algorithm here follows Salvador & Chan's FastDTW).
//!
//! The recursion: shrink both series by 2, solve that problem (recursively),
//! project the resulting warp path back to full resolution, widen it by a
//! `radius`, and run the banded kernel inside the projected corridor. Cost
//! is `O((N + M) · radius)` per level. Like every banded method the result
//! upper-bounds the optimum; larger radii trade time for accuracy.
//!
//! The paper notes sDTW "can naturally be implemented along with reduced
//! representation based solutions"; [`multires_band`] exposes the corridor
//! as a [`Band`], so it can be intersected/unioned with an sDTW band — the
//! combination is exercised by the ablation benchmarks.

use crate::band::{Band, ColRange};
use crate::engine::{dtw_run_options, DtwOptions, DtwResult, DtwScratch};
use crate::path::WarpPath;
use sdtw_tseries::TimeSeries;

/// Minimum problem size solved exactly (full grid) at the recursion base.
const BASE_SIZE: usize = 16;

/// Computes the multi-resolution DTW distance with the given corridor
/// `radius` (FastDTW's radius parameter; 1–2 is customary, larger is more
/// accurate): [`multires_band`], then one banded run inside it.
///
/// Always returns a warp path when `opts.compute_path` is set; the path is
/// optimal *within the corridor*.
pub fn dtw_multires(x: &TimeSeries, y: &TimeSeries, radius: usize, opts: &DtwOptions) -> DtwResult {
    let band = multires_band(x, y, radius, opts);
    dtw_run_options(
        x.values(),
        y.values(),
        &band,
        opts,
        None,
        &mut DtwScratch::new(),
    )
    .expect("a run without a cutoff never abandons")
}

/// The coarse-to-fine corridor band for a pair (without the final DP run).
///
/// The recursion is unrolled into an explicit pyramid walk — shrink to
/// the base size, then run the coarse DP and project one level at a
/// time — so one DP scratch threads through every level of the call.
/// The sequence of arithmetic operations is unchanged, so the corridor
/// (and any distance computed inside it) is bit-identical to the
/// recursive formulation.
pub fn multires_band(x: &TimeSeries, y: &TimeSeries, radius: usize, opts: &DtwOptions) -> Band {
    // Shrink pyramid, finest coarse level first (`levels[0]` is the
    // half-resolution pair; level 0 — the inputs — stays borrowed).
    let mut levels: Vec<(TimeSeries, TimeSeries)> = Vec::new();
    loop {
        let (px, py) = match levels.last() {
            None => (x, y),
            Some((a, b)) => (a, b),
        };
        if px.len() <= BASE_SIZE || py.len() <= BASE_SIZE {
            break;
        }
        let halved = (shrink_half(px), shrink_half(py));
        levels.push(halved);
    }

    // The recursion base: the coarsest level is solved on the full grid.
    let (bn, bm) = match levels.last() {
        None => (x.len(), y.len()),
        Some((a, b)) => (a.len(), b.len()),
    };
    let mut band = Band::full(bn, bm);

    // Unwind: solve each coarse level inside its corridor, project the
    // warp path one level finer, widen by `radius`.
    let mut scratch = DtwScratch::new();
    for k in (0..levels.len()).rev() {
        let (cx, cy) = &levels[k];
        let coarse = dtw_run_options(
            cx.values(),
            cy.values(),
            &band,
            &DtwOptions {
                metric: opts.metric,
                compute_path: true,
                ..*opts
            },
            None,
            &mut scratch,
        )
        .expect("a run without a cutoff never abandons");
        let path = coarse.path.expect("path requested");
        let (fine_n, fine_m) = match k {
            0 => (x.len(), y.len()),
            _ => (levels[k - 1].0.len(), levels[k - 1].1.len()),
        };
        band = project_path(&path, fine_n, fine_m, radius);
    }
    band
}

/// Halves a series by averaging adjacent samples (odd tails keep the last
/// sample as-is).
fn shrink_half(ts: &TimeSeries) -> TimeSeries {
    let v = ts.values();
    let mut out = Vec::with_capacity(v.len() / 2 + 1);
    let mut i = 0;
    while i + 1 < v.len() {
        out.push(0.5 * (v[i] + v[i + 1]));
        i += 2;
    }
    if i < v.len() {
        out.push(v[i]);
    }
    TimeSeries::new(out).expect("halving preserves finiteness")
}

/// Projects a coarse warp path onto the `n × m` grid and widens it by
/// `radius` cells in every direction, producing a feasible corridor band.
fn project_path(path: &WarpPath, n: usize, m: usize, radius: usize) -> Band {
    // each coarse cell (i, j) covers fine rows 2i..2i+1, cols 2j..2j+1
    let mut lo = vec![usize::MAX; n];
    let mut hi = vec![0usize; n];
    let mut touch = |i: usize, j_lo: usize, j_hi: usize| {
        if i < n {
            lo[i] = lo[i].min(j_lo.min(m - 1));
            hi[i] = hi[i].max(j_hi.min(m - 1));
        }
    };
    for &(ci, cj) in path.steps() {
        let j_lo = (2 * cj).saturating_sub(radius);
        let j_hi = 2 * cj + 1 + radius;
        for di in 0..2 {
            let fi = 2 * ci + di;
            let fi_lo = fi.saturating_sub(radius);
            let fi_hi = fi + radius;
            for i in fi_lo..=fi_hi {
                touch(i, j_lo, j_hi);
            }
        }
    }
    let ranges = (0..n)
        .map(|i| {
            if lo[i] == usize::MAX {
                // row untouched (possible at odd tails): seed the diagonal
                let c = if n > 1 { i * (m - 1) / (n - 1) } else { 0 };
                ColRange::new(c, c)
            } else {
                ColRange::new(lo[i], hi[i])
            }
        })
        .collect();
    Band::sanitized(n, m, ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::dtw_full;

    fn wavy(n: usize, phase: f64, stretch: f64) -> TimeSeries {
        TimeSeries::new(
            (0..n)
                .map(|i| {
                    let t = i as f64 * stretch;
                    (t / 11.0 + phase).sin() + 0.3 * (t / 29.0).cos()
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn shrink_half_averages_pairs() {
        let ts = TimeSeries::new(vec![0.0, 2.0, 4.0, 6.0, 9.0]).unwrap();
        let s = shrink_half(&ts);
        assert_eq!(s.values(), &[1.0, 5.0, 9.0]);
        let even = shrink_half(&TimeSeries::new(vec![1.0, 3.0]).unwrap());
        assert_eq!(even.values(), &[2.0]);
    }

    #[test]
    fn small_inputs_solve_exactly() {
        let x = wavy(12, 0.0, 1.0);
        let y = wavy(14, 0.5, 1.0);
        let opts = DtwOptions::default();
        let exact = dtw_full(&x, &y, &opts).distance;
        let fast = dtw_multires(&x, &y, 1, &opts).distance;
        assert!((exact - fast).abs() < 1e-12);
    }

    #[test]
    fn upper_bounds_and_approaches_the_optimum_with_radius() {
        let x = wavy(200, 0.0, 1.0);
        let y = wavy(200, 0.9, 1.07);
        let opts = DtwOptions::default();
        let exact = dtw_full(&x, &y, &opts).distance;
        let mut prev_err = f64::INFINITY;
        for radius in [1usize, 4, 16] {
            let fast = dtw_multires(&x, &y, radius, &opts);
            assert!(fast.distance >= exact - 1e-9);
            let err = fast.distance - exact;
            assert!(
                err <= prev_err + 1e-9,
                "error must not grow with radius: {err} after {prev_err}"
            );
            prev_err = err;
        }
        // a modest radius should already be close
        let fast = dtw_multires(&x, &y, 8, &opts).distance;
        assert!(
            (fast - exact) <= 0.05 * exact.max(1e-9) + 1e-9,
            "radius 8 error too large: {fast} vs {exact}"
        );
    }

    #[test]
    fn fills_far_fewer_cells_than_full_grid() {
        let x = wavy(512, 0.0, 1.0);
        let y = wavy(512, 1.3, 1.0);
        let opts = DtwOptions::default();
        let fast = dtw_multires(&x, &y, 2, &opts);
        assert!(
            fast.cells_filled < 512 * 512 / 5,
            "corridor filled {} cells",
            fast.cells_filled
        );
    }

    #[test]
    fn produces_valid_paths() {
        let x = wavy(130, 0.0, 1.0);
        let y = wavy(170, 0.7, 1.1);
        let r = dtw_multires(&x, &y, 2, &DtwOptions::with_path());
        r.path.unwrap().validate(130, 170).unwrap();
    }

    #[test]
    fn identical_series_still_zero() {
        let x = wavy(256, 0.0, 1.0);
        let r = dtw_multires(&x, &x, 1, &DtwOptions::default());
        assert!(r.distance.abs() < 1e-12);
    }

    #[test]
    fn corridor_band_is_feasible_and_narrow() {
        let x = wavy(300, 0.0, 1.0);
        let y = wavy(300, 0.4, 1.0);
        let band = multires_band(&x, &y, 2, &DtwOptions::default());
        assert!(band.is_feasible());
        assert!(band.coverage() < 0.2, "coverage {:.3}", band.coverage());
    }

    /// The historical recursive formulation (fresh scratch at every
    /// level), kept as the reference the pyramid walk must reproduce
    /// bit-for-bit.
    fn reference_band(x: &TimeSeries, y: &TimeSeries, radius: usize, opts: &DtwOptions) -> Band {
        let n = x.len();
        let m = y.len();
        if n <= BASE_SIZE || m <= BASE_SIZE {
            return Band::full(n, m);
        }
        let xc = shrink_half(x);
        let yc = shrink_half(y);
        let coarse_band = reference_band(&xc, &yc, radius, opts);
        let coarse = dtw_run_options(
            xc.values(),
            yc.values(),
            &coarse_band,
            &DtwOptions {
                metric: opts.metric,
                compute_path: true,
                ..*opts
            },
            None,
            &mut DtwScratch::new(),
        )
        .expect("a run without a cutoff never abandons");
        let path = coarse.path.expect("path requested");
        project_path(&path, n, m, radius)
    }

    #[test]
    fn pyramid_walk_is_bit_identical_to_the_recursive_formulation() {
        for opts in [
            DtwOptions::default(),
            DtwOptions::with_path(),
            DtwOptions::amerced(0.1),
        ] {
            for (n, m, radius) in [(40, 40, 1), (130, 170, 2), (257, 300, 4), (12, 300, 1)] {
                let x = wavy(n, 0.0, 1.0);
                let y = wavy(m, 0.7, 1.09);
                let reference = reference_band(&x, &y, radius, &opts);
                let walked = multires_band(&x, &y, radius, &opts);
                assert_eq!(reference, walked, "corridor diverged at {n}x{m} r{radius}");
                let r_ref = dtw_run_options(
                    x.values(),
                    y.values(),
                    &reference,
                    &opts,
                    None,
                    &mut DtwScratch::new(),
                )
                .unwrap();
                let r_new = dtw_multires(&x, &y, radius, &opts);
                assert_eq!(r_ref.distance.to_bits(), r_new.distance.to_bits());
                assert_eq!(r_ref.cells_filled, r_new.cells_filled);
                assert_eq!(r_ref.path, r_new.path);
            }
        }
    }
}
