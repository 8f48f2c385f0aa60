//! Itakura parallelogram — the classic slope-constrained band (paper
//! Figure 2(c)).
//!
//! The warp path's local slope is bounded by `slope` (and `1/slope`): in
//! normalised coordinates `u = i/(N−1)`, `v = j/(M−1)` the feasible region
//! is the intersection of
//!
//! * `v ≤ slope · u` and `v ≥ u / slope` (cone from the lower-left corner),
//! * `v ≥ 1 − slope · (1 − u)` and `v ≤ 1 − (1 − u)/slope` (cone into the
//!   upper-right corner),
//!
//! which is a parallelogram-shaped region pinched at both corners.

use crate::band::{Band, ColRange};

/// Builds the Itakura parallelogram band for an `n × m` grid with the given
/// maximum local slope (conventionally 2.0). The band is sanitised, so it
/// is always feasible even for extreme length ratios.
///
/// # Panics
///
/// Panics when `n == 0 || m == 0` or `slope <= 1` (a slope of exactly 1
/// admits only the diagonal, which is empty off the diagonal for `n != m`).
pub fn itakura_band(n: usize, m: usize, slope: f64) -> Band {
    assert!(n > 0 && m > 0, "grid dimensions must be positive");
    assert!(
        slope.is_finite() && slope > 1.0,
        "slope must be finite and > 1, got {slope}"
    );
    if n == 1 || m == 1 {
        return Band::full(n, m);
    }
    let nf = (n - 1) as f64;
    let mf = (m - 1) as f64;
    let ranges = (0..n)
        .map(|i| {
            let u = i as f64 / nf;
            // lower bounds on v
            let lb = (u / slope).max(1.0 - slope * (1.0 - u));
            // upper bounds on v
            let ub = (slope * u).min(1.0 - (1.0 - u) / slope);
            let lo = (lb * mf).floor().max(0.0) as usize;
            let hi = (ub * mf).ceil().min(mf) as usize;
            if lo <= hi {
                ColRange::new(lo, hi)
            } else {
                // numerically pinched row: seed with the diagonal cell and
                // let sanitisation bridge it
                let c = (u * mf).round() as usize;
                ColRange::new(c.min(m - 1), c.min(m - 1))
            }
        })
        .collect();
    Band::sanitized(n, m, ranges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinched_at_corners_wide_in_middle() {
        let b = itakura_band(101, 101, 2.0);
        assert!(b.is_feasible());
        assert!(b.row(0).width() <= 3);
        assert!(b.row(100).width() <= 3);
        let mid = b.row(50);
        assert!(mid.width() > 20, "middle width {}", mid.width());
    }

    #[test]
    fn respects_slope_bounds_away_from_corners() {
        let n = 101;
        let b = itakura_band(n, n, 2.0);
        // at u = 0.25 the reachable v range is [0.125, 0.5]
        let r = b.row(25);
        assert!(r.lo >= 11 && r.lo <= 14, "lo = {}", r.lo);
        assert!(r.hi >= 49 && r.hi <= 51, "hi = {}", r.hi);
    }

    #[test]
    fn contains_the_diagonal() {
        let b = itakura_band(60, 60, 2.0);
        for i in 0..60 {
            assert!(b.contains(i, i), "diagonal cell ({i},{i}) missing");
        }
    }

    #[test]
    fn larger_slope_means_larger_area() {
        let tight = itakura_band(80, 80, 1.5);
        let loose = itakura_band(80, 80, 3.0);
        assert!(tight.area() < loose.area());
    }

    #[test]
    fn smaller_than_full_grid() {
        let b = itakura_band(100, 100, 2.0);
        assert!(b.coverage() < 0.8);
    }

    #[test]
    fn unequal_lengths_are_feasible() {
        for (n, m) in [(30, 90), (90, 30), (7, 200)] {
            let b = itakura_band(n, m, 2.0);
            assert!(b.is_feasible(), "infeasible for {n}x{m}");
        }
    }

    #[test]
    fn degenerate_single_row_or_column() {
        assert!(itakura_band(1, 50, 2.0).is_feasible());
        assert!(itakura_band(50, 1, 2.0).is_feasible());
    }

    #[test]
    #[should_panic(expected = "slope")]
    fn rejects_slope_of_one() {
        let _ = itakura_band(10, 10, 1.0);
    }
}
