//! Sakoe-Chiba bands — the paper's *fixed core & fixed width* baseline.
//!
//! The band follows the (length-corrected) main diagonal with a fixed
//! half-width. The width parameter follows the paper's convention: "each
//! point in the first time series is compared only to `w%` of the points in
//! the second time series" — i.e. a `width_frac` of 0.10 allows each `x_i`
//! to see roughly `0.10 · M` candidate columns.

use crate::band::{Band, ColRange};

/// Column of the length-corrected diagonal for row `i` of an `n × m` grid.
#[inline]
pub fn diagonal_column(i: usize, n: usize, m: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    // round-to-nearest of i*(m-1)/(n-1)
    (i * (m - 1) + (n - 1) / 2) / (n - 1)
}

/// Builds a Sakoe-Chiba band of total width `width_frac · m` (clamped to at
/// least one column each side so the band is never degenerate, and to the
/// full grid when `width_frac ≥ 1`). The result is sanitised (feasible).
///
/// # Panics
///
/// Panics when `n == 0 || m == 0` or `width_frac` is not finite/positive.
pub fn sakoe_chiba_band(n: usize, m: usize, width_frac: f64) -> Band {
    assert!(n > 0 && m > 0, "grid dimensions must be positive");
    assert!(
        width_frac.is_finite() && width_frac > 0.0,
        "width_frac must be finite and > 0, got {width_frac}"
    );
    if width_frac >= 1.0 {
        return Band::full(n, m);
    }
    let half = ((width_frac * m as f64) / 2.0).round().max(1.0) as usize;
    let ranges = (0..n)
        .map(|i| {
            let c = diagonal_column(i, n, m);
            ColRange::new(c.saturating_sub(half), (c + half).min(m - 1))
        })
        .collect();
    Band::sanitized(n, m, ranges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_column_endpoints() {
        assert_eq!(diagonal_column(0, 10, 20), 0);
        assert_eq!(diagonal_column(9, 10, 20), 19);
        assert_eq!(diagonal_column(0, 1, 5), 0);
    }

    #[test]
    fn diagonal_column_is_monotone() {
        let mut prev = 0;
        for i in 0..50 {
            let c = diagonal_column(i, 50, 37);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn band_is_feasible_and_centred() {
        let b = sakoe_chiba_band(100, 100, 0.1);
        assert!(b.is_feasible());
        assert!(b.contains(50, 50));
        assert!(!b.contains(50, 90));
        assert!(b.contains(0, 0));
        assert!(b.contains(99, 99));
    }

    #[test]
    fn width_scales_area() {
        let narrow = sakoe_chiba_band(200, 200, 0.06);
        let wide = sakoe_chiba_band(200, 200, 0.20);
        assert!(narrow.area() < wide.area());
        // 20% band covers roughly 20% of the grid (within rounding + clamp)
        let cov = wide.coverage();
        assert!((0.15..=0.27).contains(&cov), "coverage {cov}");
    }

    #[test]
    fn full_width_returns_full_band() {
        let b = sakoe_chiba_band(10, 12, 1.0);
        assert_eq!(b, Band::full(10, 12));
        let b = sakoe_chiba_band(10, 12, 7.0);
        assert_eq!(b, Band::full(10, 12));
    }

    #[test]
    fn tiny_fraction_still_leaves_connected_band() {
        let b = sakoe_chiba_band(64, 64, 0.001);
        assert!(b.is_feasible());
        // half-width clamps to 1, so each row has at least 2-3 columns
        for i in 0..64 {
            assert!(b.row(i).width() >= 2);
        }
    }

    #[test]
    fn unequal_lengths_follow_corrected_diagonal() {
        let b = sakoe_chiba_band(50, 100, 0.1);
        assert!(b.is_feasible());
        // middle row centred near column 50
        let mid = b.row(25);
        assert!(mid.lo <= 51 && 51 <= mid.hi, "row 25 = {mid:?}");
    }

    #[test]
    #[should_panic(expected = "width_frac")]
    fn rejects_zero_width() {
        let _ = sakoe_chiba_band(10, 10, 0.0);
    }

    #[test]
    fn one_by_one() {
        let b = sakoe_chiba_band(1, 1, 0.1);
        assert!(b.is_feasible());
        assert_eq!(b.area(), 1);
    }
}
