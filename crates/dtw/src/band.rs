//! Band representation: one allowed column interval per grid row.
//!
//! A band over an `N × M` DTW grid stores, for each row `i` (an element of
//! the first series `X`), the inclusive interval of columns `j` (elements of
//! the second series `Y`) the warp path may visit. Bands are the common
//! currency of every pruning policy in this repository.

use serde::{Deserialize, Serialize};

/// Inclusive column interval `[lo, hi]` for one grid row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColRange {
    /// First allowed column.
    pub lo: usize,
    /// Last allowed column (inclusive).
    pub hi: usize,
}

impl ColRange {
    /// Constructs a range, normalising an inverted pair.
    pub fn new(lo: usize, hi: usize) -> Self {
        if lo <= hi {
            Self { lo, hi }
        } else {
            Self { lo: hi, hi: lo }
        }
    }

    /// Number of columns in the range.
    #[inline]
    pub fn width(&self) -> usize {
        self.hi - self.lo + 1
    }

    /// Whether the range contains column `j`.
    #[inline]
    pub fn contains(&self, j: usize) -> bool {
        self.lo <= j && j <= self.hi
    }
}

/// A band over an `N × M` grid: `rows[i]` is the allowed column interval of
/// row `i`. Invariants (enforced by constructors): `rows.len() == n`, every
/// range is within `[0, m)`.
///
/// A band is *feasible* when the DP recurrence can complete: row 0 contains
/// column 0, row `n-1` contains column `m-1`, and a monotone warp path can
/// thread the rows. [`Band::sanitize`] turns any band into a feasible one by
/// only ever widening ranges (so the sanitised band is a superset — pruning
/// decisions made by a constraint builder are never reversed, gaps are
/// bridged exactly as the paper requires in §3.3.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Band {
    n: usize,
    m: usize,
    rows: Vec<ColRange>,
}

impl Band {
    /// Builds a band from per-row ranges, clamping every range into
    /// `[0, m)`.
    ///
    /// # Panics
    ///
    /// Panics when `ranges.len() != n`, or `n == 0`, or `m == 0` — these are
    /// programmer errors, not data errors.
    pub fn from_ranges(n: usize, m: usize, ranges: Vec<ColRange>) -> Self {
        assert!(n > 0 && m > 0, "band dimensions must be positive");
        assert_eq!(ranges.len(), n, "one range per row required");
        let rows = ranges
            .into_iter()
            .map(|r| ColRange::new(r.lo.min(m - 1), r.hi.min(m - 1)))
            .collect();
        Self { n, m, rows }
    }

    /// The full (unconstrained) band: every row allows every column.
    pub fn full(n: usize, m: usize) -> Self {
        assert!(n > 0 && m > 0, "band dimensions must be positive");
        Self {
            n,
            m,
            rows: vec![ColRange { lo: 0, hi: m - 1 }; n],
        }
    }

    /// Number of rows (`N`, length of `X`).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of columns (`M`, length of `Y`).
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Range of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> ColRange {
        self.rows[i]
    }

    /// All ranges.
    pub fn rows(&self) -> &[ColRange] {
        &self.rows
    }

    /// Whether cell `(i, j)` is inside the band.
    #[inline]
    pub fn contains(&self, i: usize, j: usize) -> bool {
        i < self.n && self.rows[i].contains(j)
    }

    /// Whether both band edges are non-decreasing row over row (a
    /// "staircase" band). Every classic constraint family — full grid,
    /// Sakoe-Chiba, Itakura — and most sanitised sDTW bands have this
    /// shape; the wavefront engine exploits it to enumerate each
    /// anti-diagonal's cells as one tight, hole-free row interval without
    /// per-cell membership tests.
    pub fn is_staircase(&self) -> bool {
        self.rows
            .windows(2)
            .all(|w| w[0].lo <= w[1].lo && w[0].hi <= w[1].hi)
    }

    /// Number of grid cells inside the band — the work the DP kernel will
    /// do. This is the deterministic cost proxy reported throughout the
    /// experiments.
    pub fn area(&self) -> usize {
        self.rows.iter().map(|r| r.width()).sum()
    }

    /// Fraction of the full grid covered by the band, in `(0, 1]`.
    pub fn coverage(&self) -> f64 {
        self.area() as f64 / (self.n as f64 * self.m as f64)
    }

    /// Pointwise union with another band of the same dimensions. Used for
    /// the symmetric variant of the adaptive constraints (paper §3.3.3:
    /// "performing the dynamic programming step using a combined band").
    ///
    /// Because each row holds a single interval, the union of two intervals
    /// is their convex hull — a superset of the set union, which keeps the
    /// result representable and errs on the side of *less* pruning (never
    /// worse accuracy).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn union(&self, other: &Band) -> Band {
        assert_eq!(
            (self.n, self.m),
            (other.n, other.m),
            "band dimensions must match"
        );
        let rows = self
            .rows
            .iter()
            .zip(&other.rows)
            .map(|(a, b)| ColRange {
                lo: a.lo.min(b.lo),
                hi: a.hi.max(b.hi),
            })
            .collect();
        Band {
            n: self.n,
            m: self.m,
            rows,
        }
    }

    /// Whether every band row stays inside the symmetric `±radius`
    /// Sakoe-Chiba window (`j ∈ [i − radius, i + radius]` for every
    /// in-band cell `(i, j)`).
    ///
    /// This is the containment condition under which an LB_Keogh envelope
    /// of radius `radius` soundly lower-bounds the banded DTW distance:
    /// the envelope tube dominates every alignment the band can make.
    /// Retrieval cascades (`sdtw-index`, `sdtw-stream`) consult it before
    /// enabling their LB_Keogh stages. Callers comparing equal-length
    /// series should additionally require `n == m` (the classic LB_Keogh
    /// formulation); this method checks only the window containment.
    ///
    /// It is `self.reach() <= radius`. Callers that test one band against
    /// several radii compute [`Band::reach`] once instead.
    pub fn within_window(&self, radius: usize) -> bool {
        self.reach() <= radius
    }

    /// The smallest radius whose Sakoe-Chiba window contains the band:
    /// `max_i max(i − lo_i, hi_i − i)`, each difference saturating at 0.
    /// One O(n) walk; [`Band::within_window`] compares it to a radius.
    pub fn reach(&self) -> usize {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, r)| i.saturating_sub(r.lo).max(r.hi.saturating_sub(i)))
            .max()
            .unwrap_or(0)
    }

    /// Transposes the band: the result constrains the `M × N` grid of
    /// `(Y, X)` with exactly the cells `(j, i)` for in-band `(i, j)` —
    /// except that per-row storage forces each transposed row to the convex
    /// hull of its column set. Used to combine asymmetric adaptive bands.
    #[must_use]
    pub fn transpose(&self) -> Band {
        let mut lo = vec![usize::MAX; self.m];
        let mut hi = vec![0usize; self.m];
        for (i, r) in self.rows.iter().enumerate() {
            for j in r.lo..=r.hi {
                lo[j] = lo[j].min(i);
                hi[j] = hi[j].max(i);
            }
        }
        // Columns never touched by the band get a minimal placeholder range
        // on the main diagonal; sanitisation will bridge them.
        let rows = (0..self.m)
            .map(|j| {
                if lo[j] == usize::MAX {
                    let diag = if self.m > 1 {
                        j * (self.n - 1) / (self.m - 1).max(1)
                    } else {
                        0
                    };
                    ColRange::new(diag.min(self.n - 1), diag.min(self.n - 1))
                } else {
                    ColRange::new(lo[j], hi[j])
                }
            })
            .collect();
        Band {
            n: self.m,
            m: self.n,
            rows,
        }
    }

    /// Checks feasibility: row 0 contains column 0, the last row contains
    /// the last column, and every consecutive row pair admits a monotone
    /// step (`lo[i] ≤ hi[i-1] + 1` and the running reachable left edge
    /// stays inside every row).
    pub fn is_feasible(&self) -> bool {
        if self.rows[0].lo != 0 || self.rows[self.n - 1].hi != self.m - 1 {
            return false;
        }
        // Simulate reachability: a_i = left edge of the reachable suffix of
        // row i (see sanitize for the invariant argument).
        let mut a = self.rows[0].lo;
        for i in 1..self.n {
            let prev = self.rows[i - 1];
            let cur = self.rows[i];
            if cur.lo > prev.hi + 1 {
                return false;
            }
            let entry = a.max(cur.lo);
            if entry > cur.hi || entry > prev.hi + 1 {
                return false;
            }
            a = entry;
        }
        true
    }

    /// Makes the band feasible by minimally widening ranges:
    ///
    /// 1. row 0 is extended to contain column 0, the last row to contain
    ///    the last column;
    /// 2. whenever `lo[i] > hi[i-1] + 1` (a gap the warp path could not
    ///    jump), `lo[i]` is pulled down to `hi[i-1] + 1` — this is the
    ///    paper's gap bridging;
    /// 3. whenever the running reachable left edge `a` exceeds `hi[i]`,
    ///    `hi[i]` is raised to `a` (the row would otherwise sit entirely to
    ///    the left of anything reachable).
    ///
    /// The result always contains the input band and satisfies
    /// [`Band::is_feasible`].
    #[must_use]
    pub fn sanitize(&self) -> Band {
        Band::sanitized(self.n, self.m, self.rows.clone())
    }

    /// [`Band::from_ranges`] followed by [`Band::sanitize`], done in
    /// place: one pass over `ranges` clamps each row into `[0, m)` and
    /// widens it as the sanitiser would, so the band builders allocate
    /// their rows once. Bit-identical to the two calls.
    ///
    /// # Panics
    ///
    /// Same as [`Band::from_ranges`].
    pub fn sanitized(n: usize, m: usize, mut ranges: Vec<ColRange>) -> Self {
        assert!(n > 0 && m > 0, "band dimensions must be positive");
        assert_eq!(ranges.len(), n, "one range per row required");
        // `a` is the reachable left edge of the previous row; row 0,
        // which starts at column 0, passes both tests unchanged
        let (mut a, mut prev_hi) = (0, 0);
        for (i, r) in ranges.iter_mut().enumerate() {
            let mut row = ColRange::new(r.lo.min(m - 1), r.hi.min(m - 1));
            if i == 0 {
                row.lo = 0;
            }
            if i == n - 1 {
                row.hi = m - 1;
            }
            if row.lo > prev_hi + 1 {
                row.lo = prev_hi + 1;
            }
            let entry = a.max(row.lo);
            if entry > row.hi {
                row.hi = entry;
            }
            a = entry;
            prev_hi = row.hi;
            *r = row;
        }
        let out = Band { n, m, rows: ranges };
        debug_assert!(out.is_feasible(), "sanitize must produce a feasible band");
        out
    }

    /// Whether `other` covers at least every cell of `self`.
    pub fn is_subset_of(&self, other: &Band) -> bool {
        self.n == other.n
            && self.m == other.m
            && self
                .rows
                .iter()
                .zip(&other.rows)
                .all(|(a, b)| b.lo <= a.lo && a.hi <= b.hi)
    }

    /// Renders the band as ASCII art (rows printed top-to-bottom as in the
    /// paper's Figure 10, i.e. the last row of `X` first), `#` for in-band
    /// cells. Intended for examples and debugging, capped at 80×80.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        let max_dim = 80;
        let row_step = self.n.div_ceil(max_dim);
        let col_step = self.m.div_ceil(max_dim);
        for i_chunk in (0..self.n).step_by(row_step.max(1)).rev() {
            for j_chunk in (0..self.m).step_by(col_step.max(1)) {
                let mut hit = false;
                'scan: for i in i_chunk..(i_chunk + row_step).min(self.n) {
                    for j in j_chunk..(j_chunk + col_step).min(self.m) {
                        if self.contains(i, j) {
                            hit = true;
                            break 'scan;
                        }
                    }
                }
                out.push(if hit { '#' } else { '.' });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn band(n: usize, m: usize, ranges: &[(usize, usize)]) -> Band {
        Band::from_ranges(
            n,
            m,
            ranges
                .iter()
                .map(|&(lo, hi)| ColRange::new(lo, hi))
                .collect(),
        )
    }

    #[test]
    fn staircase_detection() {
        assert!(Band::full(4, 6).is_staircase());
        assert!(band(3, 8, &[(0, 2), (1, 4), (3, 7)]).is_staircase());
        // lo dips back down between rows: feasible, but not a staircase
        assert!(!band(3, 8, &[(0, 7), (3, 7), (1, 7)]).is_staircase());
        // hi regresses
        assert!(!band(3, 8, &[(0, 6), (0, 4), (0, 7)]).is_staircase());
    }

    #[test]
    fn col_range_normalises_and_measures() {
        let r = ColRange::new(5, 2);
        assert_eq!((r.lo, r.hi), (2, 5));
        assert_eq!(r.width(), 4);
        assert!(r.contains(2) && r.contains(5) && !r.contains(6));
    }

    #[test]
    fn full_band_covers_everything() {
        let b = Band::full(3, 4);
        assert_eq!(b.area(), 12);
        assert!((b.coverage() - 1.0).abs() < 1e-12);
        assert!(b.is_feasible());
        assert!(b.contains(2, 3));
        assert!(!b.contains(3, 0));
    }

    #[test]
    fn from_ranges_clamps_to_grid() {
        let b = band(2, 3, &[(0, 99), (1, 99)]);
        assert_eq!(b.row(0), ColRange { lo: 0, hi: 2 });
        assert_eq!(b.row(1), ColRange { lo: 1, hi: 2 });
    }

    #[test]
    #[should_panic(expected = "one range per row")]
    fn from_ranges_requires_matching_len() {
        let _ = Band::from_ranges(3, 3, vec![ColRange::new(0, 1)]);
    }

    #[test]
    fn area_and_coverage() {
        let b = band(3, 5, &[(0, 1), (1, 3), (4, 4)]);
        assert_eq!(b.area(), 2 + 3 + 1);
        assert!((b.coverage() - 6.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn feasibility_detects_missing_corners() {
        let b = band(3, 3, &[(1, 2), (0, 2), (0, 2)]);
        assert!(!b.is_feasible()); // (0,0) missing
        let b = band(3, 3, &[(0, 2), (0, 2), (0, 1)]);
        assert!(!b.is_feasible()); // (2,2) missing
    }

    #[test]
    fn feasibility_detects_gaps() {
        // row1 starts at column 2 but row0 ends at column 0: unjumpable
        let b = band(3, 4, &[(0, 0), (2, 3), (3, 3)]);
        assert!(!b.is_feasible());
        let fixed = b.sanitize();
        assert!(fixed.is_feasible());
        assert!(b.is_subset_of(&fixed));
    }

    #[test]
    fn sanitize_bridges_backward_jumps() {
        // row1 sits entirely left of anything reachable from row0
        let b = band(3, 6, &[(3, 5), (0, 1), (4, 5)]);
        let fixed = b.sanitize();
        assert!(fixed.is_feasible());
        assert!(b.is_subset_of(&fixed));
        // row0 must now include column 0
        assert_eq!(fixed.row(0).lo, 0);
    }

    #[test]
    fn sanitize_is_idempotent_on_feasible_bands() {
        let b = Band::full(5, 7);
        assert_eq!(b.sanitize(), b);
        let diag = band(4, 4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert!(diag.is_feasible());
        assert_eq!(diag.sanitize(), diag);
    }

    #[test]
    fn union_takes_convex_hull_per_row() {
        let a = band(2, 6, &[(0, 1), (4, 5)]);
        let b = band(2, 6, &[(3, 4), (0, 1)]);
        let u = a.union(&b);
        assert_eq!(u.row(0), ColRange { lo: 0, hi: 4 });
        assert_eq!(u.row(1), ColRange { lo: 0, hi: 5 });
        assert!(a.is_subset_of(&u) && b.is_subset_of(&u));
    }

    #[test]
    #[should_panic(expected = "band dimensions must match")]
    fn union_rejects_dimension_mismatch() {
        let _ = Band::full(2, 2).union(&Band::full(3, 2));
    }

    #[test]
    fn transpose_swaps_dimensions_and_keeps_cells() {
        let b = band(3, 4, &[(0, 1), (1, 2), (2, 3)]);
        let t = b.transpose();
        assert_eq!(t.n(), 4);
        assert_eq!(t.m(), 3);
        for i in 0..3 {
            for j in 0..4 {
                if b.contains(i, j) {
                    assert!(t.contains(j, i), "cell ({i},{j}) lost in transpose");
                }
            }
        }
    }

    #[test]
    fn transpose_fills_untouched_columns_with_diagonal_seed() {
        // band touching only column 0: other columns get placeholder cells
        let b = band(3, 4, &[(0, 0), (0, 0), (0, 0)]);
        let t = b.transpose();
        assert_eq!(t.n(), 4);
        for j in 0..4 {
            assert!(t.row(j).width() >= 1);
        }
    }

    #[test]
    fn subset_reflexive_and_detects_non_subsets() {
        let b = band(2, 4, &[(0, 2), (1, 3)]);
        assert!(b.is_subset_of(&b));
        assert!(b.is_subset_of(&Band::full(2, 4)));
        assert!(!Band::full(2, 4).is_subset_of(&b));
    }

    #[test]
    fn render_ascii_shape() {
        let b = band(3, 3, &[(0, 0), (1, 1), (2, 2)]);
        let art = b.render_ascii();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3);
        // top line is the LAST row of X (paper orientation)
        assert_eq!(lines[0], "..#");
        assert_eq!(lines[1], ".#.");
        assert_eq!(lines[2], "#..");
    }

    #[test]
    fn one_by_one_grid() {
        let b = Band::full(1, 1);
        assert!(b.is_feasible());
        assert_eq!(b.area(), 1);
        assert_eq!(b.sanitize(), b);
    }

    #[test]
    fn within_window_accepts_contained_bands_and_rejects_escapes() {
        // diagonal ± 1 fits a radius-1 window, not radius 0
        let b = band(4, 4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert!(b.within_window(1));
        assert!(!b.within_window(0));
        // the full band only fits once the radius covers the whole grid
        let full = Band::full(5, 5);
        assert!(full.within_window(4));
        assert!(!full.within_window(3));
        // the identity diagonal fits radius 0
        let diag = band(3, 3, &[(0, 0), (1, 1), (2, 2)]);
        assert!(diag.within_window(0));
        // oversized radii saturate instead of overflowing
        assert!(full.within_window(usize::MAX));
    }

    #[test]
    fn reach_is_the_tightest_containing_radius() {
        assert_eq!(band(4, 4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).reach(), 1);
        assert_eq!(Band::full(5, 5).reach(), 4);
        assert_eq!(band(3, 3, &[(0, 0), (1, 1), (2, 2)]).reach(), 0);
        // the worst row decides, on either edge, and n != m is fine
        assert_eq!(band(3, 9, &[(0, 1), (0, 7), (2, 2)]).reach(), 6);
        assert_eq!(
            band(6, 2, &[(0, 0), (0, 1), (0, 1), (1, 1), (1, 1), (1, 1)]).reach(),
            4
        );
        // within_window(r) is reach() <= r, radius by radius
        for b in [
            Band::full(7, 4),
            band(4, 6, &[(0, 2), (3, 5), (1, 4), (2, 5)]),
            crate::sakoe::sakoe_chiba_band(30, 30, 0.1),
        ] {
            let reach = b.reach();
            for r in 0..10 {
                let contained = b
                    .rows()
                    .iter()
                    .enumerate()
                    .all(|(i, c)| c.lo + r >= i && c.hi <= i + r);
                assert_eq!(b.within_window(r), contained, "radius {r}");
                assert_eq!(contained, reach <= r, "radius {r}");
            }
        }
    }
}
