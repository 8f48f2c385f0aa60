//! Portable explicit-SIMD lane layer: a fixed-width `f64` vector type.
//!
//! The wavefront DP fill ([`crate::engine`]) and the batched lower bounds
//! ([`crate::lower_bound`]) restructure their hot loops around
//! [`F64Lanes`]: a `#[repr(align(64))]` wrapper over `[f64; LANE_WIDTH]`
//! whose lanewise operations are plain per-lane loops over a fixed-size
//! array — the shape LLVM reliably widens to vector instructions (2×
//! `vaddpd`/`vminpd` on AVX2, 1× on AVX-512, plain `addpd` pairs on SSE2)
//! without any `unsafe`, `std::simd`, or registry dependency.
//!
//! # Bit-identity contract
//!
//! Every consumer of this module relies on lane results being
//! **bit-identical** to the scalar reference:
//!
//! * each lane executes the *same IEEE-754 op sequence* as the scalar
//!   code — per-lane `a + b`, `a * b`, `a - b`, `|a|` are the very same
//!   hardware operations whether they sit in a vector register or not, so
//!   per-cell values cannot drift;
//! * [`F64Lanes::min`] / [`F64Lanes::max`] are defined by comparison +
//!   select, which equals `f64::min` / `f64::max` bitwise on the values
//!   that occur here (no NaNs — inputs are finite by `TimeSeries`
//!   construction, and `+∞ + finite = +∞`; no `-0.0` — local costs are
//!   `d²` or `|d|`, and sums of non-negative values stay `+0.0`);
//! * [`F64Lanes::horizontal_min`] folds lanes with `f64::min`, which is
//!   associative and commutative over non-NaN values, so a lane-then-fold
//!   minimum equals the scalar left-to-right minimum *as a value* even
//!   though the fold order differs — early-abandon decisions compare the
//!   same number either way;
//! * [`F64Lanes::select`] reproduces scalar `if`/`else if`/`else` chains
//!   lane-by-lane (the taken branch's value, bit for bit); evaluating the
//!   untaken branch's expression lanewise is harmless because its result
//!   is discarded by the select.
//!
//! The differential tests hold the lane consumers to scalar references
//! kept outside the shipped code: a textbook dense DP for the wavefront,
//! and the per-item bounds for the batched lower bounds.

use sdtw_tseries::ElementMetric;

/// Number of `f64` lanes in one [`F64Lanes`] vector.
///
/// Eight lanes (512 bits) keep the type one cache line wide and give the
/// autovectoriser room to emit two AVX2 (or one AVX-512) operation(s) per
/// lanewise call; [`crate::lower_bound::LB_LANES`] is defined as this
/// width so the batched-bound chunking and the DP lane sweep agree on one
/// number.
pub const LANE_WIDTH: usize = 8;

/// A fixed-width vector of `f64` lanes (see the module docs for the
/// bit-identity contract its operations honour).
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(64))]
pub struct F64Lanes([f64; LANE_WIDTH]);

/// A per-lane boolean mask, produced by lane comparisons and consumed by
/// [`F64Lanes::select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneMask([bool; LANE_WIDTH]);

impl LaneMask {
    /// Builds a mask lane-by-lane from a predicate on the lane index.
    #[inline(always)]
    pub fn from_fn(f: impl FnMut(usize) -> bool) -> Self {
        Self(std::array::from_fn(f))
    }

    /// The lane at index `l`.
    #[inline(always)]
    pub fn lane(&self, l: usize) -> bool {
        self.0[l]
    }
}

impl F64Lanes {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Self([v; LANE_WIDTH])
    }

    /// Builds a vector lane-by-lane from a function of the lane index
    /// (the gather shape: one value per candidate of a chunk).
    #[inline(always)]
    pub fn from_fn(f: impl FnMut(usize) -> f64) -> Self {
        Self(std::array::from_fn(f))
    }

    /// Loads the first [`LANE_WIDTH`] values of `src` (forward,
    /// contiguous).
    ///
    /// # Panics
    ///
    /// Panics when `src` holds fewer than [`LANE_WIDTH`] values.
    #[inline(always)]
    pub fn load(src: &[f64]) -> Self {
        let mut out = [0.0; LANE_WIDTH];
        out.copy_from_slice(&src[..LANE_WIDTH]);
        Self(out)
    }

    /// Loads the first [`LANE_WIDTH`] values of `src` in reverse order:
    /// lane `l` gets `src[LANE_WIDTH - 1 - l]`. This is the `Y`-side load
    /// of a wavefront chunk — along an anti-diagonal `d`, ascending rows
    /// `i` read *descending* columns `j = d - i`, so the column window is
    /// contiguous but reversed.
    ///
    /// # Panics
    ///
    /// Panics when `src` holds fewer than [`LANE_WIDTH`] values.
    #[inline(always)]
    pub fn load_reversed(src: &[f64]) -> Self {
        let window = &src[..LANE_WIDTH];
        Self(std::array::from_fn(|l| window[LANE_WIDTH - 1 - l]))
    }

    /// Stores all lanes into the first [`LANE_WIDTH`] slots of `dst`.
    ///
    /// # Panics
    ///
    /// Panics when `dst` holds fewer than [`LANE_WIDTH`] slots.
    #[inline(always)]
    pub fn store(self, dst: &mut [f64]) {
        dst[..LANE_WIDTH].copy_from_slice(&self.0);
    }

    /// The lanes as a plain array reference (bulk appends).
    #[inline(always)]
    pub fn as_array(&self) -> &[f64; LANE_WIDTH] {
        &self.0
    }

    /// The lane at index `l`.
    #[inline(always)]
    pub fn lane(&self, l: usize) -> f64 {
        self.0[l]
    }

    /// Lanewise absolute value.
    #[inline(always)]
    pub fn abs(self) -> Self {
        Self::from_fn(|l| self.0[l].abs())
    }

    /// Lanewise minimum by compare-and-select (`vminpd` shape). Equals
    /// `f64::min` bitwise on non-NaN inputs without mixed-sign zeros —
    /// the only values the DP and the bounds produce (module docs).
    #[inline(always)]
    pub fn min(self, rhs: Self) -> Self {
        Self::from_fn(|l| {
            if self.0[l] <= rhs.0[l] {
                self.0[l]
            } else {
                rhs.0[l]
            }
        })
    }

    /// Lanewise maximum by compare-and-select (`vmaxpd` shape); same
    /// equivalence caveats as [`F64Lanes::min`].
    #[inline(always)]
    pub fn max(self, rhs: Self) -> Self {
        Self::from_fn(|l| {
            if self.0[l] >= rhs.0[l] {
                self.0[l]
            } else {
                rhs.0[l]
            }
        })
    }

    /// Lanewise `self > rhs`.
    #[inline(always)]
    pub fn gt(self, rhs: Self) -> LaneMask {
        LaneMask::from_fn(|l| self.0[l] > rhs.0[l])
    }

    /// Lanewise `self < rhs`.
    #[inline(always)]
    pub fn lt(self, rhs: Self) -> LaneMask {
        LaneMask::from_fn(|l| self.0[l] < rhs.0[l])
    }

    /// Per-lane `if mask { on_true } else { on_false }` (`vblendvpd`
    /// shape).
    #[inline(always)]
    pub fn select(mask: LaneMask, on_true: Self, on_false: Self) -> Self {
        Self::from_fn(|l| {
            if mask.lane(l) {
                on_true.0[l]
            } else {
                on_false.0[l]
            }
        })
    }

    /// Horizontal minimum across all lanes, folded with `f64::min`. Over
    /// non-NaN values the result equals the scalar running minimum of the
    /// same set regardless of accumulation order, which is why the
    /// wavefront's early-abandon test may use it in place of the scalar
    /// per-cell fold.
    #[inline(always)]
    pub fn horizontal_min(self) -> f64 {
        self.0.iter().fold(f64::INFINITY, |acc, &v| acc.min(v))
    }
}

impl std::ops::Add for F64Lanes {
    type Output = Self;

    /// Lanewise `self + rhs`.
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self::from_fn(|l| self.0[l] + rhs.0[l])
    }
}

impl std::ops::Sub for F64Lanes {
    type Output = Self;

    /// Lanewise `self - rhs`.
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self::from_fn(|l| self.0[l] - rhs.0[l])
    }
}

impl std::ops::Mul for F64Lanes {
    type Output = Self;

    /// Lanewise `self * rhs`.
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self::from_fn(|l| self.0[l] * rhs.0[l])
    }
}

/// Lanewise [`ElementMetric::eval`]: the identical per-lane op sequence
/// (`d = x - y`, then `d * d` or `|d|`), hence bit-identical to the
/// scalar metric on every lane.
#[inline(always)]
pub fn lanes_eval(metric: ElementMetric, x: F64Lanes, y: F64Lanes) -> F64Lanes {
    let d = x - y;
    match metric {
        ElementMetric::Squared => d * d,
        ElementMetric::Absolute => d.abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                4.0 * (((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0)
            })
            .collect()
    }

    #[test]
    fn splat_load_store_roundtrip() {
        let v = seeded(1, LANE_WIDTH + 3);
        let lanes = F64Lanes::load(&v);
        let mut out = vec![0.0; LANE_WIDTH];
        lanes.store(&mut out);
        assert_eq!(out, v[..LANE_WIDTH]);
        assert!(F64Lanes::splat(2.5).as_array().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn load_reversed_reverses_the_window() {
        let v = seeded(2, LANE_WIDTH + 2);
        let lanes = F64Lanes::load_reversed(&v);
        for l in 0..LANE_WIDTH {
            assert_eq!(lanes.lane(l).to_bits(), v[LANE_WIDTH - 1 - l].to_bits());
        }
    }

    #[test]
    fn lanewise_arithmetic_matches_scalar_bitwise() {
        let a = F64Lanes::load(&seeded(3, LANE_WIDTH));
        let b = F64Lanes::load(&seeded(4, LANE_WIDTH));
        for l in 0..LANE_WIDTH {
            assert_eq!((a + b).lane(l).to_bits(), (a.lane(l) + b.lane(l)).to_bits());
            assert_eq!((a - b).lane(l).to_bits(), (a.lane(l) - b.lane(l)).to_bits());
            assert_eq!((a * b).lane(l).to_bits(), (a.lane(l) * b.lane(l)).to_bits());
            assert_eq!(a.abs().lane(l).to_bits(), a.lane(l).abs().to_bits());
        }
    }

    #[test]
    fn min_max_equal_std_on_engine_values() {
        // the values the DP produces: non-negative, +0.0 only, +inf
        let a = F64Lanes::from_fn(|l| [0.0, 1.5, f64::INFINITY, 2.0, 0.0, 3.0, 7.0, 1.0][l]);
        let b = F64Lanes::from_fn(|l| [0.0, 2.5, 4.0, f64::INFINITY, 1.0, 3.0, 0.5, 9.0][l]);
        for l in 0..LANE_WIDTH {
            assert_eq!(
                a.min(b).lane(l).to_bits(),
                a.lane(l).min(b.lane(l)).to_bits()
            );
            assert_eq!(
                a.max(b).lane(l).to_bits(),
                a.lane(l).max(b.lane(l)).to_bits()
            );
        }
    }

    #[test]
    fn horizontal_min_is_order_independent() {
        let v = seeded(5, LANE_WIDTH);
        let lanes = F64Lanes::load(&v);
        let scalar = v.iter().fold(f64::INFINITY, |acc, &x| acc.min(x));
        assert_eq!(lanes.horizontal_min().to_bits(), scalar.to_bits());
        let all_inf = F64Lanes::splat(f64::INFINITY);
        assert_eq!(all_inf.horizontal_min(), f64::INFINITY);
    }

    #[test]
    fn select_reproduces_branch_chains() {
        let x = F64Lanes::load(&seeded(6, LANE_WIDTH));
        let hi = F64Lanes::splat(0.5);
        let lo = F64Lanes::splat(-0.5);
        let dev = F64Lanes::select(
            x.gt(hi),
            lanes_eval(ElementMetric::Squared, x, hi),
            F64Lanes::select(
                x.lt(lo),
                lanes_eval(ElementMetric::Squared, x, lo),
                F64Lanes::splat(0.0),
            ),
        );
        for l in 0..LANE_WIDTH {
            let xi = x.lane(l);
            let want = if xi > 0.5 {
                ElementMetric::Squared.eval(xi, 0.5)
            } else if xi < -0.5 {
                ElementMetric::Squared.eval(xi, -0.5)
            } else {
                0.0
            };
            assert_eq!(dev.lane(l).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn lanes_eval_matches_scalar_metric_bitwise() {
        let x = F64Lanes::load(&seeded(7, LANE_WIDTH));
        let y = F64Lanes::load(&seeded(8, LANE_WIDTH));
        for metric in [ElementMetric::Squared, ElementMetric::Absolute] {
            let got = lanes_eval(metric, x, y);
            for l in 0..LANE_WIDTH {
                assert_eq!(
                    got.lane(l).to_bits(),
                    metric.eval(x.lane(l), y.lane(l)).to_bits()
                );
            }
        }
    }
}
