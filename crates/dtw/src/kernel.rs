//! Pluggable DTW kernels: the cost of each transition behind one trait.
//!
//! The banded DP engine ([`crate::engine`]) is generic over a
//! [`DtwKernel`], which decides what each local transition costs; the
//! accumulated corner cost is the reported distance. The built-in
//! kernels are
//!
//! * [`StandardKernel`] — the paper's symmetric1 recurrence (§2.1.3):
//!   every transition pays the local cost `d`;
//! * [`AmercedKernel`] — ADTW (Herrmann & Webb, *Amercing: An intuitive
//!   and effective constraint for dynamic time warping*, 2021): every
//!   off-diagonal transition pays an **additive** warp penalty `ω` on top
//!   of the local cost, so warping is discouraged smoothly instead of
//!   being cut off by a band edge. `ω = 0` degenerates to symmetric1;
//!   `ω → ∞` approaches the (diagonal-only) Euclidean distance.
//!
//! Kernels are plugged in two ways: statically, by calling
//! [`crate::engine::dtw_run`] with any `impl DtwKernel` (zero dynamic
//! dispatch — the fill loop monomorphises per kernel); or through
//! configuration, via the serialisable [`KernelChoice`] selector carried
//! by [`crate::engine::DtwOptions`] and dispatched once per call by
//! [`crate::engine::dtw_run_options`].

use crate::simd::{lanes_eval, F64Lanes};
use sdtw_tseries::ElementMetric;
use serde::{Deserialize, Serialize};

/// The cost model of one DTW recurrence: how each parent transition is
/// charged. The raw accumulated cost of the corner cell is the distance.
///
/// # Contract
///
/// The engine relies on these properties, documented per method:
///
/// * **Monotonicity** — every transition cost must be ≥ the parent value
///   (local costs and penalties are non-negative), so a completed row's
///   minimum is a lower bound on any path through it. Early abandoning
///   ([`crate::engine::dtw_run`] with a cutoff) is unsound otherwise.
/// * **Bound compatibility** — every kernel that [`KernelChoice`] offers
///   must dominate the plain symmetric1 accumulation on the same band,
///   which is what `LB_Kim`/`LB_Keogh` actually bound: the retrieval
///   cascades prune with those bounds under every configurable kernel.
///   A kernel plugged in statically through [`crate::engine::dtw_run`]
///   is never screened by a cascade and needs only monotonicity.
/// * **Infinity propagation** — every transition must map a `+∞` parent
///   to `+∞` (any finite additive cost does this for free). Both fill
///   orders represent unreachable/out-of-band parents as `+∞`, and the
///   wavefront engine additionally drops transition arms whose parent
///   cell cannot exist (first row/column) on the strength of
///   `min(x, +∞) == x`; a kernel that collapsed infinities would break
///   the row/wavefront bit-identity the differential harness asserts.
/// * **Lane bit-identity** — the `*_lanes` methods must compute, in every
///   lane, the *bit-identical* result of the corresponding scalar method
///   on that lane's inputs. The defaults guarantee this by delegating
///   per-lane; an override may only reorder *across* lanes (which is what
///   makes it vectorisable), never alter the per-lane op sequence — the
///   lane wavefront's bit-identity with the row fill rests on it, and the
///   differential harness asserts it per kernel.
pub trait DtwKernel {
    /// Cost of the origin cell of a warp path (no parent).
    #[inline]
    fn start(&self, local: f64) -> f64 {
        local
    }

    /// Cost of arriving from the cell above (`(i-1, j)`).
    fn up(&self, parent: f64, local: f64) -> f64;

    /// Cost of arriving from the cell to the left (`(i, j-1)`).
    fn left(&self, parent: f64, local: f64) -> f64;

    /// Cost of arriving from the diagonal parent (`(i-1, j-1)`).
    fn diagonal(&self, parent: f64, local: f64) -> f64;

    /// Lanewise local cost: lane `l` must equal `metric.eval(x[l], y[l])`
    /// bitwise. The default delegates per lane; built-in kernels override
    /// with [`lanes_eval`] (same per-lane op sequence, vector shape).
    #[inline]
    fn local_lanes(&self, metric: ElementMetric, x: F64Lanes, y: F64Lanes) -> F64Lanes {
        F64Lanes::from_fn(|l| metric.eval(x.lane(l), y.lane(l)))
    }

    /// Lanewise [`DtwKernel::up`]: lane `l` must equal
    /// `self.up(parent[l], local[l])` bitwise.
    #[inline]
    fn up_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        F64Lanes::from_fn(|l| self.up(parent.lane(l), local.lane(l)))
    }

    /// Lanewise [`DtwKernel::left`]: lane `l` must equal
    /// `self.left(parent[l], local[l])` bitwise.
    #[inline]
    fn left_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        F64Lanes::from_fn(|l| self.left(parent.lane(l), local.lane(l)))
    }

    /// Lanewise [`DtwKernel::diagonal`]: lane `l` must equal
    /// `self.diagonal(parent[l], local[l])` bitwise.
    #[inline]
    fn diagonal_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        F64Lanes::from_fn(|l| self.diagonal(parent.lane(l), local.lane(l)))
    }
}

/// The paper's symmetric1 recurrence (§2.1.3): every transition pays
/// the local cost `d`,
/// `D(i,j) = d + min(D(i-1,j-1), D(i-1,j), D(i,j-1))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StandardKernel;

impl DtwKernel for StandardKernel {
    #[inline(always)]
    fn up(&self, parent: f64, local: f64) -> f64 {
        parent + local
    }

    #[inline(always)]
    fn left(&self, parent: f64, local: f64) -> f64 {
        parent + local
    }

    #[inline(always)]
    fn diagonal(&self, parent: f64, local: f64) -> f64 {
        parent + local
    }

    #[inline(always)]
    fn local_lanes(&self, metric: ElementMetric, x: F64Lanes, y: F64Lanes) -> F64Lanes {
        lanes_eval(metric, x, y)
    }

    #[inline(always)]
    fn up_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        parent + local
    }

    #[inline(always)]
    fn left_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        parent + local
    }

    #[inline(always)]
    fn diagonal_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        parent + local
    }
}

/// ADTW's amerced recurrence: off-diagonal transitions pay the local cost
/// **plus** an additive warp penalty `ω ≥ 0`; the diagonal pays the local
/// cost alone (symmetric1 weighting).
///
/// `D(i,j) = d + min(D(i-1,j-1), D(i-1,j) + ω, D(i,j-1) + ω)`
///
/// The penalty is amortised per warp step, so the distance interpolates
/// smoothly between unconstrained DTW (`ω = 0`) and the rigid diagonal
/// alignment (`ω → ∞`) — a tunable stiffness rather than a hard band.
/// Because `ω ≥ 0`, the amerced cost of any path dominates its symmetric1
/// cost, so the standard lower bounds remain admissible and early
/// abandoning stays sound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmercedKernel {
    penalty: f64,
}

impl AmercedKernel {
    /// Builds the kernel with the given warp penalty (finite, ≥ 0).
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite penalty (programmer error —
    /// config-driven paths validate via
    /// [`crate::engine::DtwOptions::validate`] first).
    pub fn new(penalty: f64) -> Self {
        assert!(
            penalty.is_finite() && penalty >= 0.0,
            "amerced penalty must be finite and >= 0, got {penalty}"
        );
        Self { penalty }
    }

    /// The additive warp penalty `ω`.
    pub fn penalty(&self) -> f64 {
        self.penalty
    }
}

impl DtwKernel for AmercedKernel {
    #[inline(always)]
    fn up(&self, parent: f64, local: f64) -> f64 {
        parent + local + self.penalty
    }

    #[inline(always)]
    fn left(&self, parent: f64, local: f64) -> f64 {
        parent + local + self.penalty
    }

    #[inline(always)]
    fn diagonal(&self, parent: f64, local: f64) -> f64 {
        parent + local
    }

    #[inline(always)]
    fn local_lanes(&self, metric: ElementMetric, x: F64Lanes, y: F64Lanes) -> F64Lanes {
        lanes_eval(metric, x, y)
    }

    #[inline(always)]
    fn up_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        // same association as the scalar: (parent + local) + ω
        parent + local + F64Lanes::splat(self.penalty)
    }

    #[inline(always)]
    fn left_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        parent + local + F64Lanes::splat(self.penalty)
    }

    #[inline(always)]
    fn diagonal_lanes(&self, parent: F64Lanes, local: F64Lanes) -> F64Lanes {
        parent + local
    }
}

/// Serialisable kernel selector carried by
/// [`crate::engine::DtwOptions`]: the configuration-level counterpart of
/// the [`DtwKernel`] trait. [`crate::engine::dtw_run_options`] dispatches
/// it to a concrete kernel once per call, so the fill loop stays
/// monomorphic.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum KernelChoice {
    /// [`StandardKernel`], the paper's symmetric1 recurrence.
    #[default]
    Standard,
    /// [`AmercedKernel`] with the given warp penalty.
    Amerced {
        /// Additive penalty `ω` per off-diagonal step (finite, ≥ 0).
        penalty: f64,
    },
}

impl KernelChoice {
    /// Short label for experiment output and the CLI: `sym1` or
    /// `amerced(w=…)`.
    pub fn label(&self) -> String {
        match self {
            KernelChoice::Standard => "sym1".to_string(),
            KernelChoice::Amerced { penalty } => format!("amerced(w={penalty})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_kernel_matches_the_legacy_expressions() {
        let k = StandardKernel;
        assert_eq!(k.up(3.0, 2.0), 5.0);
        assert_eq!(k.left(3.0, 2.0), 5.0);
        assert_eq!(k.diagonal(3.0, 2.0), 5.0);
        assert_eq!(k.start(2.0), 2.0);
    }

    #[test]
    fn amerced_charges_off_diagonal_steps_only() {
        let k = AmercedKernel::new(0.5);
        assert_eq!(k.diagonal(3.0, 2.0), 5.0);
        assert_eq!(k.up(3.0, 2.0), 5.5);
        assert_eq!(k.left(3.0, 2.0), 5.5);
        assert_eq!(k.penalty(), 0.5);
    }

    #[test]
    fn amerced_zero_penalty_equals_symmetric1() {
        let a = AmercedKernel::new(0.0);
        let s = StandardKernel;
        for (p, l) in [(0.0, 1.0), (2.5, 0.25), (100.0, 7.0)] {
            assert_eq!(a.up(p, l).to_bits(), s.up(p, l).to_bits());
            assert_eq!(a.left(p, l).to_bits(), s.left(p, l).to_bits());
            assert_eq!(a.diagonal(p, l).to_bits(), s.diagonal(p, l).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn negative_penalty_panics() {
        let _ = AmercedKernel::new(-1.0);
    }

    #[test]
    fn kernel_choice_labels_and_default() {
        assert_eq!(KernelChoice::default(), KernelChoice::Standard);
        assert_eq!(KernelChoice::Standard.label(), "sym1");
        assert_eq!(
            KernelChoice::Amerced { penalty: 0.25 }.label(),
            "amerced(w=0.25)"
        );
    }

    #[test]
    fn kernel_choice_roundtrips_through_serde() {
        for k in [
            KernelChoice::Standard,
            KernelChoice::Amerced { penalty: 1.5 },
        ] {
            let json = serde_json::to_string(&k).unwrap();
            let back: KernelChoice = serde_json::from_str(&json).unwrap();
            assert_eq!(k, back);
        }
    }

    #[test]
    fn lane_methods_match_scalar_methods_bitwise() {
        use crate::simd::LANE_WIDTH;
        let parents = F64Lanes::from_fn(|l| 0.37 * l as f64 + 0.1);
        let locals = F64Lanes::from_fn(|l| 1.13 * (LANE_WIDTH - l) as f64);
        let xs = F64Lanes::from_fn(|l| 0.7 * l as f64 - 2.0);
        let ys = F64Lanes::from_fn(|l| -0.3 * l as f64 + 1.0);
        let am = AmercedKernel::new(0.75);

        fn check<K: DtwKernel>(k: &K, p: F64Lanes, d: F64Lanes, x: F64Lanes, y: F64Lanes) {
            use crate::simd::LANE_WIDTH;
            for metric in [ElementMetric::Squared, ElementMetric::Absolute] {
                let lanes = k.local_lanes(metric, x, y);
                for l in 0..LANE_WIDTH {
                    assert_eq!(
                        lanes.lane(l).to_bits(),
                        metric.eval(x.lane(l), y.lane(l)).to_bits()
                    );
                }
            }
            let (u, le, di) = (k.up_lanes(p, d), k.left_lanes(p, d), k.diagonal_lanes(p, d));
            for l in 0..LANE_WIDTH {
                assert_eq!(u.lane(l).to_bits(), k.up(p.lane(l), d.lane(l)).to_bits());
                assert_eq!(le.lane(l).to_bits(), k.left(p.lane(l), d.lane(l)).to_bits());
                assert_eq!(
                    di.lane(l).to_bits(),
                    k.diagonal(p.lane(l), d.lane(l)).to_bits()
                );
            }
        }
        check(&StandardKernel, parents, locals, xs, ys);
        check(&am, parents, locals, xs, ys);

        // a kernel relying on the default (per-lane delegating) impls
        struct Plain;
        impl DtwKernel for Plain {
            fn up(&self, p: f64, d: f64) -> f64 {
                p + 2.0 * d
            }
            fn left(&self, p: f64, d: f64) -> f64 {
                p + d + 0.5
            }
            fn diagonal(&self, p: f64, d: f64) -> f64 {
                p + d
            }
        }
        check(&Plain, parents, locals, xs, ys);
    }

    #[test]
    fn infinities_propagate_through_transitions() {
        // out-of-band parents are +inf; kernels must keep them +inf
        let s = StandardKernel;
        let a = AmercedKernel::new(3.0);
        assert_eq!(s.up(f64::INFINITY, 1.0), f64::INFINITY);
        assert_eq!(s.diagonal(f64::INFINITY, 1.0), f64::INFINITY);
        assert_eq!(a.left(f64::INFINITY, 1.0), f64::INFINITY);
    }
}
