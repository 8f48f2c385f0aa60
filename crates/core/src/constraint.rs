//! Band builders: compile a constraint policy + interval partition into a
//! concrete [`Band`] (paper §3.3).

use crate::policy::ConstraintPolicy;
use sdtw_align::IntervalPartition;
use sdtw_dtw::band::{Band, ColRange};
use sdtw_dtw::itakura::itakura_band;
use sdtw_dtw::sakoe::{diagonal_column, sakoe_chiba_band};

/// Candidate point of `x_i` on `Y` under the **adaptive core** rule
/// (paper §3.3.2): linear interpolation inside the corresponding interval,
/// `(j − st(Y,E)) / (end(Y,E) − st(Y,E)) = (i − st(X,E)) / (end(X,E) − st(X,E))`.
///
/// Degenerate cases:
/// * empty `Y` interval (`end = st`): every `x_i` of the interval maps to
///   `st(Y,E)`;
/// * empty `X` interval (`end = st`): the single `x_i` maps to the start of
///   the `Y` interval; the resulting vertical gap in the band is bridged by
///   the sanitiser (the paper: "we need to bridge the gap by filling in the
///   missing grid positions").
pub fn adaptive_candidate(i: usize, partition: &IntervalPartition) -> usize {
    let e = partition.interval_of_x(i);
    interpolate(i, partition.bounds_x(e), partition.bounds_y(e))
}

/// [`adaptive_candidate`] of row `i` of the `X` interval `(stx, endx)`,
/// whose corresponding `Y` interval is `(sty, endy)`.
fn interpolate(i: usize, (stx, endx): (usize, usize), (sty, endy): (usize, usize)) -> usize {
    if endy == sty || endx == stx {
        return sty;
    }
    let frac = (i - stx) as f64 / (endx - stx) as f64;
    round_non_negative(sty as f64 + frac * (endy - sty) as f64)
}

/// `v.round() as usize` for a finite `v ≥ 0`, in integer arithmetic
/// (`f64::round` is a library call on targets without SSE4.1). The
/// truncation `t` is exact, and so is `v − t`: it is `v` itself when
/// `t = 0`, and Sterbenz's lemma covers `t ≤ v < t + 1 ≤ 2t` otherwise.
/// Halves round up, as `f64::round` rounds them away from zero.
fn round_non_negative(v: f64) -> usize {
    let t = v as usize;
    t + usize::from(v - t as f64 >= 0.5)
}

/// [`adaptive_candidate`] of every row of `X`, in order, interval by
/// interval: the rows of interval `e` run from its start up to the next
/// interval's (boundary rows open the interval to their right), and the
/// last interval keeps its end row. The candidates never decrease: each
/// interval's interpolation is monotone and ends at most at `end(Y,E)`,
/// where the next one starts.
fn adaptive_candidates(partition: &IntervalPartition) -> impl Iterator<Item = usize> + '_ {
    let last = partition.interval_count() - 1;
    (0..=last).flat_map(move |e| {
        let (x, y) = (partition.bounds_x(e), partition.bounds_y(e));
        let end = if e == last { x.1 + 1 } else { x.1 };
        (x.0..end).map(move |i| interpolate(i, x, y))
    })
}

/// Width (in columns of `Y`) around a candidate point under the **adaptive
/// width** rule: the width of the `Y` interval containing the candidate,
/// optionally averaged over `±neighbor_radius` intervals, bounded below by
/// `min_width_frac · M`.
pub fn adaptive_width(
    candidate_j: usize,
    partition: &IntervalPartition,
    neighbor_radius: usize,
    min_width_frac: f64,
) -> f64 {
    interval_width(
        partition.interval_of_y(candidate_j),
        partition,
        neighbor_radius,
        min_width_frac,
    )
}

/// [`adaptive_width`] of a candidate in interval `e` of `Y`.
fn interval_width(
    e: usize,
    partition: &IntervalPartition,
    neighbor_radius: usize,
    min_width_frac: f64,
) -> f64 {
    let w = if neighbor_radius == 0 {
        partition.width_y(e) as f64
    } else {
        partition.avg_width_y(e, neighbor_radius)
    };
    w.max(min_width_frac * partition.m() as f64)
}

/// The half-width `⌈w/2⌉` (at least 1) of every `Y` interval's adaptive
/// width, computed once per band: a band asks for one per row, and rows
/// far outnumber intervals.
fn interval_halves(
    partition: &IntervalPartition,
    neighbor_radius: usize,
    min_width_frac: f64,
) -> Vec<usize> {
    (0..partition.interval_count())
        .map(|e| {
            let w = interval_width(e, partition, neighbor_radius, min_width_frac);
            (w / 2.0).ceil().max(1.0) as usize
        })
        .collect()
}

/// The sanitised band of `±halves[e]` columns around each row's
/// candidate, `e` being the candidate's `Y` interval
/// ([`IntervalPartition::interval_of_y`]). Candidates never decrease,
/// so one pointer walks the `Y` cuts for all of them.
fn band_around_y_intervals(
    partition: &IntervalPartition,
    halves: &[usize],
    candidates: impl Iterator<Item = usize>,
    n: usize,
    m: usize,
) -> Band {
    let cuts = partition.cuts_y();
    let mut e = 0;
    let mut rows = Vec::with_capacity(n);
    rows.extend(candidates.map(|c| {
        let c = c.min(m - 1);
        debug_assert!(e == 0 || cuts[e - 1] <= c, "candidates never decrease");
        while e < cuts.len() && cuts[e] <= c {
            e += 1;
        }
        range_around(c, halves[e], m)
    }));
    Band::sanitized(n, m, rows)
}

/// Builds the band for a policy. Adaptive policies require the interval
/// `partition` of the pair; the baselines ignore it (pass the trivial
/// partition or anything else with matching dimensions).
///
/// The returned band is sanitised — feasible for the DP kernel. Each
/// row costs O(1): the rows walk the `X` intervals in order, their
/// candidates walk the `Y` intervals with one pointer, and half-widths
/// are taken once per interval.
///
/// # Panics
///
/// Panics when the partition dimensions do not match `n`/`m` for an
/// adaptive policy (programmer error: the partition must come from the
/// same pair).
pub fn build_band(
    policy: &ConstraintPolicy,
    partition: &IntervalPartition,
    n: usize,
    m: usize,
) -> Band {
    if policy.needs_alignment() {
        assert_eq!(partition.n(), n, "partition built for a different |X|");
        assert_eq!(partition.m(), m, "partition built for a different |Y|");
    }
    match *policy {
        ConstraintPolicy::FullGrid => Band::full(n, m),
        ConstraintPolicy::FixedCoreFixedWidth { width_frac } => sakoe_chiba_band(n, m, width_frac),
        ConstraintPolicy::Itakura { slope } => itakura_band(n, m, slope),
        ConstraintPolicy::FixedCoreAdaptiveWidth {
            min_width_frac,
            neighbor_radius,
        } => band_around_y_intervals(
            partition,
            &interval_halves(partition, neighbor_radius, min_width_frac),
            (0..n).map(|i| diagonal_column(i, n, m)),
            n,
            m,
        ),
        ConstraintPolicy::AdaptiveCoreFixedWidth { width_frac } => {
            let half = ((width_frac * m as f64) / 2.0).round().max(1.0) as usize;
            let mut rows = Vec::with_capacity(n);
            rows.extend(
                adaptive_candidates(partition).map(|c| range_around(c.min(m - 1), half, m)),
            );
            Band::sanitized(n, m, rows)
        }
        ConstraintPolicy::AdaptiveCoreAdaptiveWidth {
            min_width_frac,
            neighbor_radius,
        } => band_around_y_intervals(
            partition,
            &interval_halves(partition, neighbor_radius, min_width_frac),
            adaptive_candidates(partition),
            n,
            m,
        ),
    }
}

/// The `±half` column range around a candidate, clamped to the grid.
fn range_around(candidate: usize, half: usize, m: usize) -> ColRange {
    ColRange::new(
        candidate.saturating_sub(half),
        (candidate + half).min(m - 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A partition with one matched pair of intervals at 40%..60% of each
    /// series, the Y side shifted right.
    fn shifted_partition(n: usize, m: usize) -> IntervalPartition {
        IntervalPartition::from_cuts(vec![n * 2 / 5, n * 3 / 5], vec![m * 3 / 5, m * 4 / 5], n, m)
    }

    #[test]
    fn adaptive_candidate_interpolates_linearly() {
        // X interval [4, 8] maps to Y interval [10, 18]
        let p = IntervalPartition::from_cuts(vec![4, 8], vec![10, 18], 12, 24);
        assert_eq!(adaptive_candidate(4, &p), 10);
        assert_eq!(adaptive_candidate(6, &p), 14);
        assert_eq!(adaptive_candidate(8, &p), 18);
        // before the first cut: interval 0 = [0,4] -> [0,10]
        assert_eq!(adaptive_candidate(0, &p), 0);
        assert_eq!(adaptive_candidate(2, &p), 5);
        // after the last cut: interval 2 = [8,11] -> [18,23]
        assert_eq!(adaptive_candidate(11, &p), 23);
    }

    #[test]
    fn integer_rounding_matches_f64_round() {
        let mut values = vec![0.0, 0.5, 1.5, 2.5, 7.0];
        for half in [0.5f64, 1.5, 2.5] {
            values.extend([half.next_down(), half.next_up()]);
        }
        values.extend([2f64.powi(52) - 0.5, 2f64.powi(52), 2f64.powi(53) + 2.0]);
        let mut v = 0.0;
        while v < 300.0 {
            values.push(v);
            v += 0.0625;
        }
        for v in values {
            assert_eq!(round_non_negative(v), v.round() as usize, "{v}");
        }
    }

    #[test]
    fn adaptive_candidate_empty_y_interval_collapses() {
        // Y interval [10,10] is empty: all of X's [4,8] maps to 10
        let p = IntervalPartition::from_cuts(vec![4, 8], vec![10, 10], 12, 24);
        for i in 4..=8 {
            assert_eq!(adaptive_candidate(i, &p), 10);
        }
    }

    #[test]
    fn adaptive_candidate_empty_x_interval_maps_to_interval_start() {
        // X interval [4,4] is empty against Y [10,18]
        let p = IntervalPartition::from_cuts(vec![4, 4], vec![10, 18], 12, 24);
        assert_eq!(adaptive_candidate(4, &p), 18); // i=4 opens interval 2 ([4,4] is interval 1? check semantics below)
    }

    #[test]
    fn adaptive_width_uses_local_interval() {
        let p = IntervalPartition::from_cuts(vec![4, 8], vec![10, 18], 12, 24);
        // candidate inside Y interval 1 ([10,18], width 8)
        assert_eq!(adaptive_width(14, &p, 0, 0.0), 8.0);
        // interval 0 = [0,10] width 10
        assert_eq!(adaptive_width(3, &p, 0, 0.0), 10.0);
        // lower bound engages: 0.5 * 24 = 12 > 8
        assert_eq!(adaptive_width(14, &p, 0, 0.5), 12.0);
        // neighbour averaging: intervals widths are 10, 8, 5 -> mean 23/3
        let avg = adaptive_width(14, &p, 1, 0.0);
        assert!((avg - 23.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn full_grid_policy_builds_full_band() {
        let p = shifted_partition(50, 60);
        let b = build_band(&ConstraintPolicy::FullGrid, &p, 50, 60);
        assert_eq!(b, Band::full(50, 60));
    }

    #[test]
    fn adaptive_core_band_follows_the_shifted_alignment() {
        let n = 100;
        let m = 100;
        let p = shifted_partition(n, m);
        let b = build_band(&ConstraintPolicy::adaptive_core_fixed_width(0.06), &p, n, m);
        assert!(b.is_feasible());
        // In the middle of X's matched interval (i = 50), the adaptive core
        // sits inside Y's matched interval (60..80), well right of the
        // diagonal.
        let r = b.row(50);
        assert!(
            r.lo > 55,
            "band row 50 = {r:?} should sit right of the diagonal"
        );
        // The Sakoe band at the same width stays centred on the diagonal.
        let sc = build_band(
            &ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.06 },
            &p,
            n,
            m,
        );
        assert!(sc.row(50).contains(50));
    }

    #[test]
    fn adaptive_width_band_widens_in_wide_intervals() {
        let n = 100;
        let m = 100;
        // one huge Y interval in the middle, narrow elsewhere
        let p = IntervalPartition::from_cuts(vec![45, 55], vec![20, 80], n, m);
        let b = build_band(
            &ConstraintPolicy::AdaptiveCoreAdaptiveWidth {
                min_width_frac: 0.0,
                neighbor_radius: 0,
            },
            &p,
            n,
            m,
        );
        assert!(b.is_feasible());
        // row 50 sits in the wide interval: band is wide
        let wide = b.row(50).width();
        // row 10 sits in the narrow leading interval (Y width 20)
        let narrow = b.row(10).width();
        assert!(
            wide > narrow,
            "wide-interval row {wide} vs narrow-interval row {narrow}"
        );
    }

    #[test]
    fn min_width_floor_applies() {
        let n = 60;
        let m = 60;
        // all-empty partition: many duplicate cuts → tiny widths
        let p = IntervalPartition::from_cuts(vec![30, 30], vec![30, 30], n, m);
        let b = build_band(
            &ConstraintPolicy::AdaptiveCoreAdaptiveWidth {
                min_width_frac: 0.2,
                neighbor_radius: 0,
            },
            &p,
            n,
            m,
        );
        assert!(b.is_feasible());
        // every row at least ~0.2*60/2 = 6 columns each side (12 total),
        // modulo clamping at the edges
        assert!(b.row(30).width() >= 7, "row 30 width {}", b.row(30).width());
    }

    #[test]
    fn trivial_partition_reduces_adaptive_core_to_near_diagonal() {
        let n = 80;
        let m = 80;
        let p = IntervalPartition::from_cuts(vec![], vec![], n, m);
        let b = build_band(&ConstraintPolicy::adaptive_core_fixed_width(0.1), &p, n, m);
        for i in (0..n).step_by(7) {
            assert!(
                b.contains(i, i),
                "diagonal cell ({i},{i}) missing from trivial-partition band"
            );
        }
    }

    #[test]
    fn fc_aw_band_is_feasible_and_diagonal_centred() {
        let n = 90;
        let m = 70;
        let p = shifted_partition(n, m);
        let b = build_band(&ConstraintPolicy::fixed_core_adaptive_width(), &p, n, m);
        assert!(b.is_feasible());
        for i in (0..n).step_by(11) {
            let c = diagonal_column(i, n, m);
            assert!(b.contains(i, c), "diagonal cell ({i},{c}) missing");
        }
    }

    #[test]
    fn unequal_lengths_all_policies_feasible() {
        let n = 75;
        let m = 130;
        let p = shifted_partition(n, m);
        for policy in [
            ConstraintPolicy::FullGrid,
            ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.1 },
            ConstraintPolicy::Itakura { slope: 2.0 },
            ConstraintPolicy::fixed_core_adaptive_width(),
            ConstraintPolicy::adaptive_core_fixed_width(0.1),
            ConstraintPolicy::adaptive_core_adaptive_width(),
            ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
        ] {
            let b = build_band(&policy, &p, n, m);
            assert!(b.is_feasible(), "{} infeasible", policy.label());
            assert_eq!(b.n(), n);
            assert_eq!(b.m(), m);
        }
    }

    #[test]
    #[should_panic(expected = "partition built for a different")]
    fn dimension_mismatch_panics_for_adaptive() {
        let p = shifted_partition(50, 50);
        let _ = build_band(
            &ConstraintPolicy::adaptive_core_adaptive_width(),
            &p,
            60,
            50,
        );
    }
}
