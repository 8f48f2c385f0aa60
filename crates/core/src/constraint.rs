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
    candidate_in(partition.interval_of_x(i), i, partition)
}

/// [`adaptive_candidate`] of `i`, which lies in interval `e` of `X`.
fn candidate_in(e: usize, i: usize, partition: &IntervalPartition) -> usize {
    let (stx, endx) = partition.bounds_x(e);
    let (sty, endy) = partition.bounds_y(e);
    if endy == sty {
        return sty;
    }
    if endx == stx {
        return sty;
    }
    let frac = (i - stx) as f64 / (endx - stx) as f64;
    (sty as f64 + frac * (endy - sty) as f64).round() as usize
}

/// [`adaptive_candidate`] of every row `0..n`, in order. Rows ascend, so
/// their `X` intervals do too: one walk over the cuts finds them all.
fn adaptive_candidates(
    partition: &IntervalPartition,
    n: usize,
) -> impl Iterator<Item = usize> + '_ {
    let cuts = partition.cuts_x();
    let mut e = 0;
    (0..n).map(move |i| {
        // `interval_of_x`: the number of cuts at or before `i`
        while e < cuts.len() && cuts[e] <= i {
            e += 1;
        }
        candidate_in(e, i, partition)
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

/// [`interval_width`] of every `Y` interval, computed once per band: a
/// band asks for one per row, and rows far outnumber intervals.
fn interval_widths(
    partition: &IntervalPartition,
    neighbor_radius: usize,
    min_width_frac: f64,
) -> Vec<f64> {
    (0..partition.interval_count())
        .map(|e| interval_width(e, partition, neighbor_radius, min_width_frac))
        .collect()
}

/// Builds the band for a policy. Adaptive policies require the interval
/// `partition` of the pair; the baselines ignore it (pass the trivial
/// partition or anything else with matching dimensions).
///
/// The returned band is sanitised — feasible for the DP kernel.
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
        } => {
            let widths = interval_widths(partition, neighbor_radius, min_width_frac);
            let ranges = (0..n)
                .map(|i| {
                    let c = diagonal_column(i, n, m);
                    range_around(c, widths[partition.interval_of_y(c)], m)
                })
                .collect();
            Band::from_ranges(n, m, ranges).sanitize()
        }
        ConstraintPolicy::AdaptiveCoreFixedWidth { width_frac } => {
            let half = ((width_frac * m as f64) / 2.0).round().max(1.0) as usize;
            let ranges = adaptive_candidates(partition, n)
                .map(|c| {
                    let c = c.min(m - 1);
                    ColRange::new(c.saturating_sub(half), (c + half).min(m - 1))
                })
                .collect();
            Band::from_ranges(n, m, ranges).sanitize()
        }
        ConstraintPolicy::AdaptiveCoreAdaptiveWidth {
            min_width_frac,
            neighbor_radius,
        } => {
            let widths = interval_widths(partition, neighbor_radius, min_width_frac);
            let ranges = adaptive_candidates(partition, n)
                .map(|c| {
                    let c = c.min(m - 1);
                    range_around(c, widths[partition.interval_of_y(c)], m)
                })
                .collect();
            Band::from_ranges(n, m, ranges).sanitize()
        }
    }
}

/// The `±⌈w/2⌉` column range around a candidate, clamped to the grid.
fn range_around(candidate: usize, width: f64, m: usize) -> ColRange {
    let half = (width / 2.0).ceil().max(1.0) as usize;
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
