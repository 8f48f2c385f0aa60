//! The canonical counter families.
//!
//! [`CascadeStats`] and [`StreamStats`] are the counter block of a
//! [`QueryTrace`](crate::QueryTrace); the index, stream and serve crates
//! count into them directly.

use serde::{Deserialize, Serialize};

/// How many candidates each cascade stage disposed of, plus the DP work
/// actually paid. One `CascadeStats` is produced per query (or per
/// shard/monitor); batch drivers aggregate them with
/// [`CascadeStats::merge`].
///
/// Invariant (asserted by tests): every candidate is accounted for exactly
/// once —
/// `candidates == pruned_kim + pruned_paa + pruned_keogh + pruned_keogh_rev
/// + abandoned + dp_completed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CascadeStats {
    /// Cascade entries considered (corpus entries per query, or window
    /// visits per search).
    pub candidates: u64,
    /// Dropped by the O(1) LB_Kim endpoint/extremum bound.
    pub pruned_kim: u64,
    /// Dropped by the coarse PAA pre-filter (segment means against the
    /// coarse envelope tube).
    pub pruned_paa: u64,
    /// Dropped by LB_Keogh (samples vs the other side's precomputed
    /// envelope).
    pub pruned_keogh: u64,
    /// Dropped by the reversed LB_Keogh (the other side's samples vs
    /// this side's range over the rows the band lets each column meet)
    /// — the second chance when the first direction is too loose or
    /// does not apply.
    pub pruned_keogh_rev: u64,
    /// Candidates for which at least one configured sample-phase stage
    /// didn't satisfy its admissibility conditions (unequal lengths, or
    /// a band escaping the envelope window); they skip the inapplicable
    /// stages on their way to the DP. Not a disposal — informational
    /// only.
    pub lb_inapplicable: u64,
    /// DP runs cut short by early abandoning against the best-so-far.
    /// Adaptive-band stream sweeps also count here the windows they
    /// dispose of before extraction: full-grid screen lanes that
    /// abandon, and screened windows left undecided because their floor
    /// (their full-grid distance, or a floor an earlier pass recorded)
    /// came to exceed the threshold, after a decision or at the end of
    /// the pass.
    pub abandoned: u64,
    /// DP runs carried to completion (the only candidates that could enter
    /// the top-k).
    pub dp_completed: u64,
    /// DP cells filled across all runs (abandoned runs are charged their
    /// full band conservatively), the full-grid screens of adaptive
    /// stream sweeps included.
    pub cells_filled: u64,
}

impl CascadeStats {
    /// Folds another stats record into this one. This is how parallel
    /// shards, monitor banks, and batch drivers aggregate per-worker
    /// counts: every counter sums.
    pub fn merge(&mut self, other: &CascadeStats) {
        self.candidates += other.candidates;
        self.pruned_kim += other.pruned_kim;
        self.pruned_paa += other.pruned_paa;
        self.pruned_keogh += other.pruned_keogh;
        self.pruned_keogh_rev += other.pruned_keogh_rev;
        self.lb_inapplicable += other.lb_inapplicable;
        self.abandoned += other.abandoned;
        self.dp_completed += other.dp_completed;
        self.cells_filled += other.cells_filled;
    }

    /// Records a DP run cut short by early abandoning; the abandoning run
    /// still paid for part of the grid, so the full band is charged
    /// conservatively.
    pub fn record_abandoned(&mut self, band_area: usize) {
        self.abandoned += 1;
        self.cells_filled += band_area as u64;
    }

    /// Records a DP run carried to completion.
    pub fn record_completed(&mut self, cells_filled: usize) {
        self.dp_completed += 1;
        self.cells_filled += cells_filled as u64;
    }

    /// Candidates disposed of before the DP stage.
    pub fn pruned_before_dp(&self) -> u64 {
        self.pruned_kim + self.pruned_paa + self.pruned_keogh + self.pruned_keogh_rev
    }

    /// Fraction of candidates that never ran the DP to completion
    /// (lower-bound prunes + abandoned runs), in `[0, 1]`.
    pub fn prune_rate(&self) -> f64 {
        if self.candidates == 0 {
            return 0.0;
        }
        (self.pruned_before_dp() + self.abandoned) as f64 / self.candidates as f64
    }

    /// Whether every candidate is accounted for by exactly one disposal.
    pub fn is_consistent(&self) -> bool {
        self.candidates == self.pruned_before_dp() + self.abandoned + self.dp_completed
    }
}

/// What one subsequence search (or one monitor session) did: the shared
/// per-stage [`CascadeStats`] plus the window-level counters the
/// subsequence workload adds on top (multi-pass sweeps, exclusion-zone
/// skips, visits answered from the per-window records).
///
/// `cascade.candidates` counts *cascade entries* — window visits that ran
/// the LB_Kim → LB_Keogh → DP pipeline — so the [`CascadeStats`]
/// consistency invariant (`candidates == pruned + abandoned +
/// dp_completed`) carries over verbatim. Visits resolved without entering
/// the cascade are counted here instead.
///
/// This is also the counter block every [`QueryTrace`](crate::QueryTrace)
/// embeds: non-stream workloads simply leave the window-level counters at
/// zero, so one shape serves every workload kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Distinct windows of the searched series (offsets `0 ..= n - m`),
    /// or windows completed by the monitor so far.
    pub windows: u64,
    /// Sweep passes over the windows (the batch matcher runs up to `k`;
    /// a monitor is a single endless pass).
    pub passes: u32,
    /// Window visits skipped because the offset lies inside the exclusion
    /// zone of an already-selected match.
    pub skipped_excluded: u64,
    /// Window visits answered from the search's per-window records
    /// without entering the cascade: later passes revisit windows the
    /// earlier passes already scored, or already showed to lie above
    /// the pass's threshold (a floor from a prune, an abandon or a
    /// full-grid screen).
    pub cache_hits: u64,
    /// The shared cascade accounting (LB_Kim / LB_Keogh prunes, early
    /// abandons, completed DPs, cells filled).
    pub cascade: CascadeStats,
}

impl StreamStats {
    /// Folds another search's accounting into this one — how parallel
    /// shards and monitor banks aggregate instead of dropping counts.
    /// Window-level counters and the nested [`CascadeStats`] sum;
    /// `passes` takes the maximum, because merged participants sweep
    /// *concurrently* (every shard of one parallel scan runs the same
    /// pass, and every monitor of a bank is its own single endless
    /// pass), so summing would overstate the pass count.
    pub fn merge(&mut self, other: &StreamStats) {
        self.windows += other.windows;
        self.passes = self.passes.max(other.passes);
        self.skipped_excluded += other.skipped_excluded;
        self.cache_hits += other.cache_hits;
        self.cascade.merge(&other.cascade);
    }

    /// Fraction of cascade entries disposed of before the DP completed
    /// (lower-bound prunes + early abandons), in `[0, 1]`.
    pub fn prune_rate(&self) -> f64 {
        self.cascade.prune_rate()
    }

    /// Fraction of cascade entries disposed of by the lower bounds alone
    /// (before any DP work), in `[0, 1]`.
    pub fn lb_prune_rate(&self) -> f64 {
        if self.cascade.candidates == 0 {
            return 0.0;
        }
        self.cascade.pruned_before_dp() as f64 / self.cascade.candidates as f64
    }

    /// Whether every cascade entry is accounted for by exactly one
    /// disposal (delegates to the shared invariant).
    pub fn is_consistent(&self) -> bool {
        self.cascade.is_consistent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields_and_rates_follow() {
        let mut a = CascadeStats {
            candidates: 10,
            pruned_kim: 4,
            pruned_keogh: 2,
            abandoned: 1,
            dp_completed: 3,
            cells_filled: 120,
            ..CascadeStats::default()
        };
        let b = CascadeStats {
            candidates: 6,
            pruned_kim: 1,
            pruned_paa: 1,
            pruned_keogh_rev: 1,
            abandoned: 0,
            dp_completed: 3,
            cells_filled: 200,
            ..CascadeStats::default()
        };
        assert!(a.is_consistent());
        assert!(b.is_consistent());
        a.merge(&b);
        assert_eq!(a.candidates, 16);
        assert_eq!(a.pruned_before_dp(), 9);
        assert_eq!(a.cells_filled, 320);
        assert!(a.is_consistent());
        assert!((a.prune_rate() - 10.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_consistent_with_zero_rate() {
        let s = CascadeStats::default();
        assert!(s.is_consistent());
        assert_eq!(s.prune_rate(), 0.0);
    }

    #[test]
    fn cascade_stats_roundtrip_through_serde() {
        let s = CascadeStats {
            candidates: 5,
            pruned_kim: 2,
            abandoned: 1,
            dp_completed: 2,
            cells_filled: 77,
            ..CascadeStats::default()
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: CascadeStats = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn record_helpers_account_dp_work() {
        let mut s = CascadeStats {
            candidates: 2,
            ..CascadeStats::default()
        };
        s.record_abandoned(30);
        s.record_completed(25);
        assert_eq!(s.abandoned, 1);
        assert_eq!(s.dp_completed, 1);
        assert_eq!(s.cells_filled, 55);
        assert!(s.is_consistent());
    }

    #[test]
    fn rates_delegate_to_the_shared_cascade() {
        let s = StreamStats {
            windows: 10,
            passes: 2,
            skipped_excluded: 3,
            cache_hits: 2,
            cascade: CascadeStats {
                candidates: 10,
                pruned_kim: 4,
                pruned_keogh: 2,
                abandoned: 1,
                dp_completed: 3,
                ..CascadeStats::default()
            },
        };
        assert!(s.is_consistent());
        assert!((s.prune_rate() - 0.7).abs() < 1e-12);
        assert!((s.lb_prune_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_counters_and_maxes_passes() {
        let a = StreamStats {
            windows: 10,
            passes: 3,
            skipped_excluded: 2,
            cache_hits: 1,
            cascade: CascadeStats {
                candidates: 7,
                pruned_kim: 3,
                pruned_paa: 1,
                abandoned: 1,
                dp_completed: 2,
                cells_filled: 40,
                ..CascadeStats::default()
            },
        };
        let b = StreamStats {
            windows: 5,
            passes: 2,
            skipped_excluded: 4,
            cache_hits: 0,
            cascade: CascadeStats {
                candidates: 5,
                pruned_keogh: 2,
                dp_completed: 3,
                cells_filled: 60,
                ..CascadeStats::default()
            },
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.windows, 15);
        assert_eq!(m.passes, 3, "concurrent sweeps take the max");
        assert_eq!(m.skipped_excluded, 6);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cascade.candidates, 12);
        assert_eq!(m.cascade.cells_filled, 100);
        assert!(m.is_consistent());
    }

    #[test]
    fn empty_stream_stats_are_consistent() {
        let s = StreamStats::default();
        assert!(s.is_consistent());
        assert_eq!(s.prune_rate(), 0.0);
        assert_eq!(s.lb_prune_rate(), 0.0);
    }

    #[test]
    fn stream_stats_roundtrip_through_serde() {
        let s = StreamStats {
            windows: 7,
            passes: 1,
            ..StreamStats::default()
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: StreamStats = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
