//! The composable lower-bound pruning pipeline shared by every cascade
//! consumer in the workspace.
//!
//! Historically the retrieval cascade existed twice: `sdtw_index` ran a
//! per-candidate copy (LB_Kim → LB_Keogh → reversed LB_Keogh → DP) and
//! `sdtw_stream` a per-window copy (rolling LB_Kim → LB_Keogh → DP), each
//! with its own threshold comparisons, applicability checks and stats
//! bookkeeping. This module is the single implementation both build on:
//!
//! * [`PruneStage`] — one admissible lower-bound stage. Evaluating a
//!   stage against a candidate yields *keep* or *prune* (attributed to
//!   the stage's [`StageKind`]); a stage whose admissibility
//!   precondition fails for the pair is *inapplicable* and skipped
//!   (counted once per candidate), and a stage whose inputs are
//!   untrustworthy may *abstain* (rolling statistics; not counted).
//! * [`Cascade`] — the configured stage list plus the metric, run in
//!   two phases per candidate:
//!   [`Cascade::screen_summary`] (O(1) stages that need no band — the
//!   precomputed LB_Kim) and [`Cascade::screen_samples`] (the
//!   sample-level stages, once the pair's band is known). The split
//!   exists because band planning is itself costly and is skipped for
//!   summary-pruned candidates.
//! * [`CascadeStats`] (defined in `sdtw_obs`, the trace's counter
//!   block) — the per-stage accounting, with [`CascadeStats::merge`] so
//!   parallel shards and monitor banks aggregate counts instead of
//!   dropping them.
//! * [`CoarseEnvelope`] — the coarse (PAA) pre-filter artefact: a
//!   fixed-width piecewise-aggregate compression of an LB_Keogh
//!   [`Envelope`], giving a bound that costs `O(len / width)` metric
//!   evaluations after one `O(len)` segment-mean pass.
//!
//! # Admissibility of the PAA pre-filter
//!
//! [`CoarseEnvelope::lower_bound`] never exceeds the fine
//! [`lb_keogh_values`] bound of the same pair, so it inherits LB_Keogh's
//! admissibility (band inside the `±radius` window, equal lengths).
//! Per segment `S` with integer weight `w = |S|`, writing `Û = max_{i∈S}
//! U_i`, `x̄ = mean_{i∈S} x_i` and `d_i = max(x_i − U_i, 0)` for the
//! upper side:
//!
//! * each fine LB_Keogh term is ≥ `metric(d_i)` (it uses `U_i ≤ Û`);
//! * **absolute** metric: `Σ d_i ≥ Σ (x_i − Û) = w·(x̄ − Û)`;
//! * **squared** metric: `Σ d_i² ≥ (Σ d_i)²/w ≥ w·(x̄ − Û)²` by
//!   Cauchy-Schwarz, whenever `x̄ > Û`.
//!
//! So charging `w · metric(x̄, Û)` for segments whose PAA mean escapes
//! the coarse tube (symmetrically `L̂ = min L_i` below) lower-bounds the
//! fine bound. The integer segmentation of
//! [`sdtw_tseries::transform::paa_fixed_values`] — fixed-width
//! segments, with the tail kept whole — is what keeps the weights exact.

use crate::band::Band;
use crate::lower_bound::{lb_keogh_band, lb_keogh_values, Envelope, RangeTable};
use sdtw_obs::CascadeStats;
use sdtw_tseries::transform::paa_fixed_values;
use sdtw_tseries::ElementMetric;
use serde::{Deserialize, Serialize};

/// Identifies the cascade stage that disposed of a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageKind {
    /// O(1) endpoint/extremum bound (LB_Kim).
    Kim,
    /// Coarse piecewise-aggregate (PAA) pre-filter.
    Paa,
    /// LB_Keogh: left samples against the right side's envelope.
    Keogh,
    /// Band-exact reversed LB_Keogh: right samples against the left
    /// side's range over each column's rows.
    KeoghRev,
}

/// One admissible lower-bound stage of a [`Cascade`].
///
/// Stages are configuration, not state: the same stage list is shared by
/// every candidate of a query (and by every clone of a prepared matcher).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PruneStage {
    /// The O(1) LB_Kim stage. It consumes a bound the caller precomputed
    /// (indexes compute it for every entry up front to order visits;
    /// streams maintain it from O(1) rolling statistics), passed to
    /// [`Cascade::screen_summary`]; `None` means the producer abstained.
    ///
    /// `guard` is the relative slack the bound must clear the threshold
    /// by before it may prune — 0 for exactly-computed bounds (strict
    /// comparison, ties survive), a small positive value for bounds
    /// carrying rolling-statistics error (see `sdtw-stream`'s
    /// admissibility argument in DESIGN.md §9).
    Kim {
        /// Relative pruning slack; 0 = exact strict comparison.
        guard: f64,
    },
    /// The coarse PAA pre-filter: PAA of the left samples against the
    /// right side's [`CoarseEnvelope`]. Inapplicable whenever LB_Keogh
    /// is (and when no coarse envelope was supplied).
    Paa,
    /// LB_Keogh of the left samples against the right side's
    /// [`Envelope`]. Inapplicable on unequal lengths or when the band
    /// escapes the envelope's `±radius` window.
    Keogh,
    /// LB_Keogh in the reversed direction, band-exact
    /// ([`crate::lower_bound::lb_keogh_band`]): each right sample against
    /// the min–max range of the left samples over the rows the band lets
    /// its column meet, read from the left side's [`RangeTable`]. The
    /// second chance when the first direction is too loose, and the one
    /// sample-level stage that applies to every (feasible) band and every
    /// pair of lengths: inapplicable only when no table or no band was
    /// supplied. Where the forward stages' window holds it is at least as
    /// tight as the reversed envelope bound.
    KeoghRev,
}

/// Per-candidate inputs of the sample-phase stages
/// ([`Cascade::screen_samples`]). Envelopes and tables that a consumer
/// does not precompute are simply `None`; the stages needing them then
/// report themselves inapplicable.
#[derive(Debug, Clone, Copy)]
pub struct SampleInput<'a> {
    /// Left-side samples, normalised exactly as the DP will see them.
    pub x: &'a [f64],
    /// Right-side samples.
    pub y: &'a [f64],
    /// Envelope of `y` (drives [`PruneStage::Keogh`]).
    pub y_envelope: Option<&'a Envelope>,
    /// Precomputed raw forward LB_Keogh bound of `x` against
    /// `y_envelope`, produced by one of the batched lane loops
    /// ([`crate::lower_bound::lb_keogh_batch`] /
    /// [`crate::lower_bound::lb_keogh_batch_windows`], bit-identical to
    /// the scalar bound by construction). When present and the Keogh
    /// stage is applicable, the stage consumes it instead of recomputing;
    /// the stage's own applicability check stays authoritative, so a
    /// stray value on an inapplicable candidate is ignored.
    pub y_keogh_raw: Option<f64>,
    /// Range-min/max table over `x` (drives [`PruneStage::KeoghRev`]).
    pub x_ranges: Option<&'a RangeTable>,
    /// The pair's band, feasible as the DP will run it (drives
    /// [`PruneStage::KeoghRev`], which reads each column's rows from it).
    pub band: Option<&'a Band>,
    /// Coarse envelope of `y` (drives [`PruneStage::Paa`]).
    pub y_coarse: Option<&'a CoarseEnvelope>,
}

/// Reusable buffers for per-candidate stage work (the PAA segment means
/// and the reversed bound's per-column row counts). Keep one per
/// worker/monitor, like a DP scratch.
#[derive(Debug, Clone, Default)]
pub struct CascadeScratch {
    paa: Vec<f64>,
    counts: Vec<[usize; 2]>,
}

impl CascadeScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Default segment width of the coarse PAA pre-filter, in the kNN index
/// and the subsequence matcher alike.
pub const DEFAULT_PAA_WIDTH: usize = 8;

/// Fixed-width PAA compression of an LB_Keogh [`Envelope`]: per segment,
/// the maximum of the upper envelope and the minimum of the lower one —
/// the loosest tube any sample of the segment lives in, which is what
/// makes [`CoarseEnvelope::lower_bound`] a lower bound of the fine
/// LB_Keogh (see the module docs for the argument).
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseEnvelope {
    /// `upper[j] = max(env.upper[j·width .. (j+1)·width])`.
    upper: Vec<f64>,
    /// `lower[j] = min(env.lower[j·width .. (j+1)·width])`.
    lower: Vec<f64>,
    /// Segment width (≥ 2; the tail segment may be shorter).
    width: usize,
    /// Length of the series the source envelope was built over.
    source_len: usize,
    /// The source envelope's window radius (the stage's admissibility
    /// condition is inherited from it).
    radius: usize,
}

impl CoarseEnvelope {
    /// Compresses an envelope into segments of `width` samples.
    ///
    /// # Panics
    ///
    /// Panics when `width < 2` (a width of 1 is the fine envelope —
    /// use [`PruneStage::Keogh`] directly) or the envelope is empty.
    pub fn build(env: &Envelope, width: usize) -> Self {
        assert!(width >= 2, "coarse envelope needs a width of at least 2");
        let n = env.upper.len();
        assert!(n > 0, "coarse envelope needs a non-empty envelope");
        let mut upper = Vec::with_capacity(n.div_ceil(width));
        let mut lower = Vec::with_capacity(n.div_ceil(width));
        let mut j = 0;
        while j < n {
            let hi = (j + width).min(n);
            upper.push(env.upper[j..hi].iter().cloned().fold(f64::MIN, f64::max));
            lower.push(env.lower[j..hi].iter().cloned().fold(f64::MAX, f64::min));
            j = hi;
        }
        Self {
            upper,
            lower,
            width,
            source_len: n,
            radius: env.radius,
        }
    }

    /// Segment width the envelope was compressed with.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The per-segment upper tube (`max` of the source envelope's upper
    /// side over each segment).
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// The per-segment lower tube (`min` of the source envelope's lower
    /// side over each segment).
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Length of the series the source envelope covered.
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// The source envelope's window radius.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// The coarse (PAA) lower bound of `x` against this tube, in raw
    /// accumulated-cost units. `x` must have the source length (the
    /// cascade checks this before calling); `paa_buf` receives the
    /// segment means.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch (programmer error — the cascade's
    /// applicability check guards it).
    pub fn lower_bound(&self, x: &[f64], metric: ElementMetric, paa_buf: &mut Vec<f64>) -> f64 {
        assert_eq!(x.len(), self.source_len, "PAA bound needs equal lengths");
        paa_fixed_values(x, self.width, paa_buf);
        debug_assert_eq!(paa_buf.len(), self.upper.len());
        let mut acc = 0.0;
        for (j, &mean) in paa_buf.iter().enumerate() {
            // the tail segment's weight is whatever is left of the series
            let weight = self.width.min(self.source_len - j * self.width) as f64;
            if mean > self.upper[j] {
                acc += weight * metric.eval(mean, self.upper[j]);
            } else if mean < self.lower[j] {
                acc += weight * metric.eval(mean, self.lower[j]);
            }
        }
        acc
    }
}

/// A configured pruning cascade: the ordered stage list plus the metric
/// its bounds are computed under. Bounds compare with thresholds in raw
/// accumulated cost, the units every kernel reports its distance in,
/// and every kernel [`crate::KernelChoice`] offers dominates the
/// symmetric1 cost they bound.
///
/// The cascade is stateless per candidate — accounting lands in a
/// caller-owned [`CascadeStats`], scratch buffers in a caller-owned
/// [`CascadeScratch`] — so one instance serves a whole query, a cloned
/// matcher, or a rayon worker without synchronisation.
///
/// Per candidate the driving loop is:
///
/// 1. [`Cascade::screen_summary`] with the precomputed O(1) bound —
///    prunes without planning a band;
/// 2. plan (or adopt) the pair's band;
/// 3. [`Cascade::screen_samples`] with the sample-phase inputs;
/// 4. run the early-abandoned DP, recording the outcome via
///    [`CascadeStats::record_abandoned`] /
///    [`CascadeStats::record_completed`].
#[derive(Debug, Clone)]
pub struct Cascade {
    stages: Vec<PruneStage>,
    metric: ElementMetric,
}

impl Cascade {
    /// Builds a cascade over the given stage list.
    pub fn new(stages: Vec<PruneStage>, metric: ElementMetric) -> Self {
        Self { stages, metric }
    }

    /// The configured stage list.
    pub fn stages(&self) -> &[PruneStage] {
        &self.stages
    }

    /// Whether a Kim bound prunes against `threshold` under `guard`
    /// relative slack (0 = exact strict comparison; ties must survive
    /// either way).
    fn kim_prunes(kim: f64, threshold: f64, guard: f64) -> bool {
        if guard == 0.0 {
            kim > threshold
        } else {
            kim > threshold + guard * (1.0 + threshold.abs() + kim)
        }
    }

    /// Phase 1 of a candidate: opens its accounting (`candidates`) and
    /// runs the summary stages against the caller-precomputed LB_Kim
    /// bound (`None` = the producer abstained — rolling statistics in an
    /// untrustworthy regime).
    ///
    /// Returns the pruning stage, or `None` when the candidate survives
    /// (proceed to band planning and [`Cascade::screen_samples`]).
    pub fn screen_summary(
        &self,
        stats: &mut CascadeStats,
        kim: Option<f64>,
        threshold: f64,
    ) -> Option<StageKind> {
        stats.candidates += 1;
        for stage in &self.stages {
            if let PruneStage::Kim { guard } = stage {
                if let Some(kim) = kim {
                    if Self::kim_prunes(kim, threshold, *guard) {
                        stats.pruned_kim += 1;
                        return Some(StageKind::Kim);
                    }
                }
            }
        }
        None
    }

    /// Phase 2 of a candidate: the sample-level stages, in configured
    /// order. `band_reach` is the [`crate::Band::reach`] of the pair's
    /// (sanitised) band: an envelope stage applies only when it is at
    /// most the envelope's radius. Callers compute it once per band, so
    /// one band shared by many candidates is walked once. The
    /// band-exact reversed stage reads the band itself
    /// ([`SampleInput::band`]) and needs no reach. A stage whose
    /// admissibility precondition fails is skipped; if any stage was
    /// skipped that way the candidate is charged one `lb_inapplicable`
    /// (informational — it still proceeds to the DP).
    ///
    /// Returns the pruning stage, or `None` when the DP must decide.
    pub fn screen_samples(
        &self,
        stats: &mut CascadeStats,
        input: &SampleInput,
        band_reach: usize,
        threshold: f64,
        scratch: &mut CascadeScratch,
    ) -> Option<StageKind> {
        let (n, m) = (input.x.len(), input.y.len());
        let mut inapplicable = false;
        for stage in &self.stages {
            let evaluated: Option<(StageKind, f64)> = match stage {
                PruneStage::Kim { .. } => continue,
                PruneStage::Paa => match input.y_coarse {
                    Some(c) if n == m && c.source_len() == m && band_reach <= c.radius() => {
                        let bound = c.lower_bound(input.x, self.metric, &mut scratch.paa);
                        Some((StageKind::Paa, bound))
                    }
                    _ => None,
                },
                PruneStage::Keogh => match input.y_envelope {
                    Some(env) if n == m && band_reach <= env.radius => {
                        let bound = input
                            .y_keogh_raw
                            .unwrap_or_else(|| lb_keogh_values(input.x, env, self.metric));
                        Some((StageKind::Keogh, bound))
                    }
                    _ => None,
                },
                PruneStage::KeoghRev => match (input.x_ranges, input.band) {
                    (Some(table), Some(band))
                        if table.len() == n && band.n() == n && band.m() == m =>
                    {
                        let bound =
                            lb_keogh_band(input.y, table, band, self.metric, &mut scratch.counts);
                        Some((StageKind::KeoghRev, bound))
                    }
                    _ => None,
                },
            };
            match evaluated {
                None => inapplicable = true,
                // strict comparisons throughout: a candidate tying the
                // threshold must still be examined — tie-breaks decide it
                Some((kind, bound)) if bound > threshold => {
                    match kind {
                        StageKind::Kim => unreachable!("Kim is a summary stage"),
                        StageKind::Paa => stats.pruned_paa += 1,
                        StageKind::Keogh => stats.pruned_keogh += 1,
                        StageKind::KeoghRev => stats.pruned_keogh_rev += 1,
                    }
                    return Some(kind);
                }
                Some(_) => {}
            }
        }
        if inapplicable {
            stats.lb_inapplicable += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bound::Envelope;
    use crate::sakoe::sakoe_chiba_band;

    fn seeded(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }
    }

    #[test]
    fn coarse_envelope_compresses_to_the_loosest_tube() {
        let env = Envelope {
            upper: vec![1.0, 3.0, 2.0, 5.0, 4.0],
            lower: vec![-1.0, 0.0, -2.0, 1.0, 0.5],
            radius: 2,
        };
        let coarse = CoarseEnvelope::build(&env, 2);
        assert_eq!(coarse.width(), 2);
        assert_eq!(coarse.source_len(), 5);
        assert_eq!(coarse.radius(), 2);
        assert_eq!(coarse.upper, vec![3.0, 5.0, 4.0]);
        assert_eq!(coarse.lower, vec![-1.0, -2.0, 0.5]);
    }

    #[test]
    fn paa_bound_never_exceeds_lb_keogh_on_seeded_pairs() {
        // the admissibility chain the pre-filter stage rests on:
        // coarse PAA bound <= fine LB_Keogh, for both metrics, across
        // segment widths that do and don't divide the length
        let mut rng = seeded(0xc0a3);
        for metric in [ElementMetric::Squared, ElementMetric::Absolute] {
            for width in [2usize, 3, 4, 8] {
                for _ in 0..10 {
                    let n = 45;
                    let x: Vec<f64> = (0..n).map(|_| 2.0 * rng()).collect();
                    let y: Vec<f64> = (0..n).map(|_| 2.0 * rng()).collect();
                    let env = Envelope::build_from_values(&y, 4);
                    let coarse = CoarseEnvelope::build(&env, width);
                    let fine = lb_keogh_values(&x, &env, metric);
                    let paa = coarse.lower_bound(&x, metric, &mut Vec::new());
                    assert!(
                        paa <= fine + 1e-9,
                        "PAA bound {paa} exceeded LB_Keogh {fine} (w={width}, {metric:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn paa_bound_is_zero_when_the_means_stay_inside_the_tube() {
        let y = vec![0.0, 1.0, 2.0, 1.0, 0.0, -1.0];
        let env = Envelope::build_from_values(&y, 3);
        let coarse = CoarseEnvelope::build(&env, 2);
        let bound = coarse.lower_bound(&y, ElementMetric::Squared, &mut Vec::new());
        assert_eq!(bound, 0.0, "a series is inside its own tube");
    }

    #[test]
    fn cascade_prunes_and_accounts_each_stage() {
        let metric = ElementMetric::Squared;
        let n = 16;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<f64> = vec![100.0; n];
        let env = Envelope::build_from_values(&y, 2);
        let x_ranges = RangeTable::build(&x);
        let coarse = CoarseEnvelope::build(&env, 4);
        let band = sakoe_chiba_band(n, n, 0.25);
        let cascade = Cascade::new(
            vec![
                PruneStage::Kim { guard: 0.0 },
                PruneStage::Paa,
                PruneStage::Keogh,
                PruneStage::KeoghRev,
            ],
            metric,
        );
        let input = SampleInput {
            x: &x,
            y: &y,
            y_envelope: Some(&env),
            y_keogh_raw: None,
            x_ranges: Some(&x_ranges),
            band: Some(&band),
            y_coarse: Some(&coarse),
        };
        let mut scratch = CascadeScratch::new();

        // a tiny threshold: the Kim bound disposes of the candidate
        let mut stats = CascadeStats::default();
        let verdict = cascade.screen_summary(&mut stats, Some(5.0), 1.0);
        assert_eq!(verdict, Some(StageKind::Kim));
        assert_eq!(stats.pruned_kim, 1);
        assert!(stats.is_consistent());

        // Kim abstains; the PAA stage catches it at the sample phase
        let mut stats = CascadeStats::default();
        assert_eq!(cascade.screen_summary(&mut stats, None, 1.0), None);
        let verdict = cascade.screen_samples(&mut stats, &input, band.reach(), 1.0, &mut scratch);
        assert_eq!(verdict, Some(StageKind::Paa));
        assert_eq!(stats.pruned_paa, 1);
        assert!(stats.is_consistent());

        // a huge threshold: nothing prunes, the DP must decide
        let mut stats = CascadeStats::default();
        assert_eq!(cascade.screen_summary(&mut stats, Some(5.0), 1e12), None);
        let verdict = cascade.screen_samples(&mut stats, &input, band.reach(), 1e12, &mut scratch);
        assert_eq!(verdict, None);
        assert_eq!(stats.lb_inapplicable, 0);
        stats.record_completed(64);
        assert!(stats.is_consistent());
    }

    #[test]
    fn inapplicable_stages_are_counted_once_per_candidate() {
        let n = 12;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y = x.clone();
        // a radius-0 envelope with a wide band: every envelope stage is
        // inapplicable, but the candidate is charged only once
        let env = Envelope::build_from_values(&y, 0);
        let coarse = CoarseEnvelope::build(&env, 3);
        let band = sakoe_chiba_band(n, n, 0.5);
        assert!(!band.within_window(0));
        let cascade = Cascade::new(
            vec![PruneStage::Paa, PruneStage::Keogh, PruneStage::KeoghRev],
            ElementMetric::Squared,
        );
        let input = SampleInput {
            x: &x,
            y: &y,
            y_envelope: Some(&env),
            y_keogh_raw: None,
            x_ranges: None,
            band: Some(&band),
            y_coarse: Some(&coarse),
        };
        let mut stats = CascadeStats {
            candidates: 1,
            ..CascadeStats::default()
        };
        let verdict = cascade.screen_samples(
            &mut stats,
            &input,
            band.reach(),
            0.0,
            &mut CascadeScratch::new(),
        );
        assert_eq!(verdict, None);
        assert_eq!(stats.lb_inapplicable, 1);
    }

    #[test]
    fn the_reversed_stage_applies_where_the_envelope_stages_do_not() {
        // unequal lengths and a band far outside the radius-1 window:
        // only the band-exact reversed bound applies, and it prunes
        let (n, m) = (12, 20);
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<f64> = vec![100.0; m];
        let env = Envelope::build_from_values(&y, 1);
        let x_ranges = RangeTable::build(&x);
        let band = Band::full(n, m);
        let cascade = Cascade::new(
            vec![PruneStage::Keogh, PruneStage::KeoghRev],
            ElementMetric::Squared,
        );
        let mut input = SampleInput {
            x: &x,
            y: &y,
            y_envelope: Some(&env),
            y_keogh_raw: None,
            x_ranges: Some(&x_ranges),
            band: Some(&band),
            y_coarse: None,
        };
        let mut scratch = CascadeScratch::new();
        let mut stats = CascadeStats::default();
        let verdict = cascade.screen_samples(&mut stats, &input, band.reach(), 1.0, &mut scratch);
        assert_eq!(verdict, Some(StageKind::KeoghRev));
        assert_eq!((stats.pruned_keogh_rev, stats.lb_inapplicable), (1, 0));
        // every column is at least 100 − 11 from the whole of x
        let raw = lb_keogh_band(
            &y,
            &x_ranges,
            &band,
            ElementMetric::Squared,
            &mut Vec::new(),
        );
        assert_eq!(raw, m as f64 * 89.0 * 89.0);
        // without its band the stage is inapplicable too
        input.band = None;
        let mut stats = CascadeStats::default();
        let verdict = cascade.screen_samples(&mut stats, &input, band.reach(), 1.0, &mut scratch);
        assert_eq!(verdict, None);
        assert_eq!(stats.lb_inapplicable, 1);
    }

    #[test]
    fn guarded_kim_comparison_is_conservative() {
        // with a guard the bound must clear the threshold by the slack;
        // without one the comparison is exactly strict
        assert!(Cascade::kim_prunes(1.0 + 1e-6, 1.0, 0.0));
        assert!(!Cascade::kim_prunes(1.0, 1.0, 0.0), "ties survive");
        assert!(!Cascade::kim_prunes(1.0 + 1e-9, 1.0, 1e-7));
        assert!(Cascade::kim_prunes(1.1, 1.0, 1e-7));
        // infinite thresholds never prune, guarded or not
        assert!(!Cascade::kim_prunes(1e300, f64::INFINITY, 0.0));
        assert!(!Cascade::kim_prunes(1e300, f64::INFINITY, 1e-7));
    }

    #[test]
    #[should_panic(expected = "width of at least 2")]
    fn coarse_envelope_rejects_fine_widths() {
        let env = Envelope::build_from_values(&[0.0, 1.0], 1);
        let _ = CoarseEnvelope::build(&env, 1);
    }
}
