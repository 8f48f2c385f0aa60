//! The `SDtw` front-end: configuration, the [`SDtw::query`] execution
//! path, outcome introspection.
//!
//! All distance computation flows through the [`crate::query::Query`]
//! builder (`SDtw::query(&x, &y).….run()`).

use crate::constraint::build_band;
use crate::policy::{BandSymmetry, ConstraintPolicy};
use sdtw_align::{
    match_onto_prepared, match_prepared, IntervalPartition, MatchConfig, MatchResult,
    PreparedFeatures,
};
use sdtw_dtw::engine::DtwOptions;
use sdtw_dtw::{Band, WarpPath};
use sdtw_salient::{SalientConfig, SalientExtractor, SalientFeature};
use sdtw_tseries::TsError;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Full configuration of an [`SDtw`] engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SDtwConfig {
    /// Salient feature extraction parameters (step 1).
    pub salient: SalientConfig,
    /// Feature matching thresholds (step 2).
    pub matching: MatchConfig,
    /// Which constraint family shapes the band (step 3).
    pub policy: ConstraintPolicy,
    /// Asymmetric (paper default) or symmetric-by-union band construction.
    pub symmetry: BandSymmetry,
    /// DP options: element metric, warp-path computation, cost kernel.
    pub dtw: DtwOptions,
}

impl Default for SDtwConfig {
    fn default() -> Self {
        Self {
            salient: SalientConfig::default(),
            matching: MatchConfig::default(),
            policy: ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
            symmetry: BandSymmetry::Asymmetric,
            dtw: DtwOptions::default(),
        }
    }
}

impl SDtwConfig {
    /// Validates all nested configuration.
    ///
    /// # Errors
    ///
    /// The first [`TsError::InvalidParameter`] found.
    pub fn validate(&self) -> Result<(), TsError> {
        self.salient.validate()?;
        self.matching.validate()?;
        self.policy.validate()?;
        self.dtw.validate()?;
        Ok(())
    }
}

/// Wall-clock decomposition of one distance computation — the quantities
/// behind the paper's Figure 17 (matching vs dynamic programming time) and
/// the `time*` terms of §4.2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Salient feature extraction when it happened **in this call**:
    /// `None` on the cached/supplied-features paths (the paper treats
    /// extraction as a one-time indexable cost, so a cache hit has no
    /// extraction phase at all — it is absent, not zero), `Some` when the
    /// call extracted (including a `FeatureStore` miss, which attributes
    /// the one-time cost to exactly one call).
    pub extraction: Option<Duration>,
    /// Matching + inconsistency pruning + band construction.
    pub matching: Duration,
    /// Banded dynamic programming + traceback.
    pub dynamic_programming: Duration,
}

impl PhaseTiming {
    /// Total per-pair cost under the paper's accounting: matching + DP
    /// (extraction is amortised across all comparisons of a series).
    pub fn per_pair(&self) -> Duration {
        self.matching + self.dynamic_programming
    }

    /// Total including any extraction attributed to this call.
    pub fn total(&self) -> Duration {
        self.extraction.unwrap_or_default() + self.per_pair()
    }

    /// Derives the three-phase view from trace spans — the canonical
    /// attribution now lives in [`sdtw_obs::SpanRecord`]s and this struct
    /// is a projection of them: `Extraction` spans sum into
    /// [`PhaseTiming::extraction`] (absent when none ran, preserving the
    /// cache-hit semantics above), `BandPlan` into
    /// [`PhaseTiming::matching`], `DpFill` into
    /// [`PhaseTiming::dynamic_programming`]. Other phases (lower-bound
    /// screens, merges) have no slot here and are ignored.
    pub fn from_spans<'s>(spans: impl IntoIterator<Item = &'s sdtw_obs::SpanRecord>) -> Self {
        let mut timing = PhaseTiming::default();
        for span in spans {
            match span.phase {
                sdtw_obs::TracePhase::Extraction => {
                    timing.extraction = Some(timing.extraction.unwrap_or_default() + span.duration);
                }
                sdtw_obs::TracePhase::BandPlan => timing.matching += span.duration,
                sdtw_obs::TracePhase::DpFill => timing.dynamic_programming += span.duration,
                _ => {}
            }
        }
        timing
    }
}

/// Outcome of one sDTW distance computation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SDtwOutcome {
    /// The constrained DTW distance (≥ the optimal full-grid distance
    /// under the same kernel).
    pub distance: f64,
    /// Optimal warp path within the band, when requested via
    /// [`DtwOptions::compute_path`] or [`crate::query::Query::path`].
    pub path: Option<WarpPath>,
    /// DP cells filled (= sanitised band area) — deterministic work proxy.
    pub cells_filled: usize,
    /// Band area before accounting (same as `cells_filled`; kept for
    /// symmetry with `band_coverage`).
    pub band_area: usize,
    /// Fraction of the full `N × M` grid the band covers.
    pub band_coverage: f64,
    /// Matched pairs before inconsistency pruning.
    pub raw_pairs: usize,
    /// Matched pairs after inconsistency pruning.
    pub consistent_pairs: usize,
    /// Descriptor comparisons performed during matching.
    pub descriptor_comparisons: usize,
    /// Per-phase wall-clock timing.
    pub timing: PhaseTiming,
}

/// The sDTW engine (paper §3 end to end).
///
/// Construct once with a validated config, then call [`SDtw::query`] per
/// pair — features (extract vs cached), band override, warp path,
/// early-abandon cutoff, scratch reuse and kernel choice are orthogonal
/// builder options (see [`crate::query::Query`]).
///
/// The engine prepares its [`SalientExtractor`] once; clones share it, so
/// every matcher or index built on one engine extracts through the same
/// kernels and tables.
#[derive(Debug, Clone)]
pub struct SDtw {
    config: SDtwConfig,
    extractor: Arc<SalientExtractor>,
}

impl SDtw {
    /// Creates an engine after validating the configuration.
    ///
    /// # Errors
    ///
    /// Any nested configuration validation error.
    pub fn new(config: SDtwConfig) -> Result<Self, TsError> {
        config.validate()?;
        let extractor = Arc::new(SalientExtractor::new(config.salient.clone())?);
        Ok(Self { config, extractor })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SDtwConfig {
        &self.config
    }

    /// The salient-feature extractor for `config().salient`, shared by
    /// every clone of this engine.
    pub fn extractor(&self) -> &SalientExtractor {
        &self.extractor
    }

    /// Builds the band this engine would use for a pair (exposed for
    /// introspection, visualisation, the experiment harness and retrieval
    /// cascades that screen the band with lower bounds before paying for
    /// the DP — pass the result back via [`crate::query::Query::band`]).
    /// Returns the matching result when the policy required alignment.
    ///
    /// Prepares `fx` and runs [`SDtw::plan_band_prepared`]; prepare once
    /// instead when one series is planned against many.
    ///
    /// # Panics
    ///
    /// When descriptor lengths differ (see [`sdtw_align::match_features`]).
    pub fn plan_band(
        &self,
        fx: &[SalientFeature],
        fy: &[SalientFeature],
        n: usize,
        m: usize,
    ) -> (Band, Option<MatchResult>) {
        self.plan_band_prepared(&PreparedFeatures::new(fx), fy, n, m)
    }

    /// [`SDtw::plan_band`] with the first series' features prepared.
    ///
    /// # Panics
    ///
    /// When descriptor lengths differ (see [`sdtw_align::match_features`]).
    pub fn plan_band_prepared(
        &self,
        fx: &PreparedFeatures,
        fy: &[SalientFeature],
        n: usize,
        m: usize,
    ) -> (Band, Option<MatchResult>) {
        if !self.config.policy.needs_alignment() {
            let trivial = IntervalPartition::from_cuts(vec![], vec![], n, m);
            return (build_band(&self.config.policy, &trivial, n, m), None);
        }
        let forward = match_prepared(fx, fy, n, m, &self.config.matching);
        let band = build_band(&self.config.policy, &forward.partition, n, m);
        let band = match self.config.symmetry {
            BandSymmetry::Asymmetric => band,
            BandSymmetry::Union => {
                let backward = match_onto_prepared(fy, fx, m, n, &self.config.matching);
                let back_band = build_band(&self.config.policy, &backward.partition, m, n);
                band.union(&back_band.transpose()).sanitize()
            }
        };
        (band, Some(forward))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdtw_dtw::engine::{dtw_full, DtwScratch};
    use sdtw_dtw::KernelChoice;
    use sdtw_salient::extract_features;
    use sdtw_tseries::{TimeSeries, WarpMap};

    /// Deterministic pair: two warped instances of a multi-feature proto.
    fn warped_pair(n: usize, m: usize) -> (TimeSeries, TimeSeries) {
        let proto = TimeSeries::new(
            (0..n)
                .map(|i| {
                    let t = i as f64;
                    let a = (t - n as f64 * 0.25) / (n as f64 * 0.04);
                    let b = (t - n as f64 * 0.7) / (n as f64 * 0.07);
                    (-a * a / 2.0).exp() + 0.7 * (-b * b / 2.0).exp() + 0.05 * (t / 11.0).sin()
                })
                .collect(),
        )
        .unwrap();
        let warp = WarpMap::from_anchors(&[(0.5, 0.40)]).unwrap();
        let y = warp.apply(&proto, m).unwrap();
        (proto, y)
    }

    fn engine(policy: ConstraintPolicy) -> SDtw {
        SDtw::new(SDtwConfig {
            policy,
            ..SDtwConfig::default()
        })
        .unwrap()
    }

    /// Builder shorthand: run to completion with on-the-fly extraction.
    fn dist(eng: &SDtw, x: &TimeSeries, y: &TimeSeries) -> SDtwOutcome {
        eng.query(x, y)
            .run()
            .unwrap()
            .expect("no cutoff configured")
    }

    #[test]
    fn full_grid_policy_equals_optimal_dtw() {
        let (x, y) = warped_pair(160, 160);
        let out = dist(&engine(ConstraintPolicy::FullGrid), &x, &y);
        let full = dtw_full(&x, &y, &DtwOptions::default());
        assert_eq!(out.distance, full.distance);
        assert_eq!(out.cells_filled, 160 * 160);
        assert_eq!(out.raw_pairs, 0, "no matching for the full grid");
    }

    #[test]
    fn all_policies_upper_bound_the_optimum() {
        let (x, y) = warped_pair(150, 170);
        let optimal = dtw_full(&x, &y, &DtwOptions::default()).distance;
        for policy in [
            ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.1 },
            ConstraintPolicy::Itakura { slope: 2.0 },
            ConstraintPolicy::fixed_core_adaptive_width(),
            ConstraintPolicy::adaptive_core_fixed_width(0.1),
            ConstraintPolicy::adaptive_core_adaptive_width(),
            ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
        ] {
            let out = dist(&engine(policy), &x, &y);
            assert!(
                out.distance >= optimal - 1e-9,
                "{}: {} < optimal {optimal}",
                policy.label(),
                out.distance
            );
            assert!(out.band_coverage <= 1.0);
        }
    }

    #[test]
    fn adaptive_core_tracks_shift_better_than_fixed_core() {
        // A strong time shift: the diagonal band misses the true alignment,
        // the adaptive core follows it. Same fixed width for both.
        let (x, y) = warped_pair(200, 200);
        let optimal = dtw_full(&x, &y, &DtwOptions::default()).distance;
        let fc = dist(
            &engine(ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.06 }),
            &x,
            &y,
        );
        let ac = dist(
            &engine(ConstraintPolicy::adaptive_core_fixed_width(0.06)),
            &x,
            &y,
        );
        let fc_err = (fc.distance - optimal) / optimal.max(1e-12);
        let ac_err = (ac.distance - optimal) / optimal.max(1e-12);
        assert!(
            ac_err <= fc_err,
            "adaptive-core error {ac_err} should not exceed fixed-core error {fc_err}"
        );
        assert!(ac.consistent_pairs > 0, "alignment evidence was found");
    }

    #[test]
    fn banded_policies_fill_fewer_cells_than_full() {
        let (x, y) = warped_pair(180, 180);
        let full_cells = 180 * 180;
        for policy in [
            ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.1 },
            ConstraintPolicy::adaptive_core_fixed_width(0.1),
            ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
        ] {
            let out = dist(&engine(policy), &x, &y);
            assert!(
                out.cells_filled < full_cells,
                "{} filled {} of {}",
                policy.label(),
                out.cells_filled,
                full_cells
            );
        }
    }

    #[test]
    fn identical_series_have_zero_distance_under_all_policies() {
        let (x, _) = warped_pair(150, 150);
        for policy in [
            ConstraintPolicy::FullGrid,
            ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.06 },
            ConstraintPolicy::fixed_core_adaptive_width(),
            ConstraintPolicy::adaptive_core_fixed_width(0.06),
            ConstraintPolicy::adaptive_core_adaptive_width(),
        ] {
            let out = dist(&engine(policy), &x, &x);
            assert!(
                out.distance.abs() < 1e-9,
                "{}: self-distance {}",
                policy.label(),
                out.distance
            );
        }
    }

    #[test]
    fn symmetric_union_band_contains_asymmetric_band() {
        let (x, y) = warped_pair(140, 160);
        let base = SDtwConfig {
            policy: ConstraintPolicy::adaptive_core_adaptive_width(),
            ..SDtwConfig::default()
        };
        let asym = SDtw::new(base.clone()).unwrap();
        let sym = SDtw::new(SDtwConfig {
            symmetry: BandSymmetry::Union,
            ..base
        })
        .unwrap();
        let fx = extract_features(&x, &asym.config().salient).unwrap();
        let fy = extract_features(&y, &asym.config().salient).unwrap();
        let (band_a, _) = asym.plan_band(&fx, &fy, x.len(), y.len());
        let (band_s, _) = sym.plan_band(&fx, &fy, x.len(), y.len());
        assert!(band_a.is_subset_of(&band_s));
        // and the symmetric distance can only improve (band is larger)
        let da = dist(&asym, &x, &y).distance;
        let ds = dist(&sym, &x, &y).distance;
        assert!(ds <= da + 1e-9);
    }

    #[test]
    fn symmetric_union_makes_distance_direction_independent() {
        let (x, y) = warped_pair(130, 150);
        let sym = SDtw::new(SDtwConfig {
            policy: ConstraintPolicy::adaptive_core_adaptive_width(),
            symmetry: BandSymmetry::Union,
            ..SDtwConfig::default()
        })
        .unwrap();
        let xy = dist(&sym, &x, &y).distance;
        let yx = dist(&sym, &y, &x).distance;
        assert!(
            (xy - yx).abs() < 1e-9,
            "union-band distance must be symmetric: {xy} vs {yx}"
        );
    }

    #[test]
    fn timing_phases_are_populated() {
        let (x, y) = warped_pair(150, 150);
        let out = dist(
            &engine(ConstraintPolicy::adaptive_core_adaptive_width()),
            &x,
            &y,
        );
        let extraction = out.timing.extraction.expect("extracted in this call");
        assert!(extraction > Duration::ZERO);
        assert!(out.timing.dynamic_programming > Duration::ZERO);
        assert_eq!(
            out.timing.per_pair(),
            out.timing.matching + out.timing.dynamic_programming
        );
        assert_eq!(out.timing.total(), extraction + out.timing.per_pair());
    }

    #[test]
    fn cached_features_report_extraction_as_absent() {
        let (x, y) = warped_pair(150, 150);
        let eng = engine(ConstraintPolicy::adaptive_core_adaptive_width());
        let fx = extract_features(&x, &eng.config().salient).unwrap();
        let fy = extract_features(&y, &eng.config().salient).unwrap();
        let out = eng.query(&x, &y).features(&fx, &fy).run().unwrap().unwrap();
        assert_eq!(out.timing.extraction, None, "no extraction in this call");
        assert_eq!(out.timing.total(), out.timing.per_pair());
        // identical result to the uncached path
        let out2 = dist(&eng, &x, &y);
        assert_eq!(out.distance, out2.distance);
        assert_eq!(out.cells_filled, out2.cells_filled);
    }

    #[test]
    fn alignment_free_policies_never_extract() {
        let (x, y) = warped_pair(120, 120);
        let out = dist(
            &engine(ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.1 }),
            &x,
            &y,
        );
        assert_eq!(out.timing.extraction, None);
    }

    #[test]
    fn store_misses_attribute_extraction_once_then_report_absent() {
        let (x, y) = warped_pair(150, 150);
        let x = x.identified(1);
        let y = y.identified(2);
        let eng = engine(ConstraintPolicy::adaptive_core_adaptive_width());
        let store = crate::store::FeatureStore::new(eng.config().salient.clone()).unwrap();
        let first = eng.query(&x, &y).store(&store).run().unwrap().unwrap();
        assert!(
            first.timing.extraction.expect("cold store extracts") > Duration::ZERO,
            "the miss pays the one-time extraction"
        );
        let second = eng.query(&x, &y).store(&store).run().unwrap().unwrap();
        assert_eq!(second.timing.extraction, None, "hits have no extraction");
        assert_eq!(first.distance.to_bits(), second.distance.to_bits());
    }

    #[test]
    fn scratch_path_is_bit_identical_to_allocating_path() {
        let (x, y) = warped_pair(150, 170);
        let eng = engine(ConstraintPolicy::adaptive_core_adaptive_width());
        let fx = extract_features(&x, &eng.config().salient).unwrap();
        let fy = extract_features(&y, &eng.config().salient).unwrap();
        let mut scratch = sdtw_dtw::DtwScratch::new();
        // reuse the same scratch across both directions and repeats
        for _ in 0..2 {
            let plain = eng.query(&x, &y).features(&fx, &fy).run().unwrap().unwrap();
            let reused = eng
                .query(&x, &y)
                .features(&fx, &fy)
                .scratch(&mut scratch)
                .run()
                .unwrap()
                .unwrap();
            assert_eq!(plain.distance.to_bits(), reused.distance.to_bits());
            assert_eq!(plain.cells_filled, reused.cells_filled);
            let back = eng
                .query(&y, &x)
                .features(&fy, &fx)
                .scratch(&mut scratch)
                .run()
                .unwrap()
                .unwrap();
            assert!(back.distance.is_finite());
        }
    }

    #[test]
    fn cutoff_path_is_bit_identical_when_under_threshold() {
        let (x, y) = warped_pair(150, 170);
        for policy in [
            ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.2 },
            ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
        ] {
            let eng = engine(policy);
            let fx = extract_features(&x, &eng.config().salient).unwrap();
            let fy = extract_features(&y, &eng.config().salient).unwrap();
            let mut scratch = DtwScratch::new();
            let full = eng.query(&x, &y).features(&fx, &fy).run().unwrap().unwrap();
            let ea = eng
                .query(&x, &y)
                .features(&fx, &fy)
                .cutoff(f64::INFINITY)
                .scratch(&mut scratch)
                .run()
                .unwrap()
                .expect("infinite threshold never abandons");
            assert_eq!(full.distance.to_bits(), ea.distance.to_bits());
            assert_eq!(full.cells_filled, ea.cells_filled);
            // threshold exactly at the distance keeps the candidate
            let at = eng
                .query(&x, &y)
                .features(&fx, &fy)
                .cutoff(full.distance)
                .scratch(&mut scratch)
                .run()
                .unwrap();
            assert!(at.is_some(), "threshold == distance must not abandon");
        }
    }

    #[test]
    fn cutoff_fires_below_the_distance() {
        let (x, y) = warped_pair(150, 170);
        let eng = engine(ConstraintPolicy::adaptive_core_adaptive_width());
        let fx = extract_features(&x, &eng.config().salient).unwrap();
        let fy = extract_features(&y, &eng.config().salient).unwrap();
        let mut scratch = DtwScratch::new();
        let d = eng
            .query(&x, &y)
            .features(&fx, &fy)
            .run()
            .unwrap()
            .unwrap()
            .distance;
        assert!(d > 0.0);
        let out = eng
            .query(&x, &y)
            .features(&fx, &fy)
            .cutoff(d * 0.5)
            .scratch(&mut scratch)
            .run()
            .unwrap();
        assert!(out.is_none(), "threshold below the distance must abandon");
    }

    #[test]
    fn band_override_skips_planning_and_runs_that_band() {
        let (x, y) = warped_pair(140, 140);
        let eng = engine(ConstraintPolicy::adaptive_core_adaptive_width());
        let fx = extract_features(&x, &eng.config().salient).unwrap();
        let fy = extract_features(&y, &eng.config().salient).unwrap();
        let (band, _) = eng.plan_band(&fx, &fy, x.len(), y.len());
        let via_override = eng.query(&x, &y).band(&band).run().unwrap().unwrap();
        let via_planning = eng.query(&x, &y).features(&fx, &fy).run().unwrap().unwrap();
        assert_eq!(
            via_override.distance.to_bits(),
            via_planning.distance.to_bits()
        );
        assert_eq!(via_override.cells_filled, via_planning.cells_filled);
        // no matching happened on the override path
        assert_eq!(via_override.raw_pairs, 0);
        assert_eq!(via_override.timing.extraction, None);
    }

    #[test]
    fn kernel_override_changes_the_distance_per_call() {
        let (x, y) = warped_pair(150, 150);
        let eng = engine(ConstraintPolicy::adaptive_core_adaptive_width());
        let standard = dist(&eng, &x, &y);
        let amerced = eng
            .query(&x, &y)
            .kernel(KernelChoice::Amerced { penalty: 0.1 })
            .run()
            .unwrap()
            .unwrap();
        assert!(
            amerced.distance >= standard.distance - 1e-12,
            "amercing can only add cost: {} vs {}",
            amerced.distance,
            standard.distance
        );
        // the engine's configuration is untouched
        assert_eq!(eng.config().dtw.kernel, KernelChoice::Standard);
        let again = dist(&eng, &x, &y);
        assert_eq!(standard.distance.to_bits(), again.distance.to_bits());
    }

    #[test]
    fn invalid_kernel_override_is_an_error_not_a_panic() {
        let (x, y) = warped_pair(120, 120);
        let eng = engine(ConstraintPolicy::FullGrid);
        let res = eng
            .query(&x, &y)
            .kernel(KernelChoice::Amerced { penalty: -1.0 })
            .run();
        assert!(res.is_err(), "negative penalty must be rejected");
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let cfg = SDtwConfig {
            policy: ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.0 },
            ..SDtwConfig::default()
        };
        assert!(SDtw::new(cfg).is_err());
        let mut cfg = SDtwConfig::default();
        cfg.matching.tau_d = 0.5;
        assert!(SDtw::new(cfg).is_err());
        let mut cfg = SDtwConfig::default();
        cfg.dtw.kernel = KernelChoice::Amerced { penalty: -2.0 };
        assert!(SDtw::new(cfg).is_err(), "bad kernel penalty must fail");
    }

    #[test]
    fn featureless_series_fall_back_to_feasible_bands() {
        // constant series produce no salient features; adaptive policies
        // must still return a valid (sanitised) band and finite distance
        let x = TimeSeries::new(vec![1.0; 120]).unwrap();
        let y = TimeSeries::new(vec![1.5; 140]).unwrap();
        let out = dist(
            &engine(ConstraintPolicy::adaptive_core_adaptive_width()),
            &x,
            &y,
        );
        assert!(out.distance.is_finite());
        assert_eq!(out.consistent_pairs, 0);
    }

    #[test]
    fn path_is_produced_on_request_and_valid() {
        let (x, y) = warped_pair(120, 140);
        let eng = SDtw::new(SDtwConfig {
            policy: ConstraintPolicy::adaptive_core_adaptive_width(),
            dtw: DtwOptions::with_path(),
            ..SDtwConfig::default()
        })
        .unwrap();
        let out = dist(&eng, &x, &y);
        let p = out.path.expect("path requested");
        p.validate(120, 140).unwrap();
        // the per-call override wins over the config in both directions
        let no_path = eng.query(&x, &y).path(false).run().unwrap().unwrap();
        assert!(no_path.path.is_none());
        let plain = engine(ConstraintPolicy::adaptive_core_adaptive_width());
        let with_path = plain.query(&x, &y).path(true).run().unwrap().unwrap();
        with_path
            .path
            .expect("path override")
            .validate(120, 140)
            .unwrap();
    }

    #[test]
    fn window_queries_match_series_queries_bitwise() {
        // the zero-copy window path must agree with the owned-series path
        // on every option combination the subsequence engine uses
        let (x, y) = warped_pair(150, 150);
        let eng = engine(ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.2 });
        let (band, _) = eng.plan_band(&[], &[], x.len(), y.len());
        let mut scratch = DtwScratch::new();
        let owned = eng.query(&x, &y).band(&band).run().unwrap().unwrap();
        let windowed = eng
            .query_window(x.values(), y.values())
            .band(&band)
            .scratch(&mut scratch)
            .run()
            .unwrap()
            .unwrap();
        assert_eq!(owned.distance.to_bits(), windowed.distance.to_bits());
        assert_eq!(owned.cells_filled, windowed.cells_filled);
        // cutoff composes: at the distance it survives, below it abandons
        let kept = eng
            .query_window(x.values(), y.values())
            .band(&band)
            .cutoff(owned.distance)
            .scratch(&mut scratch)
            .run()
            .unwrap();
        assert!(kept.is_some());
        let abandoned = eng
            .query_window(x.values(), y.values())
            .band(&band)
            .cutoff(owned.distance * 0.5)
            .scratch(&mut scratch)
            .run()
            .unwrap();
        assert!(abandoned.is_none());
        // true subslices (not whole series) run fine too
        let sub = eng
            .query_window(&x.values()[10..90], &y.values()[20..100])
            .path(false)
            .run()
            .unwrap()
            .unwrap();
        assert!(sub.distance.is_finite());
    }

    #[test]
    fn window_queries_with_adaptive_policies_extract_via_materialisation() {
        let (x, y) = warped_pair(150, 170);
        let eng = engine(ConstraintPolicy::adaptive_core_adaptive_width());
        let owned = dist(&eng, &x, &y);
        let windowed = eng
            .query_window(x.values(), y.values())
            .run()
            .unwrap()
            .unwrap();
        assert_eq!(owned.distance.to_bits(), windowed.distance.to_bits());
        assert!(windowed.timing.extraction.is_some(), "extraction happened");
    }

    #[test]
    fn window_queries_reject_stores_and_empty_windows() {
        let (x, y) = warped_pair(120, 120);
        // rejected whatever the policy — even when an alignment-free
        // policy (or a band override) would never read the store
        for policy in [
            ConstraintPolicy::adaptive_core_adaptive_width(),
            ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.2 },
        ] {
            let eng = engine(policy);
            let store = crate::store::FeatureStore::new(eng.config().salient.clone()).unwrap();
            let err = eng
                .query_window(x.values(), y.values())
                .store(&store)
                .run()
                .unwrap_err();
            assert!(
                format!("{err}").contains("series identity"),
                "store on windows is rejected under {}: {err}",
                eng.config().policy.label()
            );
            let (band, _) = eng.plan_band(&[], &[], x.len(), y.len());
            assert!(eng
                .query_window(x.values(), y.values())
                .band(&band)
                .store(&store)
                .run()
                .is_err());
        }
        let eng = engine(ConstraintPolicy::adaptive_core_adaptive_width());
        assert!(eng.query_window(&[], y.values()).run().is_err());
        assert!(eng.query_window(x.values(), &[]).run().is_err());
    }
}
