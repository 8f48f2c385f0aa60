//! The `SDtw` front-end: configuration, the [`SDtw::query`] execution
//! path, outcome introspection.
//!
//! Pairwise distances flow through the [`crate::query::Query`] builder
//! (`SDtw::query(&x, &y).….run()`); callers that hold a planned band run
//! it with [`sdtw_dtw::engine::dtw_run_options`].

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

/// Outcome of one sDTW distance computation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SDtwOutcome {
    /// The constrained DTW distance (≥ the optimal full-grid distance
    /// under the same kernel).
    pub distance: f64,
    /// Optimal warp path within the band, when requested via
    /// [`DtwOptions::compute_path`] or [`crate::query::Query::path`].
    pub path: Option<WarpPath>,
    /// DP cells filled (= the planned band's area) — deterministic work
    /// proxy.
    pub cells_filled: usize,
    /// Fraction of the full `N × M` grid the band covers.
    pub band_coverage: f64,
    /// Matched pairs before inconsistency pruning.
    pub raw_pairs: usize,
    /// Matched pairs after inconsistency pruning.
    pub consistent_pairs: usize,
    /// Descriptor comparisons performed during matching.
    pub descriptor_comparisons: usize,
}

/// The sDTW engine (paper §3 end to end).
///
/// Construct once with a validated config, then call [`SDtw::query`] per
/// pair — features (extract vs cached), warp path, scratch reuse and a
/// telemetry recorder are orthogonal builder options (see
/// [`crate::query::Query`]).
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
    /// the DP — run it with [`sdtw_dtw::engine::dtw_run_options`], under
    /// `config().dtw` and any cutoff). Returns the matching result when
    /// the policy required alignment.
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
    use sdtw_dtw::engine::{dtw_full, dtw_run_options, DtwScratch};
    use sdtw_dtw::KernelChoice;
    use sdtw_obs::{Recorder, SpanRecord, TracePhase};
    use sdtw_salient::extract_features;
    use sdtw_tseries::{TimeSeries, WarpMap};
    use std::time::Duration;

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

    /// Builder shorthand: run with on-the-fly extraction.
    fn dist(eng: &SDtw, x: &TimeSeries, y: &TimeSeries) -> SDtwOutcome {
        eng.query(x, y).run().unwrap()
    }

    /// The one span of `phase` among `spans`, if it was recorded.
    fn span(spans: &[SpanRecord], phase: TracePhase) -> Option<&SpanRecord> {
        spans.iter().find(|s| s.phase == phase)
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
        let eng = engine(ConstraintPolicy::adaptive_core_adaptive_width());
        let mut rec = Recorder::enabled();
        eng.query(&x, &y).recorder(&mut rec).run().unwrap();
        let spans = rec.finish();
        for phase in [
            TracePhase::Extraction,
            TracePhase::BandPlan,
            TracePhase::DpFill,
        ] {
            let s = span(&spans, phase).unwrap_or_else(|| panic!("{phase:?} recorded"));
            assert_eq!(s.count, 1, "{phase:?} ran once");
        }
        assert_eq!(spans.len(), 3, "no other phase: {spans:?}");
        let extraction = span(&spans, TracePhase::Extraction).unwrap();
        assert!(extraction.duration > Duration::ZERO);
        assert!(span(&spans, TracePhase::DpFill).unwrap().duration > Duration::ZERO);
    }

    #[test]
    fn cached_features_report_extraction_as_absent() {
        let (x, y) = warped_pair(150, 150);
        let eng = engine(ConstraintPolicy::adaptive_core_adaptive_width());
        let fx = extract_features(&x, &eng.config().salient).unwrap();
        let fy = extract_features(&y, &eng.config().salient).unwrap();
        let mut rec = Recorder::enabled();
        let out = eng
            .query(&x, &y)
            .features(&fx, &fy)
            .recorder(&mut rec)
            .run()
            .unwrap();
        let spans = rec.finish();
        assert!(
            span(&spans, TracePhase::Extraction).is_none(),
            "no extraction in this call"
        );
        assert!(span(&spans, TracePhase::BandPlan).is_some());
        assert!(span(&spans, TracePhase::DpFill).is_some());
        // identical result to the uncached path
        let out2 = dist(&eng, &x, &y);
        assert_eq!(out.distance, out2.distance);
        assert_eq!(out.cells_filled, out2.cells_filled);
    }

    #[test]
    fn alignment_free_policies_never_extract() {
        let (x, y) = warped_pair(120, 120);
        let eng = engine(ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.1 });
        let mut rec = Recorder::enabled();
        eng.query(&x, &y).recorder(&mut rec).run().unwrap();
        assert!(span(&rec.finish(), TracePhase::Extraction).is_none());
    }

    #[test]
    fn store_misses_attribute_extraction_once_then_report_absent() {
        let (x, y) = warped_pair(150, 150);
        let x = x.identified(1);
        let y = y.identified(2);
        let eng = engine(ConstraintPolicy::adaptive_core_adaptive_width());
        let store = crate::store::FeatureStore::new(eng.config().salient.clone()).unwrap();
        let mut rec = Recorder::enabled();
        let first = eng
            .query(&x, &y)
            .store(&store)
            .recorder(&mut rec)
            .run()
            .unwrap();
        let spans = rec.finish();
        let miss = span(&spans, TracePhase::Extraction).expect("cold store extracts");
        assert_eq!(miss.count, 1, "both misses in one span");
        assert!(
            miss.duration > Duration::ZERO,
            "the miss pays the one-time extraction"
        );
        let mut rec = Recorder::enabled();
        let second = eng
            .query(&x, &y)
            .store(&store)
            .recorder(&mut rec)
            .run()
            .unwrap();
        assert!(
            span(&rec.finish(), TracePhase::Extraction).is_none(),
            "hits have no extraction"
        );
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
            let plain = eng.query(&x, &y).features(&fx, &fy).run().unwrap();
            let reused = eng
                .query(&x, &y)
                .features(&fx, &fy)
                .scratch(&mut scratch)
                .run()
                .unwrap();
            assert_eq!(plain.distance.to_bits(), reused.distance.to_bits());
            assert_eq!(plain.cells_filled, reused.cells_filled);
            let back = eng
                .query(&y, &x)
                .features(&fy, &fx)
                .scratch(&mut scratch)
                .run()
                .unwrap();
            assert!(back.distance.is_finite());
        }
    }

    #[test]
    fn run_equals_plan_band_then_dtw_run_options() {
        // the index and the stream matcher plan (or hold) a band and fill
        // it with `dtw_run_options`; `run()` must be exactly that
        let (x, y) = warped_pair(140, 150);
        let mut scratch = DtwScratch::new();
        for policy in [
            ConstraintPolicy::FullGrid,
            ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.1 },
            ConstraintPolicy::Itakura { slope: 2.0 },
            ConstraintPolicy::fixed_core_adaptive_width(),
            ConstraintPolicy::adaptive_core_fixed_width(0.1),
            ConstraintPolicy::adaptive_core_adaptive_width(),
            ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
        ] {
            let amerced = DtwOptions {
                kernel: KernelChoice::Amerced { penalty: 0.1 },
                ..DtwOptions::default()
            };
            for (symmetry, dtw) in [
                (BandSymmetry::Asymmetric, DtwOptions::with_path()),
                (BandSymmetry::Union, DtwOptions::with_path()),
                (BandSymmetry::Asymmetric, amerced),
            ] {
                let eng = SDtw::new(SDtwConfig {
                    policy,
                    symmetry,
                    dtw,
                    ..SDtwConfig::default()
                })
                .unwrap();
                let ctx = format!("{} {symmetry:?} {}", policy.label(), dtw.kernel_label());
                let fx = extract_features(&x, &eng.config().salient).unwrap();
                let fy = extract_features(&y, &eng.config().salient).unwrap();
                let out = eng.query(&x, &y).run().unwrap();
                let (band, matched) = eng.plan_band(&fx, &fy, x.len(), y.len());
                let direct = dtw_run_options(
                    x.values(),
                    y.values(),
                    &band,
                    &eng.config().dtw,
                    None,
                    &mut scratch,
                )
                .expect("no cutoff");
                assert_eq!(out.distance.to_bits(), direct.distance.to_bits(), "{ctx}");
                assert_eq!(out.cells_filled, direct.cells_filled, "{ctx}");
                assert_eq!(out.cells_filled, band.area(), "{ctx}");
                assert_eq!(out.path, direct.path, "{ctx}");
                assert_eq!(out.band_coverage.to_bits(), band.coverage().to_bits());
                let pairs = matched.map_or(0, |m| m.consistent_pairs.len());
                assert_eq!(out.consistent_pairs, pairs, "{ctx}");
            }
        }
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
        let no_path = eng.query(&x, &y).path(false).run().unwrap();
        assert!(no_path.path.is_none());
        let plain = engine(ConstraintPolicy::adaptive_core_adaptive_width());
        let with_path = plain.query(&x, &y).path(true).run().unwrap();
        with_path
            .path
            .expect("path override")
            .validate(120, 140)
            .unwrap();
    }
}
