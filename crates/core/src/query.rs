//! The pairwise execution path: [`SDtw::query`] returns a [`Query`]
//! builder that extracts (or looks up) the pair's salient features,
//! plans the band from the policy and fills it.
//!
//! | option | method | default |
//! |---|---|---|
//! | feature source | [`Query::features`] / [`Query::store`] | extract on the fly |
//! | warp path | [`Query::path`] | the engine's `dtw.compute_path` |
//! | scratch reuse | [`Query::scratch`] | allocate internally |
//! | telemetry | [`Query::recorder`] | none |
//!
//! A caller that already holds a band — a retrieval cascade that planned
//! it with [`SDtw::plan_band`] and screened it with lower bounds — or
//! wants an early-abandon cutoff or another cost kernel calls
//! [`sdtw_dtw::engine::dtw_run_options`] directly: `run()` is exactly
//! `plan_band` followed by that call.

use crate::engine::{SDtw, SDtwOutcome};
use crate::store::FeatureStore;
use sdtw_dtw::engine::{dtw_run_options, DtwScratch};
use sdtw_obs::{Recorder, TracePhase};
use sdtw_salient::SalientFeature;
use sdtw_tseries::{TimeSeries, TsError};

/// Where the salient features of the pair come from.
enum FeatureSource<'a> {
    /// Extract per call (recorded as one `Extraction` span).
    Extract,
    /// Caller-supplied slices (pre-extracted; no `Extraction` span).
    Supplied {
        fx: &'a [SalientFeature],
        fy: &'a [SalientFeature],
    },
    /// A [`FeatureStore`]: a call that misses records the one-time
    /// extraction as one `Extraction` span, a call that hits records none
    /// — so per-phase accounting sees each series' extraction exactly
    /// once.
    Store(&'a FeatureStore),
}

/// A configured sDTW distance computation — build with [`SDtw::query`],
/// chain options, then [`Query::run`].
///
/// ```
/// use sdtw::{ConstraintPolicy, SDtw, SDtwConfig};
/// use sdtw_tseries::TimeSeries;
///
/// let engine = SDtw::new(SDtwConfig::default()).unwrap();
/// let x = TimeSeries::new((0..160).map(|i| (i as f64 / 9.0).sin()).collect()).unwrap();
/// let y = TimeSeries::new((0..150).map(|i| (i as f64 / 8.0).sin()).collect()).unwrap();
/// let out = engine.query(&x, &y).run().unwrap();
/// assert!(out.distance.is_finite());
/// ```
#[must_use = "a Query does nothing until `run()` is called"]
pub struct Query<'a> {
    engine: &'a SDtw,
    x: &'a TimeSeries,
    y: &'a TimeSeries,
    features: FeatureSource<'a>,
    path: Option<bool>,
    scratch: Option<&'a mut DtwScratch>,
    recorder: Option<&'a mut Recorder>,
}

impl SDtw {
    /// Starts a distance computation between `x` and `y`. See [`Query`]
    /// for the options; with none set, `run()` extracts features, plans
    /// the band and runs the configured DP.
    pub fn query<'a>(&'a self, x: &'a TimeSeries, y: &'a TimeSeries) -> Query<'a> {
        Query {
            engine: self,
            x,
            y,
            features: FeatureSource::Extract,
            path: None,
            scratch: None,
            recorder: None,
        }
    }
}

impl<'a> Query<'a> {
    /// Uses pre-extracted salient features for both series (the cached
    /// path: no extraction is recorded). When it plans the band from
    /// them, `run()` rejects features whose descriptors differ in length,
    /// which matching cannot compare.
    pub fn features(mut self, fx: &'a [SalientFeature], fy: &'a [SalientFeature]) -> Self {
        self.features = FeatureSource::Supplied { fx, fy };
        self
    }

    /// Pulls features from a [`FeatureStore`] (extracting and caching on
    /// miss). A miss records its extraction time for this call; a hit
    /// records none.
    pub fn store(mut self, store: &'a FeatureStore) -> Self {
        self.features = FeatureSource::Store(store);
        self
    }

    /// Overrides warp-path tracing for this call (default: the engine's
    /// `dtw.compute_path`).
    pub fn path(mut self, compute_path: bool) -> Self {
        self.path = Some(compute_path);
        self
    }

    /// Reuses caller-owned DP buffers (the batch hot path: keep one
    /// [`DtwScratch`] per worker thread). Results are bit-identical with
    /// or without reuse.
    pub fn scratch(mut self, scratch: &'a mut DtwScratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Attaches a telemetry [`Recorder`]: the call's extraction (when it
    /// extracts), band planning and DP are timed into the recorder's
    /// aggregated spans (`Extraction` / `BandPlan` / `DpFill`). Without a
    /// recorder the call reads no clock; a [`Recorder::disabled()`]
    /// handle costs one branch per phase. Batch drivers keep one
    /// recorder per logical query and attach it to every per-pair call.
    pub fn recorder(mut self, rec: &'a mut Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Executes the query: resolve features, plan the band from the
    /// policy, run the banded DP under the configured kernel to
    /// completion.
    ///
    /// # Errors
    ///
    /// Empty series, feature-extraction failures (only possible on the
    /// store path) and supplied features whose descriptors differ in
    /// length.
    pub fn run(self) -> Result<SDtwOutcome, TsError> {
        let Query {
            engine,
            x,
            y,
            features,
            path,
            scratch,
            recorder,
        } = self;
        let (xv, yv) = (x.values(), y.values());
        if xv.is_empty() || yv.is_empty() {
            return Err(TsError::Empty);
        }
        let config = engine.config();
        let mut disabled = Recorder::disabled();
        let rec = recorder.unwrap_or(&mut disabled);

        let empty: &[SalientFeature] = &[];
        let extracted: (Vec<SalientFeature>, Vec<SalientFeature>);
        let cached;
        let (fx, fy): (&[SalientFeature], &[SalientFeature]) = if !config.policy.needs_alignment() {
            (empty, empty)
        } else {
            match features {
                FeatureSource::Supplied { fx, fy } => {
                    check_descriptor_lengths(fx, fy)?;
                    (fx, fy)
                }
                FeatureSource::Extract => {
                    let extractor = engine.extractor();
                    extracted = rec.time(TracePhase::Extraction, || {
                        (extractor.extract(x), extractor.extract(y))
                    });
                    (&extracted.0, &extracted.1)
                }
                FeatureSource::Store(store) => {
                    let (fx, dx) = store.features_for_timed(x)?;
                    let (fy, dy) = store.features_for_timed(y)?;
                    if dx.is_some() || dy.is_some() {
                        let paid = dx.unwrap_or_default() + dy.unwrap_or_default();
                        rec.add(TracePhase::Extraction, paid);
                    }
                    cached = (fx, fy);
                    (&cached.0, &cached.1)
                }
            }
        };

        let (band, match_stats) = rec.time(TracePhase::BandPlan, || {
            engine.plan_band(fx, fy, xv.len(), yv.len())
        });
        debug_assert!(band.is_feasible(), "planned bands are sanitised");

        let mut opts = config.dtw;
        if let Some(p) = path {
            opts.compute_path = p;
        }
        let mut local_scratch;
        let scratch = match scratch {
            Some(s) => s,
            None => {
                local_scratch = DtwScratch::new();
                &mut local_scratch
            }
        };
        let result = rec
            .time(TracePhase::DpFill, || {
                dtw_run_options(xv, yv, &band, &opts, None, scratch)
            })
            .expect("a run without a cutoff never abandons");

        let (raw_pairs, consistent_pairs, descriptor_comparisons) = match &match_stats {
            Some(mr) => (
                mr.raw_pairs.len(),
                mr.consistent_pairs.len(),
                mr.descriptor_comparisons,
            ),
            None => (0, 0, 0),
        };
        Ok(SDtwOutcome {
            distance: result.distance,
            path: result.path,
            cells_filled: result.cells_filled,
            band_coverage: band.coverage(),
            raw_pairs,
            consistent_pairs,
            descriptor_comparisons,
        })
    }
}

/// Rejects supplied features whose descriptors differ in length: the
/// matcher compares descriptors value by value and panics on a mismatch.
fn check_descriptor_lengths(fx: &[SalientFeature], fy: &[SalientFeature]) -> Result<(), TsError> {
    let mut lengths = fx.iter().chain(fy).map(|f| f.descriptor.len());
    let Some(first) = lengths.next() else {
        return Ok(());
    };
    match lengths.find(|&len| len != first) {
        Some(other) => Err(TsError::InvalidParameter {
            name: "features",
            reason: format!("descriptor lengths differ: {first} and {other} values"),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SDtwConfig;
    use crate::ConstraintPolicy;

    fn series(n: usize, phase: f64) -> TimeSeries {
        TimeSeries::new((0..n).map(|i| (i as f64 / 7.0 + phase).sin()).collect()).unwrap()
    }

    #[test]
    fn recorder_aggregates_phase_spans_across_calls() {
        let engine = SDtw::new(SDtwConfig::default()).unwrap();
        let (x, y) = (series(96, 0.0), series(96, 0.4));
        let mut rec = Recorder::enabled();
        for _ in 0..3 {
            engine.query(&x, &y).recorder(&mut rec).run().unwrap();
        }
        let spans = rec.finish();
        let dp = spans
            .iter()
            .find(|s| s.phase == TracePhase::DpFill)
            .expect("DP span recorded");
        assert_eq!(dp.count, 3, "one DP execution per call, aggregated");
        assert!(spans.iter().any(|s| s.phase == TracePhase::BandPlan));
        assert!(
            spans.iter().any(|s| s.phase == TracePhase::Extraction),
            "on-the-fly extraction is attributed"
        );
    }

    #[test]
    fn supplied_features_record_no_extraction_span() {
        let engine = SDtw::new(SDtwConfig::default()).unwrap();
        let (x, y) = (series(64, 0.0), series(64, 0.9));
        let mut rec = Recorder::enabled();
        engine.query(&x, &y).recorder(&mut rec).run().unwrap();
        let spans = rec.finish();
        let extraction = spans.iter().find(|s| s.phase == TracePhase::Extraction);
        assert_eq!(
            extraction.map(|s| s.count),
            Some(1),
            "extracted in this call"
        );
        let fx: Vec<_> = Vec::new();
        let mut rec = Recorder::enabled();
        engine
            .query(&x, &y)
            .features(&fx, &fx)
            .recorder(&mut rec)
            .run()
            .unwrap();
        let spans = rec.finish();
        assert!(
            spans.iter().all(|s| s.phase != TracePhase::Extraction),
            "absent, not zero: {spans:?}"
        );
        assert_eq!(spans.len(), 2, "band planning and the DP: {spans:?}");
    }

    #[test]
    fn supplied_features_with_unequal_descriptors_are_rejected() {
        let engine = SDtw::new(SDtwConfig::default()).unwrap();
        let (x, y) = (series(96, 0.0), series(96, 0.4));
        let fx = engine.extractor().extract(&x);
        let mut fy = engine.extractor().extract(&y);
        assert!(!fx.is_empty() && !fy.is_empty());
        fy[0].descriptor.pop();
        let err = engine.query(&x, &y).features(&fx, &fy).run().unwrap_err();
        assert!(
            matches!(
                err,
                TsError::InvalidParameter {
                    name: "features",
                    ..
                }
            ),
            "{err:?}"
        );
        // an alignment-free policy plans without features, so they are
        // not read
        let sakoe = SDtw::new(SDtwConfig {
            policy: ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.1 },
            ..SDtwConfig::default()
        })
        .unwrap();
        assert!(sakoe.query(&x, &y).features(&fx, &fy).run().is_ok());
    }

    #[test]
    fn disabled_recorder_changes_nothing() {
        let engine = SDtw::new(SDtwConfig::default()).unwrap();
        let (x, y) = (series(80, 0.0), series(80, 0.2));
        let baseline = engine.query(&x, &y).run().unwrap();
        let mut rec = Recorder::disabled();
        let traced = engine.query(&x, &y).recorder(&mut rec).run().unwrap();
        assert_eq!(baseline.distance.to_bits(), traced.distance.to_bits());
        assert!(rec.finish().is_empty());
    }
}
