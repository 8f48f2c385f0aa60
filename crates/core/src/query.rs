//! The one execution path: [`SDtw::query`] returns a [`Query`] builder
//! whose orthogonal options replace the former `distance*` method family.
//!
//! Every capability that used to need its own entry point is an
//! independent builder option:
//!
//! | option | method | default |
//! |---|---|---|
//! | feature source | [`Query::features`] / [`Query::store`] | extract on the fly |
//! | band override | [`Query::band`] | plan from the policy |
//! | warp path | [`Query::path`] | the engine's `dtw.compute_path` |
//! | early-abandon cutoff | [`Query::cutoff`] | none |
//! | scratch reuse | [`Query::scratch`] | allocate internally |
//! | cost kernel | [`Query::kernel`] | the engine's `dtw.kernel` |
//! | telemetry | [`Query::recorder`] | none |
//!
//! All combinations resolve through one internal `run()`, which executes
//! the DP through [`sdtw_dtw::engine::dtw_run_options`].

use crate::engine::{PhaseTiming, SDtw, SDtwOutcome};
use crate::store::FeatureStore;
use sdtw_dtw::engine::{dtw_run_options, DtwScratch};
use sdtw_dtw::{Band, KernelChoice};
use sdtw_obs::{Recorder, SpanRecord, TracePhase};
use sdtw_salient::SalientFeature;
use sdtw_tseries::{TimeSeries, TsError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The pair under comparison: validated series, or borrowed sample
/// windows of some larger buffer (the subsequence-search hot path, which
/// must not copy per window).
enum PairInput<'a> {
    /// Two whole [`TimeSeries`].
    Series {
        x: &'a TimeSeries,
        y: &'a TimeSeries,
    },
    /// Two raw windows. Finiteness is inherited from the buffers they
    /// were sliced from (every `TimeSeries` is finite by construction).
    Values { x: &'a [f64], y: &'a [f64] },
}

impl<'a> PairInput<'a> {
    fn x_values(&self) -> &'a [f64] {
        match self {
            PairInput::Series { x, .. } => x.values(),
            PairInput::Values { x, .. } => x,
        }
    }

    fn y_values(&self) -> &'a [f64] {
        match self {
            PairInput::Series { y, .. } => y.values(),
            PairInput::Values { y, .. } => y,
        }
    }
}

/// Where the salient features of the pair come from.
enum FeatureSource<'a> {
    /// Extract per call (timed and reported in
    /// [`PhaseTiming::extraction`]).
    Extract,
    /// Caller-supplied slices (pre-extracted; extraction reported as
    /// absent).
    Supplied {
        fx: &'a [SalientFeature],
        fy: &'a [SalientFeature],
    },
    /// A [`FeatureStore`]: cache hits report extraction as absent, cache
    /// misses attribute the one-time extraction cost to this call — so
    /// per-phase accounting sees each series' extraction exactly once.
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
/// let out = engine.query(&x, &y).run().unwrap().expect("no cutoff configured");
/// assert!(out.distance.is_finite());
/// ```
#[must_use = "a Query does nothing until `run()` is called"]
pub struct Query<'a> {
    engine: &'a SDtw,
    input: PairInput<'a>,
    features: FeatureSource<'a>,
    band_override: Option<&'a Band>,
    path: Option<bool>,
    cutoff: Option<f64>,
    scratch: Option<&'a mut DtwScratch>,
    kernel: Option<KernelChoice>,
    recorder: Option<&'a mut Recorder>,
}

impl SDtw {
    /// Starts a distance computation between `x` and `y`. See [`Query`]
    /// for the options; with none set, `run()` behaves like the historic
    /// `distance()` (extract features, plan the band, run the configured
    /// DP to completion).
    pub fn query<'a>(&'a self, x: &'a TimeSeries, y: &'a TimeSeries) -> Query<'a> {
        self.query_input(PairInput::Series { x, y })
    }

    /// Starts a distance computation between two borrowed sample windows
    /// — the zero-copy path for subsequence search and stream monitors,
    /// which compare thousands of overlapping windows of one buffer and
    /// must not materialise a [`TimeSeries`] per window.
    ///
    /// The windows must be non-empty (checked by `run()`) and finite
    /// (inherited from whatever validated buffer they were sliced from).
    /// All builder options compose as usual, with two caveats:
    ///
    /// * [`Query::store`] is rejected by `run()` — a [`FeatureStore`]
    ///   caches by series identity, which a transient window does not
    ///   have;
    /// * letting an *adaptive* policy extract features on the fly
    ///   (no [`Query::band`] / [`Query::features`]) materialises a
    ///   temporary series for the extractor — correct, but it pays the
    ///   copy the window path exists to avoid. Plan bands (or extract
    ///   features) once per window explicitly in hot loops.
    pub fn query_window<'a>(&'a self, x: &'a [f64], y: &'a [f64]) -> Query<'a> {
        self.query_input(PairInput::Values { x, y })
    }

    fn query_input<'a>(&'a self, input: PairInput<'a>) -> Query<'a> {
        Query {
            engine: self,
            input,
            features: FeatureSource::Extract,
            band_override: None,
            path: None,
            cutoff: None,
            scratch: None,
            kernel: None,
            recorder: None,
        }
    }
}

impl<'a> Query<'a> {
    /// Uses pre-extracted salient features for both series (the cached
    /// path: extraction is reported as absent). When it plans the band
    /// from them, `run()` rejects features whose descriptors differ in
    /// length, which matching cannot compare.
    pub fn features(mut self, fx: &'a [SalientFeature], fy: &'a [SalientFeature]) -> Self {
        self.features = FeatureSource::Supplied { fx, fy };
        self
    }

    /// Pulls features from a [`FeatureStore`] (extracting and caching on
    /// miss). Misses attribute their extraction time to this call;
    /// hits report extraction as absent.
    pub fn store(mut self, store: &'a FeatureStore) -> Self {
        self.features = FeatureSource::Store(store);
        self
    }

    /// Runs the DP inside this pre-planned band instead of planning one
    /// from the policy (the retrieval-cascade path: plan once via
    /// [`SDtw::plan_band`], screen with lower bounds, then execute).
    /// Feature options are ignored — no planning happens.
    pub fn band(mut self, band: &'a Band) -> Self {
        self.band_override = Some(band);
        self
    }

    /// Overrides warp-path tracing for this call (default: the engine's
    /// `dtw.compute_path`). Paths compose with [`Query::cutoff`]: a run
    /// that survives its cutoff can still trace its path.
    pub fn path(mut self, compute_path: bool) -> Self {
        self.path = Some(compute_path);
        self
    }

    /// Early-abandon cutoff, in the units of
    /// [`SDtwOutcome::distance`]: `run()` returns
    /// `Ok(None)` as soon as no path through the band can come in at or
    /// under the cutoff. Ties survive exactly — k-NN loops rely on it.
    pub fn cutoff(mut self, threshold: f64) -> Self {
        self.cutoff = Some(threshold);
        self
    }

    /// Reuses caller-owned DP buffers (the batch hot path: keep one
    /// [`DtwScratch`] per worker thread). Results are bit-identical with
    /// or without reuse.
    pub fn scratch(mut self, scratch: &'a mut DtwScratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Overrides the cost kernel for this call (default: the engine's
    /// `dtw.kernel`). The amerced kernel must carry a valid penalty —
    /// invalid overrides surface as an error from `run()`.
    pub fn kernel(mut self, kernel: KernelChoice) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Attaches a telemetry [`Recorder`]: the call's extraction, band
    /// planning, and DP phases are added to the recorder's aggregated
    /// spans (`Extraction` / `BandPlan` / `DpFill`). The default is no
    /// recorder, which costs nothing; a [`Recorder::disabled()`] handle
    /// costs one branch per phase. Batch drivers keep one recorder per
    /// logical query and attach it to every per-pair call.
    pub fn recorder(mut self, rec: &'a mut Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Executes the query: resolve features, plan (or adopt) the band,
    /// run the banded DP under the configured kernel.
    ///
    /// Returns `Ok(None)` **only** when a [`Query::cutoff`] was set and
    /// the run abandoned; without a cutoff the result is always
    /// `Ok(Some(..))` (or an error).
    ///
    /// # Errors
    ///
    /// Feature-extraction failures (only possible on the extract/store
    /// paths), supplied features whose descriptors differ in length, and
    /// invalid kernel overrides.
    pub fn run(self) -> Result<Option<SDtwOutcome>, TsError> {
        let Query {
            engine,
            input,
            features,
            band_override,
            path,
            cutoff,
            scratch,
            kernel,
            recorder,
        } = self;
        let config = engine.config();
        let (xv, yv) = (input.x_values(), input.y_values());
        if xv.is_empty() || yv.is_empty() {
            return Err(TsError::Empty);
        }
        let (n, m) = (xv.len(), yv.len());
        // A store on borrowed windows is always a caller error — reject
        // it up front (not only when the policy would read features, or
        // the mistake would surface just on a policy change).
        if let (FeatureSource::Store(_), PairInput::Values { .. }) = (&features, &input) {
            return Err(TsError::InvalidParameter {
                name: "store",
                reason: "a FeatureStore caches by series identity; borrowed windows \
                         have none — pass pre-extracted features or a planned band"
                    .to_string(),
            });
        }
        let needs_features = band_override.is_none() && config.policy.needs_alignment();

        // Phase 1: resolve the feature source (timed only when extraction
        // actually happens in this call).
        let mut extraction: Option<Duration> = None;
        let empty: &[SalientFeature] = &[];
        let extracted: (Vec<SalientFeature>, Vec<SalientFeature>);
        let cached: (Arc<Vec<SalientFeature>>, Arc<Vec<SalientFeature>>);
        let (fx, fy): (&[SalientFeature], &[SalientFeature]) = if !needs_features {
            (empty, empty)
        } else {
            match (features, &input) {
                (FeatureSource::Supplied { fx, fy }, _) => {
                    check_descriptor_lengths(fx, fy)?;
                    (fx, fy)
                }
                (FeatureSource::Extract, PairInput::Series { x, y }) => {
                    let t0 = Instant::now();
                    let extractor = engine.extractor();
                    extracted = (extractor.extract(x), extractor.extract(y));
                    extraction = Some(t0.elapsed());
                    (&extracted.0, &extracted.1)
                }
                (FeatureSource::Extract, PairInput::Values { .. }) => {
                    // the extractor needs whole series: materialise the
                    // windows (the documented cold path of query_window)
                    let t0 = Instant::now();
                    let xs = TimeSeries::new(xv.to_vec())?;
                    let ys = TimeSeries::new(yv.to_vec())?;
                    let extractor = engine.extractor();
                    extracted = (extractor.extract(&xs), extractor.extract(&ys));
                    extraction = Some(t0.elapsed());
                    (&extracted.0, &extracted.1)
                }
                (FeatureSource::Store(store), PairInput::Series { x, y }) => {
                    let (fx, dx) = store.features_for_timed(x)?;
                    let (fy, dy) = store.features_for_timed(y)?;
                    if dx.is_some() || dy.is_some() {
                        extraction = Some(dx.unwrap_or_default() + dy.unwrap_or_default());
                    }
                    cached = (fx, fy);
                    (&cached.0, &cached.1)
                }
                (FeatureSource::Store(_), PairInput::Values { .. }) => {
                    unreachable!("store-on-windows is rejected before feature resolution")
                }
            }
        };

        // Phase 2: the band — planned from the policy, or adopted as-is.
        let t_match = Instant::now();
        let planned;
        let (band, match_stats) = match band_override {
            Some(b) => (b, None),
            None => {
                let (b, stats) = engine.plan_band(fx, fy, n, m);
                planned = b;
                (&planned, stats)
            }
        };
        let matching = t_match.elapsed();

        // Phase 3: the DP, under the (possibly overridden) options.
        let mut opts = config.dtw;
        if let Some(p) = path {
            opts.compute_path = p;
        }
        if let Some(k) = kernel {
            opts.kernel = k;
            opts.validate()?;
        }
        let mut local_scratch;
        let scratch = match scratch {
            Some(s) => s,
            None => {
                local_scratch = DtwScratch::new();
                &mut local_scratch
            }
        };
        let t_dp = Instant::now();
        let result = dtw_run_options(xv, yv, band, &opts, cutoff, scratch);
        let dynamic_programming = t_dp.elapsed();

        // Route the measured phases through trace spans: the attached
        // recorder aggregates them across the whole logical query, and
        // the outcome's `PhaseTiming` is a projection of the same spans
        // (`PhaseTiming::from_spans`) rather than a hand-assembled
        // struct. Abandoned runs record their work too — the time was
        // spent whether or not a distance came back.
        let ext = extraction.unwrap_or_default();
        let spans = [
            extraction.map(|d| phase_span(TracePhase::Extraction, Duration::ZERO, d)),
            Some(phase_span(TracePhase::BandPlan, ext, matching)),
            Some(phase_span(
                TracePhase::DpFill,
                ext + matching,
                dynamic_programming,
            )),
        ];
        if let Some(rec) = recorder {
            for s in spans.iter().flatten() {
                rec.add(s.phase, s.duration);
            }
        }

        let Some(result) = result else {
            return Ok(None);
        };

        let (raw_pairs, consistent_pairs, descriptor_comparisons) = match &match_stats {
            Some(mr) => (
                mr.raw_pairs.len(),
                mr.consistent_pairs.len(),
                mr.descriptor_comparisons,
            ),
            None => (0, 0, 0),
        };

        Ok(Some(SDtwOutcome {
            distance: result.distance,
            path: result.path,
            cells_filled: result.cells_filled,
            band_area: band.area(),
            band_coverage: band.coverage(),
            raw_pairs,
            consistent_pairs,
            descriptor_comparisons,
            timing: PhaseTiming::from_spans(spans.iter().flatten()),
        }))
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

/// A run-local span for the three-phase view: offsets model the strictly
/// sequential execution of one call (extraction → matching → DP); the
/// thread slot is unused because these spans are projected into
/// [`PhaseTiming`] and recorder aggregates, not exported verbatim.
fn phase_span(phase: TracePhase, start: Duration, duration: Duration) -> SpanRecord {
    SpanRecord {
        phase,
        start,
        duration,
        count: 1,
        thread: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SDtwConfig;

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
    fn timing_view_is_derived_from_the_same_spans() {
        let engine = SDtw::new(SDtwConfig::default()).unwrap();
        let (x, y) = (series(64, 0.0), series(64, 0.9));
        let out = engine.query(&x, &y).run().unwrap().unwrap();
        // supplied-features path reports extraction as absent
        assert!(out.timing.extraction.is_some());
        let fx: Vec<_> = Vec::new();
        let out2 = engine
            .query(&x, &y)
            .features(&fx, &fx)
            .run()
            .unwrap()
            .unwrap();
        assert_eq!(out2.timing.extraction, None, "absent, not zero");
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
        // a band override plans nothing, so the features are not read
        let band = Band::full(96, 96);
        assert!(engine
            .query(&x, &y)
            .features(&fx, &fy)
            .band(&band)
            .run()
            .is_ok());
    }

    #[test]
    fn disabled_recorder_changes_nothing() {
        let engine = SDtw::new(SDtwConfig::default()).unwrap();
        let (x, y) = (series(80, 0.0), series(80, 0.2));
        let baseline = engine.query(&x, &y).run().unwrap().unwrap();
        let mut rec = Recorder::disabled();
        let traced = engine
            .query(&x, &y)
            .recorder(&mut rec)
            .run()
            .unwrap()
            .unwrap();
        assert_eq!(baseline.distance.to_bits(), traced.distance.to_bits());
        assert!(rec.finish().is_empty());
    }
}
