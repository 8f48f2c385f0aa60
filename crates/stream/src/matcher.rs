//! The batch subsequence matcher and the shared per-window cascade.

use crate::config::StreamConfig;
use crate::stats::StreamStats;
use rayon::prelude::*;
use sdtw::{DtwScratch, PreparedFeatures, SDtw};
use sdtw_dtw::cascade::{
    Cascade, CascadeScratch, CascadeStats, CoarseEnvelope, PruneStage, SampleInput, StageKind,
};
use sdtw_dtw::engine::{dtw_run_windows, engine_label, Normalization};
use sdtw_dtw::lower_bound::{lb_keogh_batch_windows, lb_kim, Envelope, SeriesSummary, LB_LANES};
use sdtw_dtw::Band;
use sdtw_obs::{InputShape, QueryTrace, Recorder, SpanRecord, TracePhase, WorkloadKind};
use sdtw_tseries::stats::SlidingMoments;
use sdtw_tseries::transform::{z_normalize, z_normalize_values};
use sdtw_tseries::{TimeSeries, TsError};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Relative slack applied to the rolling LB_Kim before it may prune.
///
/// The rolling window moments ([`SlidingMoments`]) track the exact batch
/// statistics to within ~`100·m·ε` relative (≲ 1e-9 for any realistic
/// window) *whenever they report themselves well-conditioned* — the
/// only regime [`SubseqMatcher::kim_bound`] uses them in — so a bound
/// computed from them can sit at most that far above its exact value;
/// pruning only when the bound clears the threshold by this much keeps
/// the stage admissible while letting borderline windows fall through
/// to the *exact* LB_Keogh and DP stages (which re-derive the window
/// statistics batch-style). See DESIGN.md §9 for the admissibility
/// argument.
pub const KIM_GUARD: f64 = 1e-7;

/// A serial scan's payload: the result, the spans its recorder kept,
/// and the summed (band, full-grid) areas of the DP-entering windows.
type CoreScan = (SubseqResult, Vec<SpanRecord>, (u64, u64));

/// Below this (scale-relative) deviation the rolling σ cannot be
/// distinguished from the exact σ = 0 of a constant window, where
/// z-normalisation switches to the all-zeros convention — the rolling
/// LB_Kim abstains rather than normalise by a garbage σ.
const SIGMA_FLOOR: f64 = 1e-9;

/// One reported occurrence of the query inside the searched series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SubseqMatch {
    /// Window start: the match spans `offset .. offset + query_len`.
    pub offset: usize,
    /// Its (possibly normalised) constrained DTW distance to the query.
    pub distance: f64,
}

/// Answer to one batch search: matches ascending by `(distance, offset)`,
/// plus the accounting of what the cascade disposed of.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubseqResult {
    /// Up to `k` non-overlapping matches, greedily selected ascending by
    /// `(distance, offset)` (fewer when the series has fewer eligible
    /// windows).
    pub matches: Vec<SubseqMatch>,
    /// Per-stage pruning/DP accounting.
    pub stats: StreamStats,
}

/// The per-worker buffers one window evaluation needs: the window
/// normalisation target, the DP scratch, and the cascade's stage
/// scratch. Keep one per worker/monitor, like a [`DtwScratch`].
#[derive(Debug, Clone, Default)]
pub(crate) struct EvalScratch {
    /// Normalised-window buffer.
    pub(crate) window: Vec<f64>,
    /// DP buffers.
    pub(crate) dtw: DtwScratch,
    /// Cascade stage buffers (PAA segment means).
    pub(crate) cascade: CascadeScratch,
    /// Deferred-queue window buffers: one normalised window per LB lane.
    /// Only the batch sweeps fill these — the monitor path never defers.
    pub(crate) lanes: Vec<Vec<f64>>,
}

/// What one shard's sweep produced: its pass winner, or the first error.
type SweepOutcome = Result<Option<(f64, usize)>, TsError>;

/// How the cascade disposed of one window visit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum WindowVerdict {
    /// Dropped by the named lower-bound stage.
    Pruned(StageKind),
    /// The DP abandoned early against the threshold.
    Abandoned,
    /// The DP completed with this distance.
    Completed(f64),
}

/// What the `find*` entry points search: a bare series, whose window
/// bounds each call computes itself, or a [`PreparedHaystack`] whose
/// bounds were computed once. Both convert from a reference, so callers
/// pass `&series` or `&prepared`.
#[derive(Debug, Clone, Copy)]
pub enum Haystack<'a> {
    /// A series to prepare on entry.
    Series(&'a TimeSeries),
    /// A series the searching matcher already prepared.
    Prepared(&'a PreparedHaystack<'a>),
}

impl<'a> From<&'a TimeSeries> for Haystack<'a> {
    fn from(series: &'a TimeSeries) -> Self {
        Haystack::Series(series)
    }
}

impl<'a> From<&'a PreparedHaystack<'a>> for Haystack<'a> {
    fn from(prepared: &'a PreparedHaystack<'a>) -> Self {
        Haystack::Prepared(prepared)
    }
}

impl<'a> Haystack<'a> {
    /// The searched samples.
    fn values(self) -> &'a [f64] {
        match self {
            Haystack::Series(series) => series.values(),
            Haystack::Prepared(prepared) => prepared.values,
        }
    }

    /// The window bounds `matcher` searches with: borrowed when it
    /// prepared them, computed now for a bare series.
    fn prepared_for(
        self,
        matcher: &'a SubseqMatcher,
    ) -> Result<Cow<'a, PreparedHaystack<'a>>, TsError> {
        match self {
            Haystack::Series(series) => {
                let mut prepared = PreparedHaystack::new(matcher);
                prepared.load(series);
                Ok(Cow::Owned(prepared))
            }
            Haystack::Prepared(prepared) if std::ptr::eq(prepared.matcher, matcher) => {
                Ok(Cow::Borrowed(prepared))
            }
            Haystack::Prepared(_) => Err(TsError::InvalidParameter {
                name: "haystack",
                reason: "prepared by another matcher (window bounds depend on the query)"
                    .to_string(),
            }),
        }
    }
}

/// A haystack prepared for one matcher: its samples plus the rolling
/// LB_Kim bound of every window, computed in one O(samples) pass.
///
/// The pass drives the same arithmetic as the streaming monitors' push
/// accumulators — [`SlidingMoments`] for the window moments (evicted
/// samples read back from the haystack instead of a ring buffer) and
/// [`SubseqMatcher::kim_bound`] for the bound — and takes each window's
/// exact extrema from block-wise running extrema, so every bound is
/// bit-identical to the one a monitor fed the same samples computes
/// (DESIGN.md §9).
///
/// The bounds depend on the query, so a prepared haystack belongs to the
/// matcher that made it, and the `find*` entry points refuse one made by
/// another matcher. They prepare a bare `&TimeSeries` themselves;
/// prepare it yourself when one set of bounds serves twice — the serve
/// daemon reads [`PreparedHaystack::floor`] to decide whether to sweep
/// an entry at all, then sweeps it from the same bounds.
/// [`PreparedHaystack::load`] reuses the buffers for the next series.
#[derive(Debug, Clone)]
pub struct PreparedHaystack<'a> {
    matcher: &'a SubseqMatcher,
    values: &'a [f64],
    /// Rolling LB_Kim per window, in reported-distance units (`None`:
    /// the stage abstains).
    bounds: Vec<Option<f64>>,
    floor: f64,
    /// Suffix maxima and minima of the last complete block of `m`
    /// samples (`[k]` covers the block from offset `k` to its end), plus
    /// an identity sentinel at `[m]`; kept between loads so their
    /// storage is reused.
    tail_max: Vec<f64>,
    tail_min: Vec<f64>,
}

impl<'a> PreparedHaystack<'a> {
    /// An empty haystack for `matcher`: no samples, no windows, floor
    /// `f64::INFINITY`. [`PreparedHaystack::load`] prepares a series.
    pub fn new(matcher: &'a SubseqMatcher) -> Self {
        PreparedHaystack {
            matcher,
            values: &[],
            bounds: Vec::new(),
            floor: f64::INFINITY,
            tail_max: Vec::new(),
            tail_min: Vec::new(),
        }
    }

    /// Prepares `series`, replacing whatever was loaded before: one pass
    /// over its samples computes every window's rolling LB_Kim bound and
    /// the floor, reusing this value's buffers.
    pub fn load(&mut self, series: &'a TimeSeries) {
        let xv = series.values();
        let matcher = self.matcher;
        let m = matcher.m;
        self.values = xv;
        self.bounds.clear();
        if xv.len() < m {
            self.floor = f64::INFINITY;
            return;
        }
        if !matcher.bounds_ok {
            self.bounds.resize(xv.len() - m + 1, None);
            self.floor = 0.0;
            return;
        }
        self.bounds.reserve(xv.len() - m + 1);
        // Window extrema without a data-dependent branch: cut the
        // haystack into blocks of m samples. A window is the tail of one
        // block plus the head of the next, so its maximum is the larger
        // of that tail's suffix maximum and the running maximum of the
        // head (likewise the minimum). Max and min return one of their
        // operands, so the extrema are exact.
        let (tail_max, tail_min) = (&mut self.tail_max, &mut self.tail_min);
        tail_max.clear();
        tail_max.resize(m + 1, f64::NEG_INFINITY);
        tail_min.clear();
        tail_min.resize(m + 1, f64::INFINITY);
        let (mut head_max, mut head_min) = (f64::NEG_INFINITY, f64::INFINITY);
        // samples of the current block seen so far, including `t`
        let mut in_block = m;
        let mut moments = SlidingMoments::default();
        let mut lowest = f64::INFINITY;
        let mut abstained = false;
        for (t, &v) in xv.iter().enumerate() {
            if in_block == m {
                if t >= m {
                    let (mut hi, mut lo) = (f64::NEG_INFINITY, f64::INFINITY);
                    for (k, &u) in xv[t - m..t].iter().enumerate().rev() {
                        hi = hi.max(u);
                        lo = lo.min(u);
                        tail_max[k] = hi;
                        tail_min[k] = lo;
                    }
                }
                in_block = 0;
                (head_max, head_min) = (v, v);
            } else {
                head_max = head_max.max(v);
                head_min = head_min.min(v);
            }
            in_block += 1;
            if t < m {
                moments.grow(v);
            } else if moments.slide(v, xv[t - m]) {
                moments.recentre(xv[t + 1 - m..=t].iter().copied());
            }
            if t + 1 >= m {
                // the window starts `in_block` samples into the previous
                // block: at `[m]`, the sentinel, it is the current block
                let (min, max) = (
                    tail_min[in_block].min(head_min),
                    tail_max[in_block].max(head_max),
                );
                let bound = matcher.kim_bound(xv[t + 1 - m], v, min, max, &moments);
                match bound {
                    Some(b) => lowest = lowest.min(b),
                    None => abstained = true,
                }
                self.bounds.push(bound);
            }
        }
        self.floor = if abstained {
            0.0
        } else {
            // thresholds are >= 0, so for t >= 0 the guarded prune
            // `kim > t + g·(1 + |t| + kim)` is `t < deflated(kim)`; the
            // deflation is monotone, so deflating the lowest bound gives
            // the lowest deflated bound
            let guard = if matcher.config.z_normalize {
                KIM_GUARD
            } else {
                0.0
            };
            ((lowest * (1.0 - guard) - guard) / (1.0 + guard)).max(0.0)
        };
    }

    /// The rolling LB_Kim bound of every window, by offset, in
    /// reported-distance units; `None` where the stage abstains.
    pub fn window_bounds(&self) -> &[Option<f64>] {
        &self.bounds
    }

    /// An admissible lower bound on the distance of the *best* window —
    /// the minimum of the rolling bounds, in reported-distance units. No
    /// DP work: it falls out of the bound pass.
    ///
    /// This is the per-entry floor the serve daemon's two-level cascade
    /// prunes whole recordings with: no subsequence hit inside the
    /// haystack can score below it, so an entry whose floor strictly
    /// exceeds the running k-th best hit can be skipped without sweeping
    /// it (ties must still be swept — the global tie-break may prefer
    /// them). Conservative by construction:
    ///
    /// * a window whose bound abstains (ill-conditioned σ, or bounds
    ///   disabled by the kernel) collapses the floor to the trivial
    ///   bound `0.0` — the entry is always swept;
    /// * under z-normalisation the bound is deflated by the same
    ///   [`KIM_GUARD`] relative slack the in-sweep Kim stage applies
    ///   (`kim > t + g·(1 + |t| + kim)` solved for `t`), so "floor
    ///   strictly above the threshold" is *exactly* the per-window
    ///   guarded prune decision DESIGN §9 proves admissible;
    /// * a haystack shorter than the query has no windows and returns
    ///   `f64::INFINITY` — nothing to find, always prunable.
    pub fn floor(&self) -> f64 {
        self.floor
    }
}

/// A prepared subsequence query: the UCR-style search engine.
///
/// Construction pays the per-query costs exactly once — z-normalising
/// the query, extracting its salient descriptors (adaptive policies),
/// building its LB_Keogh [`Envelope`] and LB_Kim [`SeriesSummary`], and
/// planning the band (alignment-free policies, where every `m × m`
/// window shares it). [`SubseqMatcher::find`] then slides over a long
/// series running the cascade per window:
///
/// 1. **rolling LB_Kim** — O(1) per window from the incremental window
///    moments ([`SlidingMoments`]) and exact extrema, all computed in
///    one pass over the haystack ([`PreparedHaystack`]) and
///    conservatively guarded under z-normalisation ([`KIM_GUARD`]);
/// 2. **coarse PAA pre-filter** — the exactly-normalised window's
///    segment means against the PAA-compressed query envelope
///    ([`CoarseEnvelope`]; `O(m/w)` metric evaluations, admissible under
///    the same conditions as LB_Keogh — see DESIGN.md §10);
/// 3. **LB_Keogh** — the exactly-normalised window against the query
///    envelope (when the band sits inside the envelope window);
/// 4. **early-abandoned banded DP** — cut off at the best-so-far.
///
/// All stages execute through the workspace-shared
/// [`sdtw_dtw::cascade::Cascade`] pipeline — the same runner
/// `sdtw_index` queries use. The batch sweeps additionally park Kim
/// survivors in a deferred queue of up to [`LB_LANES`] windows and
/// decide them at a flush, which starts from the threshold current when
/// it begins. What happens there depends on the band:
///
/// * **a fixed band** — every queued window shares the query and the
///   band, so their forward LB_Keogh bounds compute as one
///   [`lb_keogh_batch_windows`] lane pass, and the survivors' DPs fill in
///   lock-step, one window per lane ([`dtw_run_windows`]);
/// * **adaptive bands** — queued windows without a planned band first
///   fill their full `m × m` grids in lock-step (the screen: every
///   planned band lies inside the full grid, so a window whose full-grid
///   DP exceeds the threshold is dropped unextracted). The rest are
///   extracted, planned and decided one by one in sweep order against a
///   fresh best-so-far threshold, their DPs running through the
///   zero-copy [`SDtw::query_window`] builder path.
///
/// Thresholds only tighten within a pass, so no window that could win
/// the pass is disposed of, and completed DPs carry exact distances
/// (DESIGN.md §11): matches are bit-identical to the fully serial
/// sweep, while per-stage counters may differ from it. The streaming
/// monitor path never defers.
///
/// Results are **exact**: offsets and bit-identical distances to
/// brute-forcing the same engine over every window and greedily picking
/// the `k` best non-overlapping ones ascending by `(distance, offset)`
/// (the `sdtw_eval` subsequence oracle; ties break toward the lower
/// offset). Top-k selection runs as up to `k` sweeps, each pruning
/// against a sound best-so-far. One record per window lasts for all of
/// them: a completed window keeps its distance, any other its planned
/// band and a floor its distance cannot lie below, so a later sweep
/// answers what it can from the record and no window is extracted or
/// planned twice (DESIGN.md §9).
#[derive(Debug, Clone)]
pub struct SubseqMatcher {
    config: StreamConfig,
    engine: SDtw,
    /// The (possibly z-normalised) query samples.
    query: Vec<f64>,
    /// The query's salient features, prepared once as the fixed side of
    /// every window's band plan (empty for alignment-free policies).
    query_features: PreparedFeatures,
    query_envelope: Envelope,
    query_summary: SeriesSummary,
    /// Coarse (PAA) compression of the query envelope, feeding the
    /// pre-filter stage (`None` when `paa_width < 2` disabled it).
    query_coarse: Option<CoarseEnvelope>,
    /// Where each window's band comes from.
    bands: WindowBands,
    /// The configured pruning pipeline every window runs (shared with
    /// `sdtw_index` via `sdtw_dtw::cascade`).
    cascade: Cascade,
    m: usize,
    radius: usize,
    exclusion: usize,
    bounds_ok: bool,
}

impl SubseqMatcher {
    /// Prepares a query for subsequence search on an engine of its own.
    ///
    /// # Errors
    ///
    /// Configuration validation errors.
    pub fn new(query: &TimeSeries, config: StreamConfig) -> Result<Self, TsError> {
        config.validate()?;
        let engine = SDtw::new(config.sdtw.clone())?;
        Self::for_engine(&engine, query, config)
    }

    /// Prepares a query for subsequence search on an existing engine,
    /// whose configuration must be `config.sdtw`. The matcher keeps a
    /// clone of the engine, which shares its salient extractor: matchers
    /// prepared on one engine extract every window through one set of
    /// kernels and tables.
    ///
    /// # Errors
    ///
    /// Configuration validation errors, and an engine configured other
    /// than `config.sdtw`.
    pub fn for_engine(
        engine: &SDtw,
        query: &TimeSeries,
        config: StreamConfig,
    ) -> Result<Self, TsError> {
        config.validate()?;
        if engine.config() != &config.sdtw {
            return Err(TsError::InvalidParameter {
                name: "engine",
                reason: "the engine's configuration differs from the stream configuration's \
                         `sdtw`"
                    .to_string(),
            });
        }
        let engine = engine.clone();
        let prepared = if config.z_normalize {
            z_normalize(query)
        } else {
            query.clone()
        };
        let needs_features = config.sdtw.policy.needs_alignment();
        let query_features = if needs_features {
            PreparedFeatures::new(&engine.extractor().extract(&prepared))
        } else {
            PreparedFeatures::default()
        };
        let m = prepared.len();
        let radius = config.radius_for(m);
        let exclusion = config.exclusion_for(m);
        let query = prepared.into_values();
        let query_envelope = Envelope::build_from_values(&query, radius);
        let query_summary = SeriesSummary::of_values(&query);
        let bands = if needs_features {
            WindowBands::Planned {
                grid: Band::full(m, m),
            }
        } else {
            let (band, _) = engine.plan_band(&[], &[], m, m);
            WindowBands::Fixed(if band.is_feasible() {
                band
            } else {
                band.sanitize()
            })
        };
        let bounds_ok = config.sdtw.dtw.lower_bounds_admissible();
        let query_coarse = (config.paa_width >= 2)
            .then(|| CoarseEnvelope::build(&query_envelope, config.paa_width));
        let mut stages = vec![PruneStage::Kim {
            // rolling moments carry bounded numerical error under
            // per-window z-normalisation; the guard keeps the stage
            // admissible (raw windows have exact inputs — strict compare)
            guard: if config.z_normalize { KIM_GUARD } else { 0.0 },
        }];
        if query_coarse.is_some() {
            stages.push(PruneStage::Paa);
        }
        stages.push(PruneStage::Keogh);
        let cascade = Cascade::new(
            stages,
            config.sdtw.dtw.metric,
            config.sdtw.dtw.normalization,
            bounds_ok,
        );
        Ok(Self {
            config,
            engine,
            query,
            query_features,
            query_envelope,
            query_summary,
            query_coarse,
            bands,
            cascade,
            m,
            radius,
            exclusion,
            bounds_ok,
        })
    }

    /// The matcher configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The engine windows are compared under.
    pub fn engine(&self) -> &SDtw {
        &self.engine
    }

    /// Length of the (prepared) query — the window size.
    pub fn query_len(&self) -> usize {
        self.m
    }

    /// The prepared (possibly z-normalised) query samples.
    pub fn query_values(&self) -> &[f64] {
        &self.query
    }

    /// Minimum offset distance between two reported matches.
    pub fn exclusion(&self) -> usize {
        self.exclusion
    }

    /// The envelope radius the LB_Keogh stage was built with.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Finds the `k` best non-overlapping matches in `haystack` — a
    /// `&TimeSeries`, or a `&PreparedHaystack` this matcher prepared
    /// (every `find*` entry point takes either; see [`Haystack`]).
    ///
    /// # Errors
    ///
    /// `k == 0`, a haystack prepared by another matcher, or
    /// feature-extraction failures (adaptive policies).
    pub fn find<'h>(
        &self,
        haystack: impl Into<Haystack<'h>>,
        k: usize,
    ) -> Result<SubseqResult, TsError> {
        self.find_under_with_scratch(haystack, k, f64::INFINITY, &mut DtwScratch::new())
    }

    /// [`SubseqMatcher::find`] restricted to matches with distance `<=
    /// tau` — the monitoring workload ("report occurrences under a
    /// threshold"), and the form whose streaming counterpart
    /// ([`crate::StreamMonitor`]) is exact for every `k`.
    ///
    /// # Errors
    ///
    /// `k == 0`, a negative/NaN `tau`, a haystack prepared by another
    /// matcher, or feature-extraction failures.
    pub fn find_under<'h>(
        &self,
        haystack: impl Into<Haystack<'h>>,
        k: usize,
        tau: f64,
    ) -> Result<SubseqResult, TsError> {
        self.find_under_with_scratch(haystack, k, tau, &mut DtwScratch::new())
    }

    /// [`SubseqMatcher::find_under`] with caller-owned DP buffers (the
    /// batch hot path: keep one [`DtwScratch`] per worker).
    ///
    /// # Errors
    ///
    /// `k == 0`, a negative/NaN `tau`, a haystack prepared by another
    /// matcher, or feature-extraction failures.
    pub fn find_under_with_scratch<'h>(
        &self,
        haystack: impl Into<Haystack<'h>>,
        k: usize,
        tau: f64,
        scratch: &mut DtwScratch,
    ) -> Result<SubseqResult, TsError> {
        Ok(self.find_core(haystack.into(), k, tau, scratch, false)?.0)
    }

    /// [`SubseqMatcher::find`] with full telemetry: the result plus a
    /// canonical [`QueryTrace`] carrying phase spans (per-window LB_Kim
    /// screening, band planning, batched and scalar LB_Keogh, DP fill,
    /// whole-sweep wall), the [`StreamStats`] as the trace's counter
    /// block, and the band/grid denominators of the DP-entering windows.
    ///
    /// Matches are bit-identical to [`SubseqMatcher::find`] — recording
    /// never changes what the cascade sees.
    ///
    /// # Errors
    ///
    /// `k == 0`, a haystack prepared by another matcher, or
    /// feature-extraction failures (adaptive policies).
    pub fn find_traced<'h>(
        &self,
        haystack: impl Into<Haystack<'h>>,
        k: usize,
        query_id: &str,
    ) -> Result<(SubseqResult, QueryTrace), TsError> {
        self.find_under_traced(haystack, k, f64::INFINITY, query_id)
    }

    /// [`SubseqMatcher::find_under`] with full telemetry — the traced
    /// twin of the thresholded scan, so a `--tau` search can still emit
    /// its [`QueryTrace`].
    ///
    /// # Errors
    ///
    /// `k == 0`, a negative/NaN `tau`, a haystack prepared by another
    /// matcher, or feature-extraction failures.
    pub fn find_under_traced<'h>(
        &self,
        haystack: impl Into<Haystack<'h>>,
        k: usize,
        tau: f64,
        query_id: &str,
    ) -> Result<(SubseqResult, QueryTrace), TsError> {
        let t0 = std::time::Instant::now();
        let haystack = haystack.into();
        let (result, spans, areas) =
            self.find_core(haystack, k, tau, &mut DtwScratch::new(), true)?;
        let mut trace = QueryTrace::new(query_id, WorkloadKind::SubseqFind);
        trace.shape = self.trace_shape(haystack.values().len() as u64, k as u64);
        trace.counters = result.stats;
        trace.band_area = areas.0;
        trace.full_grid = areas.1;
        trace.spans = spans;
        trace.wall = t0.elapsed();
        Ok((result, trace))
    }

    /// The serial scan everybody funnels through: the one-shard
    /// degenerate of the sharded machinery, with an enabled recorder on
    /// the traced entry point and a disabled (≈free) one otherwise.
    /// Returns the result plus the recorded spans and the summed
    /// (band, full-grid) areas of the DP-entering windows.
    fn find_core(
        &self,
        haystack: Haystack<'_>,
        k: usize,
        tau: f64,
        scratch: &mut DtwScratch,
        traced: bool,
    ) -> Result<CoreScan, TsError> {
        Self::check_search(k, tau)?;
        let hay = haystack.prepared_for(self)?;
        let xv = hay.values;
        if xv.len() < self.m {
            return Ok((
                SubseqResult {
                    matches: Vec::new(),
                    stats: StreamStats::default(),
                },
                Vec::new(),
                (0, 0),
            ));
        }
        let w_count = xv.len() - self.m + 1;

        let mut shard = ShardScan::new(self, xv, 0, w_count, traced);
        shard.eval.dtw = std::mem::take(scratch);
        let mut selected: Vec<SubseqMatch> = Vec::new();
        let mut passes = 0u32;
        for _ in 0..k {
            passes += 1;
            match shard.sweep(self, &hay, tau, &selected)? {
                None => break,
                Some((distance, offset)) => selected.push(SubseqMatch { offset, distance }),
            }
        }
        *scratch = std::mem::take(&mut shard.eval.dtw);
        let mut stats = shard.stats;
        stats.passes = passes;
        debug_assert!(stats.is_consistent(), "every cascade entry accounted once");
        Ok((
            SubseqResult {
                matches: selected,
                stats,
            },
            shard.rec.finish(),
            shard.areas,
        ))
    }

    /// [`SubseqMatcher::find_under`] executed across the rayon pool: the
    /// haystack is split into `shards` contiguous window ranges (each
    /// worker reading its sample range plus an `m − 1` halo, so every
    /// window is evaluated whole by exactly one shard), each pass sweeps
    /// all shards concurrently, and the per-pass shard winners merge
    /// through the same greedy non-overlap selection the serial scan
    /// uses. `shards == 0` picks one shard per rayon worker.
    ///
    /// **Results are bit-identical to the serial scan** — offsets,
    /// distance bits, and tie order — for every shard count: a shard
    /// prunes only against thresholds at or above its own running pass
    /// best, which is itself at or above the global pass winner, so no
    /// window that could win (or tie) a pass is ever disposed of early.
    /// With one shard the execution *is* the serial scan, stats
    /// included. With several, per-stage disposal counts may shift
    /// between categories (each shard's threshold tightens from its
    /// local best rather than the whole series' history — a window the
    /// serial sweep pruned may complete its DP in a shard, and vice
    /// versa), but the merged [`StreamStats`] still accounts for every
    /// window visit exactly once and `windows`/`skipped_excluded` totals
    /// match the serial scan.
    ///
    /// # Errors
    ///
    /// `k == 0`, a negative/NaN `tau`, a haystack prepared by another
    /// matcher, or feature-extraction failures (adaptive policies).
    pub fn find_k_parallel<'h>(
        &self,
        haystack: impl Into<Haystack<'h>>,
        k: usize,
        tau: f64,
        shards: usize,
    ) -> Result<SubseqResult, TsError> {
        Ok(self
            .find_k_parallel_core(haystack.into(), k, tau, shards, false)?
            .0)
    }

    /// [`SubseqMatcher::find_k_parallel`] with full telemetry: each shard
    /// records its own spans on the rayon worker that runs it (honest
    /// thread ids), and the shard-local traces fold through
    /// [`QueryTrace::merge`] — counters and areas sum, spans concatenate,
    /// the merged counter block is exactly the result's [`StreamStats`].
    ///
    /// Matches stay bit-identical to the serial scan for every shard
    /// count, recording or not.
    ///
    /// # Errors
    ///
    /// `k == 0`, a negative/NaN `tau`, a haystack prepared by another
    /// matcher, or feature-extraction failures (adaptive policies).
    pub fn find_k_parallel_traced<'h>(
        &self,
        haystack: impl Into<Haystack<'h>>,
        k: usize,
        tau: f64,
        shards: usize,
        query_id: &str,
    ) -> Result<(SubseqResult, QueryTrace), TsError> {
        let t0 = std::time::Instant::now();
        let haystack = haystack.into();
        let (result, shard_traces) = self.find_k_parallel_core(haystack, k, tau, shards, true)?;
        let mut trace = QueryTrace::new(query_id, WorkloadKind::SubseqFind);
        trace.shape = self.trace_shape(haystack.values().len() as u64, k as u64);
        for st in &shard_traces {
            trace.merge(st);
        }
        // shard-local counter blocks carry passes = 0 (passes are a
        // whole-query notion); the canonical merged counters are the
        // result's, passes included
        trace.counters = result.stats;
        trace.wall = t0.elapsed();
        Ok((result, trace))
    }

    /// The sharded scan both parallel entry points funnel through.
    /// Returns the per-shard traces (spans + shard counters + areas;
    /// identity fields left default) when `traced`, an empty vec
    /// otherwise.
    fn find_k_parallel_core(
        &self,
        haystack: Haystack<'_>,
        k: usize,
        tau: f64,
        shards: usize,
        traced: bool,
    ) -> Result<(SubseqResult, Vec<QueryTrace>), TsError> {
        Self::check_search(k, tau)?;
        let hay = haystack.prepared_for(self)?;
        let xv = hay.values;
        if xv.len() < self.m {
            return Ok((
                SubseqResult {
                    matches: Vec::new(),
                    stats: StreamStats::default(),
                },
                Vec::new(),
            ));
        }
        let w_count = xv.len() - self.m + 1;
        let shard_count = if shards == 0 {
            rayon::current_num_threads()
        } else {
            shards
        }
        .clamp(1, w_count);

        // every shard reads its slice of the haystack-wide bounds; the
        // scans are built on the pool only for their recorders' sake
        let mut scans: Vec<ShardScan> = (0..shard_count)
            .into_par_iter()
            .map(|s| {
                let ws = s * w_count / shard_count;
                let we = (s + 1) * w_count / shard_count;
                // traced shards get their recorder here, on the worker
                // thread that will run them — honest thread ordinals
                ShardScan::new(self, xv, ws, we, traced)
            })
            .collect();

        let mut selected: Vec<SubseqMatch> = Vec::new();
        let mut passes = 0u32;
        for _ in 0..k {
            passes += 1;
            let outcomes: Vec<(ShardScan, SweepOutcome)> = scans
                .into_par_iter()
                .map(|mut scan| {
                    let won = scan.sweep(self, &hay, tau, &selected);
                    (scan, won)
                })
                .collect();
            scans = Vec::with_capacity(shard_count);
            let mut best: Option<(f64, usize)> = None;
            for (scan, won) in outcomes {
                scans.push(scan);
                if let Some((d, w)) = won? {
                    if Self::better(d, w, &best) {
                        best = Some((d, w));
                    }
                }
            }
            match best {
                None => break,
                Some((distance, offset)) => selected.push(SubseqMatch { offset, distance }),
            }
        }

        let mut stats = StreamStats::default();
        for scan in &scans {
            stats.merge(&scan.stats);
        }
        stats.passes = passes;
        debug_assert!(stats.is_consistent(), "every cascade entry accounted once");
        let shard_traces = if traced {
            scans
                .into_iter()
                .map(|scan| QueryTrace {
                    counters: scan.stats,
                    band_area: scan.areas.0,
                    full_grid: scan.areas.1,
                    spans: scan.rec.finish(),
                    ..QueryTrace::default()
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok((
            SubseqResult {
                matches: selected,
                stats,
            },
            shard_traces,
        ))
    }

    /// Validates the `k` and `tau` every search takes.
    fn check_search(k: usize, tau: f64) -> Result<(), TsError> {
        if k == 0 {
            return Err(TsError::InvalidParameter {
                name: "k",
                reason: "subsequence search needs k >= 1".to_string(),
            });
        }
        if tau.is_nan() || tau < 0.0 {
            return Err(TsError::InvalidParameter {
                name: "tau",
                reason: format!("distance threshold must be >= 0, got {tau}"),
            });
        }
        Ok(())
    }

    /// The [`InputShape`] block of this matcher's traces: query length,
    /// haystack/stream length, and the configured policy/kernel/engine.
    pub(crate) fn trace_shape(&self, y_len: u64, k: u64) -> InputShape {
        InputShape {
            x_len: self.m as u64,
            y_len,
            k,
            policy: self.config.sdtw.policy.label(),
            kernel: self.config.sdtw.dtw.kernel_label(),
            // windows run without a warp path
            engine: engine_label(false).into(),
        }
    }

    /// Greedy order: ascending distance, ties toward the lower offset.
    fn better(d: f64, w: usize, best: &Option<(f64, usize)>) -> bool {
        match best {
            None => true,
            Some((bd, bw)) => d < *bd || (d == *bd && w < *bw),
        }
    }

    /// Runs the shared cascade on one raw window against `threshold`,
    /// updating the caller's per-stage accounting. `kim` is the
    /// precomputed rolling bound (`None` = stage abstained). Shared by
    /// the batch sweeps, the sharded parallel scan, and the streaming
    /// monitors.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn evaluate_window(
        &self,
        raw: &[f64],
        kim: Option<f64>,
        threshold: f64,
        eval: &mut EvalScratch,
        stats: &mut CascadeStats,
        rec: &mut Recorder,
        areas: &mut (u64, u64),
    ) -> Result<WindowVerdict, TsError> {
        debug_assert_eq!(raw.len(), self.m, "window must match the query length");
        // one compare per window: timing it would cost more than it does
        if let Some(kind) = self.cascade.screen_summary(stats, kim, threshold) {
            return Ok(WindowVerdict::Pruned(kind));
        }
        // From here on the window statistics are exact: the batch-style
        // normalisation reproduces `z_normalize` bit for bit, so the
        // sample-phase bounds and the DP decide on the very values the
        // oracle sees.
        let EvalScratch {
            window,
            dtw,
            cascade,
            ..
        } = eval;
        let wv = self.normalize_window(raw, window);
        let planned;
        let (band, reach) = match &self.bands {
            WindowBands::Fixed(band) => (band, band.reach()),
            WindowBands::Planned { .. } => {
                planned = self.plan_window_band(wv, rec)?;
                (&planned.0, planned.1)
            }
        };
        self.finish_window(
            wv, band, reach, None, threshold, dtw, cascade, stats, rec, areas,
        )
    }

    /// Plans the adaptive band for one prepared (normalised) window —
    /// extract its descriptors, plan against the cached query
    /// descriptors, sanitise — and walks its [`Band::reach`] once for
    /// every later applicability check, all inside one `BandPlan` span.
    /// Only adaptive policies plan; alignment-free ones share the
    /// matcher's [`WindowBands::Fixed`] band.
    fn plan_window_band(&self, wv: &[f64], rec: &mut Recorder) -> Result<(Band, usize), TsError> {
        rec.time(TracePhase::BandPlan, || {
            let wts = TimeSeries::new(wv.to_vec())?;
            let wf = self.engine.extractor().extract(&wts);
            let (b, _) = self
                .engine
                .plan_band_prepared(&self.query_features, &wf, self.m, self.m);
            let band = if b.is_feasible() { b } else { b.sanitize() };
            let reach = band.reach();
            Ok((band, reach))
        })
    }

    /// The sample-phase inputs of one prepared window against the query.
    fn sample_input<'a>(&'a self, wv: &'a [f64], y_keogh_raw: Option<f64>) -> SampleInput<'a> {
        SampleInput {
            x: wv,
            y: &self.query,
            y_envelope: Some(&self.query_envelope),
            y_keogh_raw,
            x_envelope: None,
            y_coarse: self.query_coarse.as_ref(),
        }
    }

    /// The sample-phase stages and the early-abandoned DP for one
    /// prepared (normalised, band-planned) window; `band_reach` is the
    /// band's [`Band::reach`]. `y_keogh_raw` optionally carries the
    /// batched forward LB_Keogh bound — by construction bit-identical to
    /// the scalar value the cascade would otherwise compute itself, so
    /// passing it changes cost, never decisions.
    #[allow(clippy::too_many_arguments)]
    fn finish_window(
        &self,
        wv: &[f64],
        band: &Band,
        band_reach: usize,
        y_keogh_raw: Option<f64>,
        threshold: f64,
        dtw: &mut DtwScratch,
        cascade_scratch: &mut CascadeScratch,
        stats: &mut CascadeStats,
        rec: &mut Recorder,
        areas: &mut (u64, u64),
    ) -> Result<WindowVerdict, TsError> {
        let input = self.sample_input(wv, y_keogh_raw);
        // the sample-phase screen covers the coarse PAA pre-filter and
        // both LB_Keogh directions; all attributed to the LbKeogh span
        if let Some(kind) = rec.time(TracePhase::LbKeogh, || {
            self.cascade
                .screen_samples(stats, &input, band_reach, threshold, cascade_scratch)
        }) {
            return Ok(WindowVerdict::Pruned(kind));
        }
        areas.0 += band.area() as u64;
        areas.1 += (self.m * self.m) as u64;
        match rec.time(TracePhase::DpFill, || {
            self.engine
                .query_window(&self.query, wv)
                .band(band)
                .cutoff(threshold)
                .path(false)
                .scratch(dtw)
                .run()
        })? {
            None => {
                // the abandoning run still paid for part of the grid;
                // charge the full band conservatively (as the index does)
                stats.record_abandoned(band.area());
                Ok(WindowVerdict::Abandoned)
            }
            Some(r) => {
                stats.record_completed(r.cells_filled);
                Ok(WindowVerdict::Completed(r.distance))
            }
        }
    }

    /// The rolling LB_Kim bound of a window, in reported-distance units,
    /// from its raw first/last samples, its exact extrema and its O(1)
    /// sliding moments — the one bound step both the batch pass
    /// ([`PreparedHaystack`]) and the streaming monitors run. `None` when
    /// the stage abstains: σ too close to the constant-window convention
    /// switch, or the sliding moments numerically ill-conditioned (stale
    /// centring offset after a level shift in the stream — see
    /// [`SlidingMoments::well_conditioned`]); abstaining windows fall
    /// through to the exact LB_Keogh/DP stages, so results never depend
    /// on an untrustworthy σ. Raw (non-normalised) matchers read only
    /// the samples.
    pub fn kim_bound(
        &self,
        first: f64,
        last: f64,
        min: f64,
        max: f64,
        moments: &SlidingMoments,
    ) -> Option<f64> {
        let metric = self.config.sdtw.dtw.metric;
        let summary = if self.config.z_normalize {
            if !moments.well_conditioned() {
                return None;
            }
            let sd = moments.std_dev();
            let mean = moments.mean();
            if sd <= SIGMA_FLOOR * (1.0 + mean.abs()) {
                return None;
            }
            SeriesSummary {
                first: (first - mean) / sd,
                last: (last - mean) / sd,
                min: (min - mean) / sd,
                max: (max - mean) / sd,
                len: self.m,
            }
        } else {
            SeriesSummary {
                first,
                last,
                min,
                max,
                len: self.m,
            }
        };
        Some(self.normalize_bound(lb_kim(&self.query_summary, &summary, metric)))
    }

    /// Z-normalises a raw window into `buf` via the one shared
    /// implementation ([`z_normalize_values`] — bit-identical to the
    /// [`z_normalize`] series path by construction), or passes it
    /// through untouched in raw mode.
    pub(crate) fn normalize_window<'a>(&self, raw: &'a [f64], buf: &'a mut Vec<f64>) -> &'a [f64] {
        if !self.config.z_normalize {
            return raw;
        }
        z_normalize_values(raw, buf);
        buf
    }

    /// Converts a raw accumulated-cost bound into the units of the
    /// configured normalisation, so it compares against final distances.
    fn normalize_bound(&self, raw: f64) -> f64 {
        match self.config.sdtw.dtw.normalization {
            Normalization::None => raw,
            Normalization::LengthSum => raw / (2 * self.m) as f64,
        }
    }

    /// Greedy non-overlapping selection over scored candidates: ascending
    /// `(distance, offset)`, each pick excluding offsets closer than the
    /// matcher's exclusion distance. Used by the streaming monitor.
    pub(crate) fn select_greedy(&self, candidates: &[SubseqMatch], k: usize) -> Vec<SubseqMatch> {
        let mut order: Vec<&SubseqMatch> = candidates.iter().collect();
        order.sort_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .expect("distances are finite")
                .then(a.offset.cmp(&b.offset))
        });
        let mut picked: Vec<SubseqMatch> = Vec::new();
        for c in order {
            if picked.len() == k {
                break;
            }
            if picked
                .iter()
                .all(|p| c.offset.abs_diff(p.offset) >= self.exclusion)
            {
                picked.push(*c);
            }
        }
        picked
    }
}

/// Where a matcher's windows get their bands.
#[derive(Debug, Clone)]
enum WindowBands {
    /// Alignment-free policies: every window shares this band.
    Fixed(Band),
    /// Adaptive policies plan a band per window against the cached query
    /// descriptors. Every planned band lies inside the full `m × m`
    /// `grid`, which batch sweeps screen windows on before extracting
    /// them.
    Planned { grid: Band },
}

/// A Kim-surviving window parked in the deferred queue until the queue
/// holds [`LB_LANES`] windows or the pass ends (the queue capacity and
/// the normalised-window staging buffers are both sized from that one
/// const, which the `sdtw_dtw::simd` lane layer defines, so no
/// chunk-width assumption lives in this crate). The window is normalised
/// at enqueue time, in serial sweep order; everything else happens at the
/// flush, where only the threshold a window is decided against may be
/// looser than the serial sweep's (see `ShardScan::flush`).
#[derive(Debug)]
struct PendingWindow {
    /// Global window offset.
    w: usize,
    /// Lane buffer holding the z-normalised samples (`None` in raw mode,
    /// where the haystack is re-sliced at flush time).
    lane: Option<usize>,
}

impl PendingWindow {
    /// The window's (normalised) samples.
    fn samples<'a>(&self, lanes: &'a [Vec<f64>], xv: &'a [f64], m: usize) -> &'a [f64] {
        match self.lane {
            Some(l) => &lanes[l],
            None => &xv[self.w..self.w + m],
        }
    }
}

/// What one search has learned about a window, kept for all of its `k`
/// passes. A later pass answers the window from here when it can, and
/// otherwise resumes from what was done, so no window is extracted or
/// planned twice in one search.
#[derive(Debug, Clone)]
enum WindowRecord {
    /// The DP completed with this exact distance.
    Exact(f64),
    /// The window's distance lies at or above `floor`: the threshold it
    /// was pruned or abandoned at, or its full-grid distance (every
    /// planned band lies inside the full grid); `-∞` while nothing is
    /// known. A window whose floor is above a pass's threshold can
    /// neither win nor tie the pass. `band` is the window's planned band
    /// and its [`Band::reach`], once planned (adaptive policies).
    Bounded {
        floor: f64,
        band: Option<(Band, usize)>,
    },
}

impl Default for WindowRecord {
    fn default() -> Self {
        WindowRecord::Bounded {
            floor: f64::NEG_INFINITY,
            band: None,
        }
    }
}

/// The threshold a pass decides windows against: its running best, capped
/// at `tau`.
fn pass_threshold(best: &Option<(f64, usize)>, tau: f64) -> f64 {
    best.map_or(tau, |(d, _)| d.min(tau))
}

/// Folds a completed window into the pass best when it is within `tau`.
fn offer(best: &mut Option<(f64, usize)>, d: f64, w: usize, tau: f64) {
    if d <= tau && SubseqMatcher::better(d, w, best) {
        *best = Some((d, w));
    }
}

/// One worker's share of a (possibly sharded) scan: the window range
/// `[ws, we)` and every piece of per-worker state the sweep mutates —
/// one [`WindowRecord`] per window, the DP/cascade scratch buffers, and
/// the shard's own [`StreamStats`]. The rolling bounds it screens with
/// are its slice of the haystack-wide [`PreparedHaystack`] vector.
///
/// The serial scan runs exactly one of these over the whole window
/// range; [`SubseqMatcher::find_k_parallel`] runs one per shard and
/// merges.
#[derive(Debug)]
struct ShardScan {
    /// First window this shard owns.
    ws: usize,
    /// One past the last window this shard owns.
    we: usize,
    /// What the search knows about window `ws + i`, kept across passes.
    records: Vec<WindowRecord>,
    eval: EvalScratch,
    stats: StreamStats,
    /// Shard-local phase spans — disabled (≈free) outside the traced
    /// entry points.
    rec: Recorder,
    /// (band area, full grid area) summed over DP runs — the
    /// pruning-power denominators of a trace.
    areas: (u64, u64),
}

impl ShardScan {
    /// Prepares a shard over windows `[ws, we)` of `xv` (`ws < we`).
    fn new(matcher: &SubseqMatcher, xv: &[f64], ws: usize, we: usize, traced: bool) -> Self {
        debug_assert!(ws < we && we <= xv.len() - matcher.m + 1);
        Self {
            ws,
            we,
            records: vec![WindowRecord::default(); we - ws],
            eval: EvalScratch::default(),
            stats: StreamStats {
                windows: (we - ws) as u64,
                ..StreamStats::default()
            },
            rec: if traced {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            },
            areas: (0, 0),
        }
    }

    /// One greedy best-match pass over the shard's windows: finds the
    /// minimal `(distance, offset)` among non-excluded windows at or
    /// under `tau`, pruning against the pass's running best (seeded from
    /// the completed windows' records) — the serial sweep restricted to
    /// `[ws, we)`.
    fn sweep(
        &mut self,
        matcher: &SubseqMatcher,
        hay: &PreparedHaystack<'_>,
        tau: f64,
        selected: &[SubseqMatch],
    ) -> SweepOutcome {
        let excluded = |w: usize| {
            selected
                .iter()
                .any(|s| w.abs_diff(s.offset) < matcher.exclusion)
        };
        let (xv, kims) = (hay.values, &hay.bounds[self.ws..self.we]);
        let m = matcher.m;
        self.eval.lanes.resize(LB_LANES, Vec::new());
        // WindowSweep is the enclosing span: its duration covers the
        // whole pass, the per-stage spans nest inside it
        let sweep_t0 = self.rec.is_enabled().then(std::time::Instant::now);
        let mut best: Option<(f64, usize)> = None;
        for (w, record) in (self.ws..).zip(&self.records) {
            if let WindowRecord::Exact(d) = *record {
                if !excluded(w) {
                    offer(&mut best, d, w, tau);
                }
            }
        }
        let mut pending: Vec<PendingWindow> = Vec::with_capacity(LB_LANES);
        for (w, &kim) in (self.ws..).zip(kims) {
            if excluded(w) {
                self.stats.skipped_excluded += 1;
                continue;
            }
            // The threshold read here can be stale by the (at most
            // LB_LANES - 1) queued survivors ahead of this window;
            // staleness only ever *loosens* it, so deferral may admit an
            // extra window into the queue but never drops one the serial
            // sweep would keep. Every later decision reads a threshold
            // at or above the pass winner's distance, so the pass winner
            // stays the serial sweep's; only per-stage credit can shift.
            let threshold = pass_threshold(&best, tau);
            // a completed window already took part in the pass best, and
            // one whose floor lies above the threshold cannot win or tie
            // the pass
            match self.records[w - self.ws] {
                WindowRecord::Bounded { floor, .. } if floor <= threshold => {}
                _ => {
                    self.stats.cache_hits += 1;
                    continue;
                }
            }
            // one compare per window, counted in the WindowSweep self
            // time: a span of its own would cost more than the compare
            if matcher
                .cascade
                .screen_summary(&mut self.stats.cascade, kim, threshold)
                .is_some()
            {
                continue;
            }
            let lane = matcher.config.z_normalize.then(|| {
                let l = pending.len();
                z_normalize_values(&xv[w..w + m], &mut self.eval.lanes[l]);
                l
            });
            pending.push(PendingWindow { w, lane });
            if pending.len() == LB_LANES {
                self.flush(matcher, xv, &mut pending, tau, &mut best)?;
            }
        }
        self.flush(matcher, xv, &mut pending, tau, &mut best)?;
        if let Some(t0) = sweep_t0 {
            self.rec.add(TracePhase::WindowSweep, t0.elapsed());
        }
        Ok(best)
    }

    /// Drains the deferred window queue. Both band shapes start from the
    /// threshold `T₀` current at the start of the flush. Thresholds only
    /// tighten within a pass, so a window whose distance is shown to
    /// exceed `T₀` lies above every later threshold of the pass and
    /// cannot win or tie it; pass winners, hence matches, are the serial
    /// sweep's, while per-stage counters may differ (DESIGN §11).
    ///
    /// * **fixed band** — every window shares the query and the band:
    ///   the queue is screened (PAA, LB_Keogh) at `T₀` and the survivors'
    ///   DPs fill in lock-step at `T₀` ([`dtw_run_windows`]).
    /// * **adaptive bands** — windows without a planned band first fill
    ///   their full `m × m` grids in lock-step at `T₀`, before any
    ///   extraction (the screen). Then, in FIFO (= serial sweep) order,
    ///   each window is dropped if its full-grid distance exceeds the
    ///   current threshold, and otherwise planned (once per search) and
    ///   decided against that threshold.
    fn flush(
        &mut self,
        matcher: &SubseqMatcher,
        xv: &[f64],
        pending: &mut Vec<PendingWindow>,
        tau: f64,
        best: &mut Option<(f64, usize)>,
    ) -> Result<(), TsError> {
        if pending.is_empty() {
            return Ok(());
        }
        debug_assert!(pending.len() <= LB_LANES, "queue flushes at the lane width");
        let flushed = match &matcher.bands {
            WindowBands::Fixed(band) => {
                self.flush_fixed(matcher, xv, pending, band, tau, best);
                Ok(())
            }
            WindowBands::Planned { grid } => {
                self.flush_adaptive(matcher, xv, pending, grid, tau, best)
            }
        };
        pending.clear();
        flushed
    }

    /// The fixed-band flush: one batched forward LB_Keogh pass when the
    /// stage applies (the band inside the query-envelope window; the
    /// cascade re-derives applicability itself, so this is a performance
    /// filter, not a correctness gate), the sample-phase screen at `T₀`,
    /// and the survivors' lock-step fill at `T₀`. Completions reach the
    /// records and the pass best in FIFO order; a window pruned or
    /// abandoned at `T₀` keeps `T₀` as its floor.
    fn flush_fixed(
        &mut self,
        matcher: &SubseqMatcher,
        xv: &[f64],
        pending: &[PendingWindow],
        band: &Band,
        tau: f64,
        best: &mut Option<(f64, usize)>,
    ) {
        let Self {
            ws,
            records,
            eval,
            stats,
            rec,
            areas,
            ..
        } = self;
        let EvalScratch {
            dtw,
            cascade: cascade_scratch,
            lanes,
            ..
        } = eval;
        let lanes: &[Vec<f64>] = lanes;
        let (m, reach) = (matcher.m, band.reach());
        let threshold = pass_threshold(best, tau);
        let mut pre: [Option<f64>; LB_LANES] = [None; LB_LANES];
        if matcher.bounds_ok && reach <= matcher.radius {
            rec.time(TracePhase::LbKeogh, || {
                let views: Vec<&[f64]> = pending.iter().map(|c| c.samples(lanes, xv, m)).collect();
                let mut bounds = Vec::with_capacity(views.len());
                lb_keogh_batch_windows(
                    &views,
                    &matcher.query_envelope,
                    matcher.config.sdtw.dtw.metric,
                    &mut bounds,
                );
                for (slot, raw) in pre.iter_mut().zip(bounds) {
                    *slot = Some(raw);
                }
            });
        }
        let mut slots = [0usize; LB_LANES];
        let mut views: [&[f64]; LB_LANES] = [&[]; LB_LANES];
        let mut filling = 0;
        rec.time(TracePhase::LbKeogh, || {
            for (p, cand) in pending.iter().enumerate() {
                let wv = cand.samples(lanes, xv, m);
                let input = matcher.sample_input(wv, pre[p]);
                if matcher
                    .cascade
                    .screen_samples(
                        &mut stats.cascade,
                        &input,
                        reach,
                        threshold,
                        cascade_scratch,
                    )
                    .is_some()
                {
                    records[cand.w - *ws] = WindowRecord::Bounded {
                        floor: threshold,
                        band: None,
                    };
                } else {
                    slots[filling] = p;
                    views[filling] = wv;
                    filling += 1;
                }
            }
        });
        if filling == 0 {
            return;
        }
        let area = band.area();
        areas.0 += (filling * area) as u64;
        areas.1 += (filling * m * m) as u64;
        let filled = rec.time(TracePhase::DpFill, || {
            dtw_run_windows(
                &matcher.query,
                &views[..filling],
                band,
                &matcher.config.sdtw.dtw,
                threshold,
                dtw,
            )
        });
        for (&p, outcome) in slots[..filling].iter().zip(filled) {
            let w = pending[p].w;
            records[w - *ws] = match outcome {
                // an abandoning lane still paid for part of the grid;
                // charge the full band conservatively (as the index does)
                None => {
                    stats.cascade.record_abandoned(area);
                    WindowRecord::Bounded {
                        floor: threshold,
                        band: None,
                    }
                }
                Some(d) => {
                    stats.cascade.record_completed(area);
                    offer(best, d, w, tau);
                    WindowRecord::Exact(d)
                }
            };
        }
    }

    /// The adaptive flush: the full-grid screen at `T₀`, then FIFO
    /// decisions. A lane that dies in the screen keeps `T₀` as its floor.
    /// In FIFO order, a window whose floor (its full-grid distance, or
    /// what an earlier pass recorded) exceeds the current threshold is
    /// dropped; the rest are planned, once per search, and decided. Both
    /// kinds of drop count as abandoned DPs, and every screened lane is
    /// charged the full grid. A planned window that is pruned or
    /// abandoned keeps its band, and the threshold, for later passes.
    fn flush_adaptive(
        &mut self,
        matcher: &SubseqMatcher,
        xv: &[f64],
        pending: &[PendingWindow],
        grid: &Band,
        tau: f64,
        best: &mut Option<(f64, usize)>,
    ) -> Result<(), TsError> {
        let Self {
            ws,
            records,
            eval,
            stats,
            rec,
            areas,
            ..
        } = self;
        let EvalScratch {
            dtw,
            cascade: cascade_scratch,
            lanes,
            ..
        } = eval;
        let lanes: &[Vec<f64>] = lanes;
        let m = matcher.m;
        let mut slots = [0usize; LB_LANES];
        let mut views: [&[f64]; LB_LANES] = [&[]; LB_LANES];
        let mut filling = 0;
        for (p, cand) in pending.iter().enumerate() {
            if let WindowRecord::Bounded { band: None, .. } = records[cand.w - *ws] {
                slots[filling] = p;
                views[filling] = cand.samples(lanes, xv, m);
                filling += 1;
            }
        }
        // per queued window: its full-grid distance from this screen, or
        // whether the screen disposed of it
        let mut full: [Option<f64>; LB_LANES] = [None; LB_LANES];
        let mut dead = [false; LB_LANES];
        if filling > 0 {
            let t0 = pass_threshold(best, tau);
            let cells = (filling * m * m) as u64;
            areas.0 += cells;
            areas.1 += cells;
            stats.cascade.cells_filled += cells;
            let screened = rec.time(TracePhase::DpFill, || {
                dtw_run_windows(
                    &matcher.query,
                    &views[..filling],
                    grid,
                    &matcher.config.sdtw.dtw,
                    t0,
                    dtw,
                )
            });
            for (&p, outcome) in slots[..filling].iter().zip(screened) {
                full[p] = outcome;
                if outcome.is_none() {
                    dead[p] = true;
                    stats.cascade.abandoned += 1;
                    records[pending[p].w - *ws] = WindowRecord::Bounded {
                        floor: t0,
                        band: None,
                    };
                }
            }
        }
        for (p, cand) in pending.iter().enumerate() {
            if dead[p] {
                continue;
            }
            let i = cand.w - *ws;
            let threshold = pass_threshold(best, tau);
            let WindowRecord::Bounded { floor, band } = std::mem::take(&mut records[i]) else {
                unreachable!("completed windows are answered before the queue")
            };
            // the screen's full-grid distance bounds every banded one
            let floor = full[p].map_or(floor, |d| d.max(floor));
            if floor > threshold {
                stats.cascade.abandoned += 1;
                records[i] = WindowRecord::Bounded { floor, band };
                continue;
            }
            let wv = cand.samples(lanes, xv, m);
            let (band, reach) = match band {
                Some(planned) => planned,
                None => matcher.plan_window_band(wv, rec)?,
            };
            let verdict = matcher.finish_window(
                wv,
                &band,
                reach,
                None,
                threshold,
                dtw,
                cascade_scratch,
                &mut stats.cascade,
                rec,
                areas,
            )?;
            records[i] = match verdict {
                WindowVerdict::Completed(d) => {
                    offer(best, d, cand.w, tau);
                    WindowRecord::Exact(d)
                }
                // pruned or abandoned: the distance exceeds `threshold`
                _ => WindowRecord::Bounded {
                    floor: threshold,
                    band: Some((band, reach)),
                },
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::StreamMonitor;

    fn ts(v: Vec<f64>) -> TimeSeries {
        TimeSeries::new(v).unwrap()
    }

    /// A haystack with the query planted (shifted/scaled) at known spots.
    fn planted() -> (TimeSeries, TimeSeries) {
        let query = ts((0..48)
            .map(|i| {
                let t = i as f64 / 47.0;
                (-((t - 0.5) / 0.12).powi(2)).exp()
            })
            .collect());
        let mut hay = vec![0.0; 400];
        for (start, gain, offset) in [(60usize, 1.0, 0.0), (220, 3.0, 5.0)] {
            for i in 0..48 {
                hay[start + i] += gain * query.at(i) + offset;
            }
        }
        // mild deterministic ripple so windows are never exactly constant
        for (i, v) in hay.iter_mut().enumerate() {
            *v += 0.01 * (i as f64 / 9.0).sin();
        }
        (query, ts(hay))
    }

    #[test]
    fn prepared_floor_is_admissible_and_conservative() {
        let (query, hay) = planted();
        for z in [true, false] {
            let mut cfg = StreamConfig::exact_banded(0.2);
            cfg.z_normalize = z;
            let matcher = SubseqMatcher::new(&query, cfg).unwrap();
            let mut prepared = PreparedHaystack::new(&matcher);
            prepared.load(&hay);
            let floor = prepared.floor();
            assert!(floor >= 0.0 && floor.is_finite());
            // admissible: no window's exact distance lies below the floor
            let best = matcher.find(&prepared, 1).unwrap().matches[0].distance;
            assert!(
                floor <= best,
                "z={z}: floor {floor} above best window {best}"
            );
            // a reload reuses the buffers and forgets the old series
            let short = ts(vec![0.0; 8]);
            prepared.load(&short);
            assert_eq!(prepared.floor(), f64::INFINITY, "no windows at all");
            assert!(prepared.window_bounds().is_empty());
        }
    }

    #[test]
    fn a_haystack_prepared_by_another_matcher_is_refused() {
        let (query, hay) = planted();
        let cfg = StreamConfig::exact_banded(0.2);
        let mine = SubseqMatcher::new(&query, cfg.clone()).unwrap();
        let other = SubseqMatcher::new(&query, cfg).unwrap();
        let mut prepared = PreparedHaystack::new(&other);
        prepared.load(&hay);
        assert!(mine.find(&prepared, 1).is_err());
        assert!(mine
            .find_k_parallel(&prepared, 1, f64::INFINITY, 2)
            .is_err());
        assert_eq!(
            other.find(&prepared, 2).unwrap(),
            other.find(&hay, 2).unwrap(),
            "its own matcher searches it like the bare series"
        );
    }

    #[test]
    fn inadmissible_bounds_abstain_everywhere_and_stay_exact() {
        // no built-in kernel disables the bounds, so switch them off
        // here: every window abstains, the floor collapses to 0, and the
        // serial and sharded scans still agree
        let (query, hay) = planted();
        for z in [true, false] {
            let mut cfg = StreamConfig::exact_banded(0.2);
            cfg.z_normalize = z;
            let mut matcher = SubseqMatcher::new(&query, cfg).unwrap();
            let reference = matcher.find(&hay, 3).unwrap();
            matcher.bounds_ok = false;
            matcher.cascade = Cascade::new(
                vec![PruneStage::Kim { guard: 0.0 }, PruneStage::Keogh],
                matcher.config.sdtw.dtw.metric,
                matcher.config.sdtw.dtw.normalization,
                false,
            );
            let mut prepared = PreparedHaystack::new(&matcher);
            prepared.load(&hay);
            assert_eq!(prepared.window_bounds().len(), 400 - 48 + 1);
            assert!(prepared.window_bounds().iter().all(Option::is_none));
            assert_eq!(prepared.floor().to_bits(), 0f64.to_bits());
            let serial = matcher.find(&prepared, 3).unwrap();
            assert_eq!(serial.matches, reference.matches, "z={z}");
            assert!(serial.stats.cascade.bounds_disabled);
            for shards in [1, 2, 3, 7] {
                let sharded = matcher
                    .find_k_parallel(&prepared, 3, f64::INFINITY, shards)
                    .unwrap();
                assert_eq!(sharded.matches, serial.matches, "z={z} shards={shards}");
            }
        }
    }

    #[test]
    fn finds_planted_occurrences_under_z_normalization() {
        let (query, hay) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        let result = matcher.find(&hay, 2).unwrap();
        assert_eq!(result.matches.len(), 2);
        // both planted sites found (z-normalisation cancels gain/offset),
        // within a couple of samples of the planting position
        let mut offsets: Vec<usize> = result.matches.iter().map(|m| m.offset).collect();
        offsets.sort_unstable();
        assert!((offsets[0] as i64 - 60).abs() <= 6, "got {offsets:?}");
        assert!((offsets[1] as i64 - 220).abs() <= 6, "got {offsets:?}");
        assert!(result.stats.is_consistent());
        assert_eq!(result.stats.windows, 400 - 48 + 1);
    }

    #[test]
    fn raw_mode_is_offset_sensitive() {
        let (query, hay) = planted();
        let config = StreamConfig {
            z_normalize: false,
            ..StreamConfig::exact_banded(0.2)
        };
        let matcher = SubseqMatcher::new(&query, config).unwrap();
        let best = matcher.find(&hay, 1).unwrap().matches[0];
        // raw comparison must prefer the unscaled planting
        assert!((best.offset as i64 - 60).abs() <= 6, "got {}", best.offset);
    }

    #[test]
    fn matches_respect_the_exclusion_zone() {
        let (query, hay) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        let result = matcher.find(&hay, 5).unwrap();
        let excl = matcher.exclusion();
        for (i, a) in result.matches.iter().enumerate() {
            for b in &result.matches[i + 1..] {
                assert!(
                    a.offset.abs_diff(b.offset) >= excl,
                    "matches {a:?} and {b:?} overlap (exclusion {excl})"
                );
            }
        }
        // matches come out ascending by (distance, offset)
        for pair in result.matches.windows(2) {
            assert!(pair[0].distance <= pair[1].distance);
        }
    }

    #[test]
    fn tau_restricts_and_short_series_yield_nothing() {
        let (query, hay) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        let all = matcher.find(&hay, 3).unwrap();
        let tau = all.matches[0].distance; // only the best qualifies
        let under = matcher.find_under(&hay, 3, tau).unwrap();
        assert_eq!(under.matches.len(), 1);
        assert_eq!(under.matches[0], all.matches[0]);
        // inclusive: tau exactly at the distance keeps the match
        let short = ts(vec![0.0; 10]);
        assert!(matcher.find(&short, 1).unwrap().matches.is_empty());
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let (query, hay) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        let fresh = matcher.find(&hay, 3).unwrap();
        let mut scratch = DtwScratch::new();
        let reused = matcher
            .find_under_with_scratch(&hay, 3, f64::INFINITY, &mut scratch)
            .unwrap();
        assert_eq!(fresh.matches.len(), reused.matches.len());
        for (a, b) in fresh.matches.iter().zip(&reused.matches) {
            assert_eq!(a.offset, b.offset);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
        assert_eq!(fresh.stats, reused.stats);
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let (query, hay) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        assert!(matcher.find(&hay, 0).is_err());
        assert!(matcher.find_under(&hay, 1, -1.0).is_err());
        assert!(matcher.find_under(&hay, 1, f64::NAN).is_err());
        let bad = StreamConfig {
            exclusion_frac: -1.0,
            ..StreamConfig::default()
        };
        assert!(SubseqMatcher::new(&query, bad).is_err());
    }

    #[test]
    fn constant_windows_are_handled_by_the_sigma_convention() {
        // a flat haystack: every window z-normalises to all-zeros; the
        // search must complete without pruning anything unsoundly
        let query = ts((0..32).map(|i| (i as f64 / 5.0).sin()).collect());
        let hay = ts(vec![3.25; 200]);
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        let result = matcher.find(&hay, 1).unwrap();
        assert_eq!(result.matches.len(), 1);
        // distance to the zero window = sum of squared query samples
        // under the banded DP; just sanity-check finiteness + stats
        assert!(result.matches[0].distance.is_finite());
        assert!(result.stats.is_consistent());
    }

    #[test]
    fn level_shift_streams_stay_exact() {
        // the ill-conditioning regression: a huge DC level shift makes
        // the rolling sigma garbage for the stale-offset windows; the
        // Kim stage must abstain there rather than unsoundly prune the
        // planting hidden inside the new level
        let query = ts((0..32)
            .map(|i| (-((i as f64 / 31.0 - 0.5) / 0.15).powi(2)).exp())
            .collect());
        let mut hay = vec![0.0; 400];
        for (i, v) in hay.iter_mut().enumerate() {
            *v = 0.01 * (i as f64 / 3.0).sin();
            if i >= 200 {
                *v += 1e6; // the level shift
            }
        }
        // plant the query once before the shift and once inside the
        // stale-offset regime right after it (window fully at the new
        // level, before the next scheduled re-centring refresh): a
        // garbage rolling sigma there would corrupt the rolling LB_Kim
        // and silently drop this second match
        for (start, gain) in [(80usize, 1.0), (210, 1.0)] {
            for i in 0..32 {
                hay[start + i] += gain * query.at(i);
            }
        }
        let hay = ts(hay);
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        // brute-force oracle inline: every window, batch-normalised
        let engine = SDtw::new(matcher.config().sdtw.clone()).unwrap();
        let qts = ts(matcher.query_values().to_vec());
        let mut profile: Vec<(usize, f64)> = Vec::new();
        for w in 0..=(hay.len() - 32) {
            let window = z_normalize(&ts(hay.values()[w..w + 32].to_vec()));
            let d = engine.query(&qts, &window).run().unwrap().unwrap().distance;
            profile.push((w, d));
        }
        for k in [1usize, 3] {
            // greedy reference selection
            let mut picked: Vec<(usize, f64)> = Vec::new();
            while picked.len() < k {
                let mut best: Option<(usize, f64)> = None;
                for &(w, d) in &profile {
                    if picked
                        .iter()
                        .any(|&(p, _)| w.abs_diff(p) < matcher.exclusion())
                    {
                        continue;
                    }
                    best = match best {
                        None => Some((w, d)),
                        Some((bw, bd)) if d < bd || (d == bd && w < bw) => Some((w, d)),
                        keep => keep,
                    };
                }
                match best {
                    None => break,
                    Some(p) => picked.push(p),
                }
            }
            let got = matcher.find(&hay, k).unwrap();
            assert_eq!(got.matches.len(), picked.len(), "k={k}");
            for (m, (w, d)) in got.matches.iter().zip(&picked) {
                assert_eq!(m.offset, *w, "k={k}: the level shift broke exactness");
                assert_eq!(m.distance.to_bits(), d.to_bits(), "k={k}");
            }
        }
        // streaming mode sees the same shift sample by sample
        let batch = matcher.find(&hay, 1).unwrap();
        let mut monitor = StreamMonitor::new(matcher, 1, f64::INFINITY).unwrap();
        monitor.process(hay.values()).unwrap();
        let live = monitor.matches();
        assert_eq!(live[0].offset, batch.matches[0].offset);
        assert_eq!(
            live[0].distance.to_bits(),
            batch.matches[0].distance.to_bits()
        );
    }

    #[test]
    fn cascade_actually_prunes_on_an_easy_stream() {
        let (query, hay) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        let result = matcher.find(&hay, 1).unwrap();
        assert!(
            result.stats.cascade.pruned_before_dp() > 0,
            "lower bounds never fired: {:?}",
            result.stats
        );
        assert!(result.stats.prune_rate() > 0.2, "{:?}", result.stats);
    }
}
