//! The corpus index: build, cascade query, batch queries, JSON snapshots.

use crate::config::IndexConfig;
use crate::knn::{Neighbor, TopK};
use crate::stats::CascadeStats;
use rayon::prelude::*;
use sdtw::{DtwScratch, PreparedFeatures, SDtw};
use sdtw_dtw::band::Band;
use sdtw_dtw::cascade::{
    Cascade, CascadeScratch, CoarseEnvelope, PruneStage, SampleInput, StageKind,
};
use sdtw_dtw::engine::{engine_label, Normalization};
use sdtw_dtw::lower_bound::{lb_keogh_batch, lb_kim_batch, Envelope, SeriesSummary, LB_LANES};
use sdtw_obs::{InputShape, QueryTrace, Recorder, TracePhase, WorkloadKind};
use sdtw_salient::SalientFeature;
use sdtw_tseries::transform::z_normalize;
use sdtw_tseries::{TimeSeries, TsError};
use serde::{Deserialize, Serialize};

/// One indexed corpus entry: the (possibly z-normalised) series plus every
/// precomputed artefact the cascade consumes — the LB_Kim summary, the
/// LB_Keogh envelope, and the salient descriptors the sDTW band planner
/// reuses across all queries (paper §3.4: extraction is a one-time,
/// indexable cost).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IndexEntry {
    /// The stored series (post-normalisation when the index z-normalises).
    pub series: TimeSeries,
    /// Upper/lower envelope under the configured window radius.
    pub envelope: Envelope,
    /// Endpoint/extremum summary for the O(1) first filter.
    pub summary: SeriesSummary,
    /// Cached salient features (empty when the policy ignores alignment).
    pub features: Vec<SalientFeature>,
    /// Coarse PAA compression of `envelope` for the pre-filter stage
    /// (`None` when [`IndexConfig::paa_width`] disables the stage).
    pub coarse: Option<CoarseEnvelope>,
}

// Hand-written for schema evolution: entries serialised before the PAA
// stage existed have no `coarse` member — they decode to `None` and the
// snapshot loader backfills the artefact deterministically from the
// stored envelope.
impl serde::Deserialize for IndexEntry {
    fn from_json(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            series: serde::Deserialize::from_json(serde::obj_get(v, "series")?)?,
            envelope: serde::Deserialize::from_json(serde::obj_get(v, "envelope")?)?,
            summary: serde::Deserialize::from_json(serde::obj_get(v, "summary")?)?,
            features: serde::Deserialize::from_json(serde::obj_get(v, "features")?)?,
            coarse: match v.get("coarse") {
                Some(c) => serde::Deserialize::from_json(c)?,
                None => None,
            },
        })
    }
}

/// Answer to one kNN query: neighbours ascending by `(distance, index)`,
/// plus the per-stage pruning accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// The k nearest entries (fewer when the corpus is smaller than k).
    pub neighbors: Vec<Neighbor>,
    /// What each cascade stage disposed of for this query.
    pub stats: CascadeStats,
}

/// One corpus entry's stage-1 screening record: its normalised LB_Kim
/// bound against the query, carried in visit order by a
/// [`CoarseScreen`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryBound {
    /// Corpus entry index.
    pub index: usize,
    /// Normalised LB_Kim bound of the (query, entry) pair — an
    /// admissible lower bound on their whole-recording distance when
    /// [`CoarseScreen::admissible`] holds, a visit-order heuristic
    /// otherwise.
    pub bound: f64,
}

/// The stage-1 coarse screen of a query against every indexed entry:
/// the bucketed ascending visit order the kNN cascade itself uses,
/// exposed so composing services (the serve daemon's two-level pattern
/// search) can rank entries without running the whole cascade.
///
/// The bounds speak about *whole-recording* distances under the index's
/// normalisation — a consumer localising subsequences inside entries
/// must treat them as ranking hints only and prune with its own
/// window-level bounds (see DESIGN.md §13).
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseScreen {
    /// Every entry exactly once, bucketed ascending by bound (stable by
    /// index within a bucket).
    pub order: Vec<EntryBound>,
    /// Whether the configured kernel keeps the LB stages admissible
    /// (`false` turns every bound into a pure heuristic that must not
    /// prune).
    pub admissible: bool,
}

/// How the kNN cascade disposed of one corpus entry
/// (see [`SdtwIndex::query_detailed`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EntryOutcome {
    /// A lower-bound stage proved the entry cannot enter the top-k.
    Pruned(StageKind),
    /// The banded DP abandoned early: the partial cost already exceeded
    /// the running k-th distance.
    Abandoned,
    /// The DP completed with this exact distance (the entry is a
    /// *survivor*; it is in the top-k iff the distance made the cut).
    Completed(f64),
}

/// Per-entry record of a detailed kNN query: the coarse stage-1 bound
/// that ordered the visit plus the cascade's final verdict. The pruned /
/// abandoned / completed split is the survivor set the serve subsystem's
/// admissibility tests audit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryDisposition {
    /// Corpus entry index.
    pub index: usize,
    /// The normalised LB_Kim bound from the ordering pass.
    pub coarse_bound: f64,
    /// The cascade's verdict for this entry.
    pub outcome: EntryOutcome,
}

/// Serialisable image of an index (the engine is rebuilt on load).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct IndexSnapshot {
    config: IndexConfig,
    entries: Vec<IndexEntry>,
}

/// A Kim-surviving candidate parked in the deferred queue until enough
/// accumulate to batch their forward LB_Keogh bounds ([`LB_LANES`] at a
/// time — the queue capacity is never assumed to be a literal `8`; the
/// width comes from the `sdtw_dtw::simd` lane layer through that one
/// const, so widening the SIMD lanes re-sizes this queue automatically).
/// The band is planned at enqueue time — in serial visit order — so
/// deferral changes *when* the per-sample stages run, never what they
/// see.
#[derive(Debug)]
struct PendingCandidate {
    idx: usize,
    band: Band,
    /// The band's [`Band::reach`], walked once for both the batch
    /// predicate and the cascade's applicability checks.
    reach: usize,
    /// The stage-1 bound that ordered the visit (kept for dispositions).
    kim: f64,
}

/// Orders scored candidates ascending by bound *approximately*, via one
/// O(n) stable counting pass over equal-width buckets instead of a full
/// `O(n log n)` sort — the visit order only seeds how fast the top-k
/// threshold tightens, so bucket-granular ordering keeps results exact
/// (every candidate is still screened) while taking the recurring
/// per-query sort off the serve hot path. Within a bucket the input
/// (entry-index) order is preserved, so the order is deterministic.
fn bucketed_ascending(scored: Vec<(f64, usize)>) -> Vec<(f64, usize)> {
    if scored.len() <= 1 {
        return scored;
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(b, _) in &scored {
        debug_assert!(b.is_finite(), "lower bounds are finite");
        lo = lo.min(b);
        hi = hi.max(b);
    }
    let span = hi - lo;
    if span <= 0.0 || span.is_nan() {
        // all bounds equal (or degenerate): input order is already the
        // stable ascending order
        return scored;
    }
    let nb = scored.len().min(64);
    let bucket_of = |b: f64| (((b - lo) / span) * nb as f64).min((nb - 1) as f64) as usize;
    let mut counts = vec![0usize; nb];
    for &(b, _) in &scored {
        counts[bucket_of(b)] += 1;
    }
    let mut next = vec![0usize; nb];
    let mut acc = 0usize;
    for (n, c) in next.iter_mut().zip(&counts) {
        *n = acc;
        acc += c;
    }
    let mut out = vec![(0.0, 0usize); scored.len()];
    for &(b, i) in &scored {
        let slot = &mut next[bucket_of(b)];
        out[*slot] = (b, i);
        *slot += 1;
    }
    out
}

/// A prebuilt kNN index over a `TimeSeries` corpus.
///
/// Build time precomputes, per entry: the z-normalised series (optional),
/// the LB_Kim [`SeriesSummary`], the LB_Keogh [`Envelope`], and the
/// salient descriptors the sDTW band planner needs. Query time runs the
/// cascade, visiting candidates in ascending LB_Kim order so the top-k
/// heap tightens as early as possible:
///
/// 1. **LB_Kim** — O(1) endpoint/extremum bound (admissible for every
///    feasible band);
/// 2. **LB_Keogh** — query samples against the entry's precomputed
///    envelope (admissible when the pair's sanitised band stays inside
///    the envelope window);
/// 3. **reversed LB_Keogh** — entry samples against the query's envelope
///    (built once per query);
/// 4. **early-abandoned banded DP** — seeded with the current k-th best
///    distance, reusing one [`DtwScratch`] per query (or per worker in
///    batch mode).
///
/// The LB_Kim ordering pass runs through the batched [`lb_kim_batch`]
/// lanes, and Kim survivors are parked in a deferred queue of up to
/// [`LB_LANES`] candidates so their forward LB_Keogh bounds compute as
/// one [`lb_keogh_batch`] lane pass; every pruning *decision* still
/// happens sequentially in visit order against a fresh top-k threshold,
/// which keeps results bit-identical to the fully serial sweep.
///
/// Results are exact: identical ids *and* distances (bit-for-bit) to
/// brute-forcing the same [`SDtw`] engine over the corpus, including
/// distance ties, which break toward the lower entry index exactly as the
/// `sdtw_eval::QueryMatrix` oracle does.
#[derive(Debug, Clone)]
pub struct SdtwIndex {
    config: IndexConfig,
    engine: SDtw,
    entries: Vec<IndexEntry>,
}

impl SdtwIndex {
    /// Builds an index over a corpus.
    ///
    /// # Errors
    ///
    /// Configuration validation errors.
    pub fn build(corpus: &[TimeSeries], config: IndexConfig) -> Result<Self, TsError> {
        config.validate()?;
        let engine = SDtw::new(config.sdtw.clone())?;
        let needs_features = config.sdtw.policy.needs_alignment();
        let entries = corpus
            .iter()
            .map(|ts| {
                let series = if config.z_normalize {
                    z_normalize(ts)
                } else {
                    ts.clone()
                };
                let envelope = Envelope::build(&series, config.radius_for(series.len()));
                let summary = SeriesSummary::of(&series);
                let features = if needs_features {
                    engine.extractor().extract(&series)
                } else {
                    Vec::new()
                };
                let coarse = (config.paa_width >= 2)
                    .then(|| CoarseEnvelope::build(&envelope, config.paa_width));
                IndexEntry {
                    series,
                    envelope,
                    summary,
                    features,
                    coarse,
                }
            })
            .collect();
        Ok(Self {
            config,
            engine,
            entries,
        })
    }

    /// The index configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The engine queries are answered under (configured as
    /// `config().sdtw`). Clones share its salient extractor, so
    /// components built on it, such as a serve engine's per-pattern
    /// matchers, extract through the index's own kernels and tables.
    pub fn engine(&self) -> &SDtw {
        &self.engine
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored (post-normalisation) series of entry `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn entry_series(&self, i: usize) -> &TimeSeries {
        &self.entries[i].series
    }

    /// The indexed entries (inspection/tests).
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// Converts a raw accumulated-cost bound into the units of the
    /// configured normalisation, so it compares against final distances.
    fn normalize_bound(&self, raw: f64, n: usize, m: usize) -> f64 {
        match self.config.sdtw.dtw.normalization {
            Normalization::None => raw,
            Normalization::LengthSum => raw / (n + m) as f64,
        }
    }

    /// The shared pruning pipeline a query of this index runs: LB_Kim →
    /// coarse PAA → LB_Keogh → reversed LB_Keogh, with the bound stages
    /// disabled entirely when the configured kernel reports them
    /// inadmissible. The PAA stage sits between Kim and Keogh because
    /// its `O(len / width)` cost fills the gap between the O(1) summary
    /// bound and the O(len) fine bound — and since its bound never
    /// exceeds LB_Keogh's (with the same applicability condition), it
    /// only shifts pruning *credit* earlier, never changing the top-k.
    /// When [`IndexConfig::paa_width`] disables it, the stage is omitted
    /// from the list entirely so `lb_inapplicable` accounting matches
    /// the pre-PAA cascade exactly.
    fn cascade(&self, bounds_enabled: bool) -> Cascade {
        let mut stages = Vec::with_capacity(4);
        stages.push(PruneStage::Kim { guard: 0.0 });
        if self.config.paa_width >= 2 {
            stages.push(PruneStage::Paa);
        }
        stages.push(PruneStage::Keogh);
        stages.push(PruneStage::KeoghRev);
        Cascade::new(
            stages,
            self.config.sdtw.dtw.metric,
            self.config.sdtw.dtw.normalization,
            bounds_enabled,
        )
    }

    /// kNN query with a caller-provided DP scratch (the batch hot path).
    ///
    /// # Errors
    ///
    /// `k == 0`, or feature extraction failing on the query.
    pub fn query_with_scratch(
        &self,
        query: &TimeSeries,
        k: usize,
        scratch: &mut DtwScratch,
    ) -> Result<QueryResult, TsError> {
        let (result, _, _) = self.query_recorded(query, k, scratch, &mut Recorder::disabled())?;
        Ok(result)
    }

    /// kNN query with full telemetry: the result plus a canonical
    /// [`QueryTrace`] with phase spans (extraction, envelope build,
    /// LB_Kim ordering, band planning, batched LB_Keogh, DP fill), the
    /// cascade counters embedded as the trace's counter block, and the
    /// band/grid denominators for pruning-power metrics.
    ///
    /// Results are bit-identical to [`SdtwIndex::query`] — recording
    /// never changes what the cascade sees.
    ///
    /// # Errors
    ///
    /// `k == 0`, or feature extraction failing on the query.
    pub fn query_traced(
        &self,
        query: &TimeSeries,
        k: usize,
        query_id: &str,
    ) -> Result<(QueryResult, QueryTrace), TsError> {
        let t0 = std::time::Instant::now();
        let mut scratch = DtwScratch::new();
        let mut rec = Recorder::enabled();
        let (result, band_area, full_grid) =
            self.query_recorded(query, k, &mut scratch, &mut rec)?;
        let mut trace = QueryTrace::new(query_id, WorkloadKind::IndexKnn);
        trace.shape = InputShape {
            x_len: query.len() as u64,
            y_len: self.entries.first().map_or(0, |e| e.series.len() as u64),
            k: k as u64,
            policy: self.config.sdtw.policy.label(),
            kernel: self.config.sdtw.dtw.kernel_label(),
            // candidates run without a warp path
            engine: engine_label(false).into(),
        };
        trace.counters.cascade = result.stats;
        trace.counters.passes = 1;
        trace.band_area = band_area;
        trace.full_grid = full_grid;
        trace.spans = rec.finish();
        trace.wall = t0.elapsed();
        Ok((result, trace))
    }

    /// The batched stage-1 ordering pass over a *prepared* (normalised)
    /// query: every entry's normalised LB_Kim bound, in bucketed
    /// ascending visit order.
    fn coarse_order(&self, q: &TimeSeries) -> Vec<(f64, usize)> {
        let metric = self.config.sdtw.dtw.metric;
        let q_summary = SeriesSummary::of(q);
        let summaries: Vec<SeriesSummary> = self.entries.iter().map(|e| e.summary).collect();
        let mut kim_raw = Vec::with_capacity(summaries.len());
        lb_kim_batch(&q_summary, &summaries, metric, &mut kim_raw);
        let scored: Vec<(f64, usize)> = kim_raw
            .iter()
            .enumerate()
            .map(|(i, &raw)| {
                (
                    self.normalize_bound(raw, q.len(), self.entries[i].series.len()),
                    i,
                )
            })
            .collect();
        bucketed_ascending(scored)
    }

    /// Runs only the stage-1 coarse screen: every entry's normalised
    /// LB_Kim bound against `query`, in the same bucketed ascending
    /// visit order a kNN query would use. O(corpus) with no DP work —
    /// the level-1 ranking seam of the serve daemon's two-level pattern
    /// cascade.
    pub fn coarse_screen(&self, query: &TimeSeries) -> CoarseScreen {
        let q = if self.config.z_normalize {
            z_normalize(query)
        } else {
            query.clone()
        };
        let order = self
            .coarse_order(&q)
            .into_iter()
            .map(|(bound, index)| EntryBound { index, bound })
            .collect();
        CoarseScreen {
            order,
            admissible: self.config.sdtw.dtw.lower_bounds_admissible(),
        }
    }

    /// kNN query that also reports, per corpus entry, the cascade's
    /// verdict and the stage-1 bound that ordered its visit — the
    /// survivor set (entries whose DP completed, distances included) and
    /// the per-entry lower bounds that justify every prune.
    /// Dispositions are returned in entry-index order, one per entry.
    ///
    /// The [`QueryResult`] is bit-identical to [`SdtwIndex::query`].
    ///
    /// # Errors
    ///
    /// `k == 0`, or feature extraction failing on the query.
    pub fn query_detailed(
        &self,
        query: &TimeSeries,
        k: usize,
    ) -> Result<(QueryResult, Vec<EntryDisposition>), TsError> {
        let mut scratch = DtwScratch::new();
        let mut dispositions = Vec::with_capacity(self.entries.len());
        let (result, _, _) = self.query_recorded_into(
            query,
            k,
            &mut scratch,
            &mut Recorder::disabled(),
            Some(&mut dispositions),
        )?;
        dispositions.sort_by_key(|d| d.index);
        Ok((result, dispositions))
    }

    /// The instrumented query body: every public entry point funnels
    /// here, with a disabled recorder on the untraced paths. Returns the
    /// result plus the summed band area and unconstrained grid area of
    /// the candidates that reached the DP stage.
    fn query_recorded(
        &self,
        query: &TimeSeries,
        k: usize,
        scratch: &mut DtwScratch,
        rec: &mut Recorder,
    ) -> Result<(QueryResult, u64, u64), TsError> {
        self.query_recorded_into(query, k, scratch, rec, None)
    }

    /// [`SdtwIndex::query_recorded`] with an optional per-entry
    /// disposition sink (pushed in visit order; filled for every entry).
    fn query_recorded_into(
        &self,
        query: &TimeSeries,
        k: usize,
        scratch: &mut DtwScratch,
        rec: &mut Recorder,
        mut dispositions: Option<&mut Vec<EntryDisposition>>,
    ) -> Result<(QueryResult, u64, u64), TsError> {
        if k == 0 {
            return Err(TsError::InvalidParameter {
                name: "k",
                reason: "top-k retrieval needs k >= 1".to_string(),
            });
        }
        let q = if self.config.z_normalize {
            z_normalize(query)
        } else {
            query.clone()
        };
        // the query is the fixed side of every candidate's band plan:
        // extract and prepare it once
        let fq = if self.config.sdtw.policy.needs_alignment() {
            rec.time(TracePhase::Extraction, || {
                PreparedFeatures::new(&self.engine.extractor().extract(&q))
            })
        } else {
            PreparedFeatures::default()
        };
        let q_radius = self.config.radius_for(q.len());
        // LB_Kim/LB_Keogh bound the *standard symmetric1* accumulation;
        // the kernel declares whether its costs dominate that (true for
        // the standard patterns and for amerced with ω ≥ 0). A kernel
        // that discounts costs would make the bounds unsound, so its
        // queries skip the LB stages entirely — logged via
        // `CascadeStats::bounds_disabled`. Early abandoning needs only
        // per-kernel monotonicity and stays on.
        let bounds_ok = self.config.sdtw.dtw.lower_bounds_admissible();
        // the query envelope only feeds the reversed LB_Keogh stage —
        // skip the O(n·radius) build when the bounds are off
        let q_env = bounds_ok
            .then(|| rec.time(TracePhase::EnvelopeBuild, || Envelope::build(&q, q_radius)));
        let cascade = self.cascade(bounds_ok);
        let mut cascade_scratch = CascadeScratch::new();

        // Stage 1 for everyone up front — batched eight summaries per
        // lane pass (bit-identical to the scalar `lb_kim`): O(1) per
        // entry, and the visit order it induces (bucketed ascending
        // bound, stable by index) tightens the top-k threshold as early
        // as possible without paying a full per-query sort. Without
        // admissible bounds it is still a deterministic (and usually
        // helpful) visit-order heuristic — it just never prunes.
        let order = rec.time(TracePhase::LbKim, || self.coarse_order(&q));

        let mut topk = TopK::new(k, self.entries.len());
        let mut stats = CascadeStats::default();
        // (band area, unconstrained grid area) summed over DP candidates —
        // the pruning-power denominators of a trace
        let mut areas = (0u64, 0u64);
        let mut pending: Vec<PendingCandidate> = Vec::with_capacity(LB_LANES);

        for &(kim, idx) in &order {
            let entry = &self.entries[idx];
            // strict comparisons throughout (inside the cascade): a
            // candidate tying the current k-th distance must still be
            // examined — the index tie-break decides whether it
            // displaces the incumbent.
            //
            // The threshold this Kim screen reads can be stale by the (at
            // most LB_LANES - 1) queued survivors ahead of this candidate;
            // staleness only ever *loosens* it, so deferral may admit an
            // extra candidate into the queue but never drops one the
            // serial order would keep. The flush re-reads a fresh
            // threshold before every decision that can touch the top-k,
            // so results stay bit-identical to the serial sweep — an
            // admitted-by-staleness candidate necessarily exceeds its
            // fresh flush threshold and falls to a later stage (shifting
            // pruning *credit* between stages, never counts in or out of
            // the top-k).
            let threshold = topk.threshold();
            if let Some(kind) = cascade.screen_summary(&mut stats, Some(kim), threshold) {
                if let Some(d) = dispositions.as_deref_mut() {
                    d.push(EntryDisposition {
                        index: idx,
                        coarse_bound: kim,
                        outcome: EntryOutcome::Pruned(kind),
                    });
                }
                continue;
            }
            let (n, m) = (q.len(), entry.series.len());
            let (band, _) = rec.time(TracePhase::BandPlan, || {
                self.engine.plan_band_prepared(&fq, &entry.features, n, m)
            });
            // The DP kernel sanitises infeasible bands internally (for the
            // oracle path too — deterministically, so distances cannot
            // diverge); LB admissibility must be judged on those same
            // cells. Every current policy already emits feasible bands, so
            // this is a no-op guard for future band builders.
            let band = if band.is_feasible() {
                band
            } else {
                band.sanitize()
            };
            let reach = band.reach();
            pending.push(PendingCandidate {
                idx,
                band,
                reach,
                kim,
            });
            if pending.len() == LB_LANES {
                self.flush_pending(
                    &mut pending,
                    &q,
                    q_env.as_ref(),
                    &cascade,
                    &mut cascade_scratch,
                    &mut topk,
                    &mut stats,
                    scratch,
                    rec,
                    &mut areas,
                    dispositions.as_deref_mut(),
                );
            }
        }
        self.flush_pending(
            &mut pending,
            &q,
            q_env.as_ref(),
            &cascade,
            &mut cascade_scratch,
            &mut topk,
            &mut stats,
            scratch,
            rec,
            &mut areas,
            dispositions,
        );
        debug_assert!(stats.is_consistent(), "every candidate accounted once");
        let neighbors = rec.time(TracePhase::TopKMerge, || topk.into_sorted());
        Ok((QueryResult { neighbors, stats }, areas.0, areas.1))
    }

    /// Drains the deferred candidate queue: one batched forward LB_Keogh
    /// pass over the lanes whose stage applies (same predicate the
    /// cascade uses — equal lengths and the band inside the envelope
    /// window), then each candidate is decided strictly in FIFO (= serial
    /// visit) order against a *fresh* top-k threshold. The cascade
    /// re-derives applicability itself and falls back to the scalar
    /// bound when no precomputed value is present, so the predicate here
    /// is a performance filter, not a correctness gate.
    #[allow(clippy::too_many_arguments)]
    fn flush_pending(
        &self,
        pending: &mut Vec<PendingCandidate>,
        q: &TimeSeries,
        q_env: Option<&Envelope>,
        cascade: &Cascade,
        cascade_scratch: &mut CascadeScratch,
        topk: &mut TopK,
        stats: &mut CascadeStats,
        scratch: &mut DtwScratch,
        rec: &mut Recorder,
        areas: &mut (u64, u64),
        mut dispositions: Option<&mut Vec<EntryDisposition>>,
    ) {
        if pending.is_empty() {
            return;
        }
        debug_assert!(pending.len() <= LB_LANES, "queue flushes at the lane width");
        let metric = self.config.sdtw.dtw.metric;
        let mut pre: [Option<f64>; LB_LANES] = [None; LB_LANES];
        if cascade.bounds_enabled() {
            rec.time(TracePhase::LbKeogh, || {
                let mut lanes: Vec<usize> = Vec::with_capacity(pending.len());
                let mut envs: Vec<&Envelope> = Vec::with_capacity(pending.len());
                for (p, cand) in pending.iter().enumerate() {
                    let entry = &self.entries[cand.idx];
                    if q.len() == entry.series.len() && cand.reach <= entry.envelope.radius {
                        lanes.push(p);
                        envs.push(&entry.envelope);
                    }
                }
                let mut bounds = Vec::with_capacity(lanes.len());
                lb_keogh_batch(q.values(), &envs, metric, &mut bounds);
                for (&p, &raw) in lanes.iter().zip(&bounds) {
                    pre[p] = Some(raw);
                }
            });
        }
        for (p, cand) in pending.drain(..).enumerate() {
            let entry = &self.entries[cand.idx];
            let threshold = topk.threshold();
            let input = SampleInput {
                x: q.values(),
                y: entry.series.values(),
                y_envelope: Some(&entry.envelope),
                y_keogh_raw: pre[p],
                x_envelope: q_env,
                y_coarse: entry.coarse.as_ref(),
            };
            // the sample-phase screen covers LB_Keogh and its reversed
            // second chance; both are attributed to the LbKeogh span
            if let Some(kind) = rec.time(TracePhase::LbKeogh, || {
                cascade.screen_samples(stats, &input, cand.reach, threshold, cascade_scratch)
            }) {
                if let Some(d) = dispositions.as_deref_mut() {
                    d.push(EntryDisposition {
                        index: cand.idx,
                        coarse_bound: cand.kim,
                        outcome: EntryOutcome::Pruned(kind),
                    });
                }
                continue;
            }
            areas.0 += cand.band.area() as u64;
            areas.1 += (q.len() * entry.series.len()) as u64;
            match rec
                .time(TracePhase::DpFill, || {
                    self.engine
                        .query(q, &entry.series)
                        .band(&cand.band)
                        .cutoff(threshold)
                        .path(false)
                        .scratch(scratch)
                        .run()
                })
                .expect("band override cannot fail extraction")
            {
                None => {
                    stats.record_abandoned(cand.band.area());
                    if let Some(d) = dispositions.as_deref_mut() {
                        d.push(EntryDisposition {
                            index: cand.idx,
                            coarse_bound: cand.kim,
                            outcome: EntryOutcome::Abandoned,
                        });
                    }
                }
                Some(r) => {
                    stats.record_completed(r.cells_filled);
                    topk.offer(cand.idx, r.distance);
                    if let Some(d) = dispositions.as_deref_mut() {
                        d.push(EntryDisposition {
                            index: cand.idx,
                            coarse_bound: cand.kim,
                            outcome: EntryOutcome::Completed(r.distance),
                        });
                    }
                }
            }
        }
    }

    /// kNN query (allocates a fresh DP scratch; see
    /// [`SdtwIndex::query_with_scratch`] for the reusing variant).
    ///
    /// # Errors
    ///
    /// `k == 0`, or feature extraction failing on the query.
    pub fn query(&self, query: &TimeSeries, k: usize) -> Result<QueryResult, TsError> {
        let mut scratch = DtwScratch::new();
        self.query_with_scratch(query, k, &mut scratch)
    }

    /// Answers a batch of queries, optionally on the rayon worker pool
    /// (one DP scratch per worker). Queries are independent, so parallel
    /// results are bit-identical to serial ones and arrive in input
    /// order.
    ///
    /// # Errors
    ///
    /// The first per-query error (`k == 0`, feature extraction).
    pub fn batch_query(
        &self,
        queries: &[TimeSeries],
        k: usize,
        parallel: bool,
    ) -> Result<Vec<QueryResult>, TsError> {
        let results: Vec<Result<QueryResult, TsError>> = if parallel {
            (0..queries.len())
                .into_par_iter()
                .map_init(DtwScratch::new, |scratch, i| {
                    self.query_with_scratch(&queries[i], k, scratch)
                })
                .collect()
        } else {
            let mut scratch = DtwScratch::new();
            queries
                .iter()
                .map(|q| self.query_with_scratch(q, k, &mut scratch))
                .collect()
        };
        results.into_iter().collect()
    }

    /// Serialises the index to the JSON snapshot text (the codec's
    /// [`crate::SnapshotFormat::Json`] payload).
    pub(crate) fn encode_json(&self) -> Result<String, TsError> {
        let snapshot = IndexSnapshot {
            config: self.config.clone(),
            entries: self.entries.clone(),
        };
        serde_json::to_string(&snapshot).map_err(|e| TsError::SnapshotDecode {
            format: "json",
            offset: None,
            context: e.to_string(),
        })
    }

    /// Decodes the JSON snapshot text and assembles the index through
    /// the shared validation path.
    pub(crate) fn decode_json(json: &str) -> Result<Self, TsError> {
        let snapshot: IndexSnapshot =
            serde_json::from_str(json).map_err(|e| TsError::SnapshotDecode {
                format: "json",
                offset: None,
                context: e.to_string(),
            })?;
        Self::from_snapshot_parts(snapshot.config, snapshot.entries, "json")
    }

    /// The one assembly path every snapshot codec funnels into:
    /// revalidates the configuration, rebuilds the engine, checks the
    /// per-entry structural invariants — envelope length/radius and
    /// summary length must match the stored series and configuration,
    /// cached features must lie within their series and be usable by the
    /// matcher (descriptors of the configured `bins` length, finite
    /// values, positive finite σ, finite scope length and amplitude),
    /// alignment-free policies must carry no features, and any stored
    /// coarse envelope must agree with the configured PAA width — then
    /// backfills coarse envelopes missing from pre-PAA snapshots
    /// (deterministically, from the stored envelope, so a migrated index
    /// answers bit-identically to a freshly built one). Other artefact
    /// *content* (descriptor and tube values that are finite) is trusted,
    /// like any database file — rebuild from the raw corpus if the
    /// snapshot's provenance is in doubt.
    pub(crate) fn from_snapshot_parts(
        config: IndexConfig,
        mut entries: Vec<IndexEntry>,
        format: &'static str,
    ) -> Result<Self, TsError> {
        config.validate()?;
        let engine = SDtw::new(config.sdtw.clone())?;
        let needs_features = config.sdtw.policy.needs_alignment();
        let bins = config.sdtw.salient.descriptor.bins;
        let corrupt = |i: usize, what: String| TsError::SnapshotDecode {
            format,
            offset: None,
            context: format!("entry {i}: {what}"),
        };
        for (i, e) in entries.iter().enumerate() {
            let len = e.series.len();
            let expected_radius = config.radius_for(len);
            if e.envelope.upper.len() != len
                || e.envelope.lower.len() != len
                || e.envelope.radius != expected_radius
                || e.summary.len != len
            {
                return Err(corrupt(
                    i,
                    format!(
                        "envelope/summary inconsistent with series \
                         (len {len}, expected radius {expected_radius})"
                    ),
                ));
            }
            if !needs_features && !e.features.is_empty() {
                return Err(corrupt(
                    i,
                    "cached features present under an alignment-free policy".to_string(),
                ));
            }
            for (k, f) in e.features.iter().enumerate() {
                if f.keypoint.position >= len || f.scope_start > f.scope_end || f.scope_end >= len {
                    return Err(corrupt(
                        i,
                        format!(
                            "cached feature {k} outside its series (pos {}, scope \
                             [{}, {}], len {len})",
                            f.keypoint.position, f.scope_start, f.scope_end
                        ),
                    ));
                }
                if let Some(what) = unusable_feature(f, bins) {
                    return Err(corrupt(i, format!("cached feature {k}: {what}")));
                }
            }
            if let Some(c) = &e.coarse {
                if config.paa_width < 2 {
                    return Err(corrupt(
                        i,
                        "coarse envelope present but the PAA stage is disabled".to_string(),
                    ));
                }
                let segments = len.div_ceil(config.paa_width);
                if c.width() != config.paa_width
                    || c.source_len() != len
                    || c.radius() != expected_radius
                    || c.upper().len() != segments
                    || c.lower().len() != segments
                {
                    return Err(corrupt(
                        i,
                        format!(
                            "coarse envelope inconsistent with series/config \
                             (width {}, source_len {}, radius {}, segments {}/{}; \
                             expected width {}, len {len}, radius {expected_radius}, \
                             segments {segments})",
                            c.width(),
                            c.source_len(),
                            c.radius(),
                            c.upper().len(),
                            c.lower().len(),
                            config.paa_width,
                        ),
                    ));
                }
            }
        }
        if config.paa_width >= 2 {
            for e in &mut entries {
                if e.coarse.is_none() {
                    e.coarse = Some(CoarseEnvelope::build(&e.envelope, config.paa_width));
                }
            }
        }
        Ok(Self {
            config,
            engine,
            entries,
        })
    }
}

/// Why the matcher cannot use a cached feature, if it cannot: its
/// descriptor length differs from the configured `bins`, its σ is not
/// positive and finite, or its scope length, amplitude or a descriptor
/// value is not finite.
fn unusable_feature(f: &SalientFeature, bins: usize) -> Option<String> {
    let sigma = f.keypoint.sigma;
    if f.descriptor.len() != bins {
        Some(format!(
            "descriptor has {} values, the configuration has {bins} bins",
            f.descriptor.len()
        ))
    } else if !(sigma.is_finite() && sigma > 0.0) {
        Some(format!("sigma {sigma} is not positive and finite"))
    } else if !f.scope_len.is_finite() {
        Some(format!("scope_len {} is not finite", f.scope_len))
    } else if !f.amplitude.is_finite() {
        Some(format!("amplitude {} is not finite", f.amplitude))
    } else {
        let (at, x) = f
            .descriptor
            .iter()
            .enumerate()
            .find(|(_, x)| !x.is_finite())?;
        Some(format!("descriptor value {at} is {x}, not finite"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize, phase: f64) -> TimeSeries {
        TimeSeries::new(
            (0..n)
                .map(|i| ((i as f64) / 7.0 + phase).sin() + 0.3 * ((i as f64) / 3.0 + phase).cos())
                .collect(),
        )
        .unwrap()
    }

    fn corpus(n_entries: usize, len: usize) -> Vec<TimeSeries> {
        (0..n_entries)
            .map(|k| series(len, k as f64 * 0.9))
            .collect()
    }

    #[test]
    fn bucketed_order_is_a_permutation_and_roughly_ascending() {
        let scored: Vec<(f64, usize)> = (0..100)
            .map(|i| (((i * 37) % 100) as f64 / 10.0, i))
            .collect();
        let out = bucketed_ascending(scored.clone());
        assert_eq!(out.len(), scored.len());
        let mut seen: Vec<usize> = out.iter().map(|&(_, i)| i).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>(), "a permutation");
        // bucket-granular: each element's bound is within one bucket
        // width of a truly sorted sequence at the same rank
        let mut exact: Vec<f64> = scored.iter().map(|&(b, _)| b).collect();
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let width = (exact[99] - exact[0]) / 64.0;
        for (rank, &(b, _)) in out.iter().enumerate() {
            assert!(
                (b - exact[rank]).abs() <= width + 1e-12,
                "rank {rank}: {b} vs exact {}",
                exact[rank]
            );
        }
    }

    #[test]
    fn bucketed_order_degenerate_inputs() {
        assert_eq!(bucketed_ascending(Vec::new()), Vec::new());
        assert_eq!(bucketed_ascending(vec![(3.0, 7)]), vec![(3.0, 7)]);
        // all-equal bounds keep stable input (index) order
        let flat: Vec<(f64, usize)> = (0..5).map(|i| (2.5, i)).collect();
        assert_eq!(bucketed_ascending(flat.clone()), flat);
    }

    #[test]
    fn bucketed_order_is_deterministic() {
        let scored: Vec<(f64, usize)> = (0..57).map(|i| (((i * 13) % 29) as f64, i)).collect();
        assert_eq!(
            bucketed_ascending(scored.clone()),
            bucketed_ascending(scored)
        );
    }

    #[test]
    fn coarse_screen_covers_every_entry_with_admissible_bounds() {
        let c = corpus(17, 64);
        let index = SdtwIndex::build(&c, IndexConfig::exact_banded(0.2)).unwrap();
        let screen = index.coarse_screen(&c[4]);
        assert!(screen.admissible);
        let mut seen: Vec<usize> = screen.order.iter().map(|e| e.index).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..17).collect::<Vec<_>>());
        // admissibility: every coarse bound is at or below the exact
        // whole-recording distance of its pair
        let all = index.query(&c[4], index.len()).unwrap();
        for eb in &screen.order {
            let d = all
                .neighbors
                .iter()
                .find(|n| n.index == eb.index)
                .unwrap()
                .distance;
            assert!(
                eb.bound <= d + 1e-12,
                "entry {}: bound {} above distance {d}",
                eb.index,
                eb.bound
            );
        }
    }

    #[test]
    fn query_detailed_matches_query_and_accounts_every_entry() {
        let c = corpus(23, 48);
        let index = SdtwIndex::build(&c, IndexConfig::exact_banded(0.15)).unwrap();
        let (detailed, dispositions) = index.query_detailed(&c[7], 3).unwrap();
        let plain = index.query(&c[7], 3).unwrap();
        assert_eq!(detailed, plain, "detailed query is bit-identical");
        assert_eq!(dispositions.len(), index.len(), "one verdict per entry");
        for (i, d) in dispositions.iter().enumerate() {
            assert_eq!(d.index, i, "sorted by entry index");
        }
        // the survivor set contains every reported neighbour, with the
        // same (bit-identical) distance
        for n in &plain.neighbors {
            match dispositions[n.index].outcome {
                EntryOutcome::Completed(d) => {
                    assert_eq!(d.to_bits(), n.distance.to_bits());
                }
                other => panic!("neighbour {} not a survivor: {other:?}", n.index),
            }
        }
        // every pruned entry's lower bound justifies its exclusion from
        // the top-k: coarse bound (Kim prunes) strictly above the k-th
        // distance at the moment of pruning, hence above no reported
        // neighbour is lost
        let kth = plain.neighbors.last().unwrap().distance;
        for d in &dispositions {
            if let EntryOutcome::Pruned(StageKind::Kim) = d.outcome {
                assert!(
                    d.coarse_bound >= kth,
                    "entry {}: Kim prune bound {} below final k-th {kth}",
                    d.index,
                    d.coarse_bound
                );
            }
        }
    }
}
