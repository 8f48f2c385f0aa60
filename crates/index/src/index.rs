//! The corpus index: build and cascade query.

use crate::config::IndexConfig;
use crate::knn::{Neighbor, TopK};
use sdtw::{DtwScratch, PreparedFeatures, SDtw};
use sdtw_dtw::band::Band;
use sdtw_dtw::cascade::{Cascade, CascadeScratch, CoarseEnvelope, PruneStage, SampleInput};
use sdtw_dtw::engine::{dtw_run_options, engine_label, DtwOptions};
use sdtw_dtw::lower_bound::{
    lb_keogh_batch, lb_kim_batch, Envelope, RangeTable, SeriesSummary, LB_LANES,
};
use sdtw_obs::{CascadeStats, InputShape, QueryTrace, Recorder, TracePhase, WorkloadKind};
use sdtw_salient::SalientFeature;
use sdtw_tseries::transform::z_normalize;
use sdtw_tseries::{TimeSeries, TsError};
use serde::{Deserialize, Serialize};

/// One indexed corpus entry: the (possibly z-normalised) series plus every
/// precomputed artefact the cascade consumes — the LB_Kim summary, the
/// LB_Keogh envelope, and the salient descriptors the sDTW band planner
/// reuses across all queries (paper §3.4: extraction is a one-time,
/// indexable cost). Every artefact derives from the stored series and
/// the configuration; snapshots store only those two.
#[derive(Debug, Clone, PartialEq)]
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

/// Answer to one kNN query: neighbours ascending by `(distance, index)`,
/// plus the per-stage pruning accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// The k nearest entries (fewer when the corpus is smaller than k).
    pub neighbors: Vec<Neighbor>,
    /// What each cascade stage disposed of for this query.
    pub stats: CascadeStats,
}

/// One corpus entry's stage-1 screening record: its LB_Kim bound
/// against the query, in the visit order
/// [`SdtwIndex::coarse_screen`] returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryBound {
    /// Corpus entry index.
    pub index: usize,
    /// LB_Kim bound of the (query, entry) pair — an admissible lower
    /// bound on their whole-recording distance.
    pub bound: f64,
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
}

/// Orders scored candidates ascending by bound *approximately*, via one
/// O(n) stable counting pass over equal-width buckets instead of a full
/// `O(n log n)` sort — the visit order only seeds how fast the top-k
/// threshold tightens, so bucket-granular ordering keeps results exact
/// (every candidate is still screened) while taking the recurring
/// per-query sort off the serve hot path. Within a bucket the input
/// (entry-index) order is preserved, so the order is deterministic.
///
/// The buckets span the finite bounds only. A bound that is not finite
/// (finite samples near `f64::MAX` square to `+inf`) goes to one extra
/// bucket after them.
fn bucketed_ascending(scored: Vec<(f64, usize)>) -> Vec<(f64, usize)> {
    if scored.len() <= 1 {
        return scored;
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(b, _) in scored.iter().filter(|(b, _)| b.is_finite()) {
        lo = lo.min(b);
        hi = hi.max(b);
    }
    let span = hi - lo;
    let nb = scored.len().min(64);
    let bucket_of = |b: f64| {
        if !b.is_finite() {
            nb
        } else if span > 0.0 {
            (((b - lo) / span) * nb as f64).min((nb - 1) as f64) as usize
        } else {
            // all finite bounds equal: one bucket keeps the input order
            0
        }
    };
    let mut counts = vec![0usize; nb + 1];
    for &(b, _) in &scored {
        counts[bucket_of(b)] += 1;
    }
    let mut next = vec![0usize; nb + 1];
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
/// salient descriptors the sDTW band planner needs. No per-entry range
/// table is kept: the reversed stage reads the query's. Query time runs the
/// cascade, visiting candidates in ascending LB_Kim order so the top-k
/// heap tightens as early as possible:
///
/// 1. **LB_Kim** — O(1) endpoint/extremum bound (admissible for every
///    feasible band);
/// 2. **LB_Keogh** — query samples against the entry's precomputed
///    envelope (admissible when the pair's sanitised band stays inside
///    the envelope window);
/// 3. **band-exact reversed LB_Keogh** — each entry sample against the
///    query's range over the rows the pair's band lets its column meet,
///    read from a [`RangeTable`] built once per query (admissible for
///    every feasible band and every pair of lengths);
/// 4. **early-abandoned banded DP** — seeded with the current k-th best
///    distance, on the caller's [`DtwScratch`] (a worker answering many
///    queries lends one to each [`SdtwIndex::query_with_scratch`] call).
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
    /// The largest stored sample magnitude and the longest stored
    /// series, which bound the DP cost of every query.
    peak: f64,
    max_len: usize,
}

impl SdtwIndex {
    /// Builds an index over a corpus.
    ///
    /// # Errors
    ///
    /// Configuration validation errors, or corpus samples too large for
    /// the metric.
    pub fn build(corpus: &[TimeSeries], config: IndexConfig) -> Result<Self, TsError> {
        let stored = corpus
            .iter()
            .map(|ts| {
                if config.z_normalize {
                    z_normalize(ts)
                } else {
                    ts.clone()
                }
            })
            .collect();
        Self::from_stored(config, stored)
    }

    /// The build path after normalisation, shared with the snapshot
    /// loader: validates the configuration and the corpus's magnitude
    /// (checked against itself), then derives every entry's artefacts
    /// from its stored series. Never normalises — `stored` is what the
    /// index keeps.
    pub(crate) fn from_stored(
        config: IndexConfig,
        stored: Vec<TimeSeries>,
    ) -> Result<Self, TsError> {
        config.validate()?;
        let summaries: Vec<SeriesSummary> = stored.iter().map(SeriesSummary::of).collect();
        let (peak, max_len) = summaries.iter().fold((0.0, 0), |(p, l): (f64, usize), s| {
            (p.max(s.magnitude()), l.max(s.len))
        });
        config
            .sdtw
            .dtw
            .check_magnitudes(max_len, max_len, peak, peak)?;
        let engine = SDtw::new(config.sdtw.clone())?;
        let needs_features = config.sdtw.policy.needs_alignment();
        let entries = stored
            .into_iter()
            .zip(summaries)
            .map(|(series, summary)| {
                let envelope = Envelope::build(&series, config.radius_for(series.len()));
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
            peak,
            max_len,
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

    /// The largest sample magnitude of the stored series, derived at
    /// build and load: what a caller checks its own samples against
    /// (see [`DtwOptions::check_magnitudes`](sdtw_dtw::DtwOptions::check_magnitudes)).
    pub fn max_magnitude(&self) -> f64 {
        self.peak
    }

    /// The shared pruning pipeline a query of this index runs: LB_Kim →
    /// coarse PAA → LB_Keogh → reversed LB_Keogh. The PAA stage sits
    /// between Kim and Keogh because its `O(len / width)` cost fills the
    /// gap between the O(1) summary bound and the O(len) fine bound —
    /// and since its bound never exceeds LB_Keogh's (with the same
    /// applicability condition), it only shifts pruning *credit*
    /// earlier, never changing the top-k.
    /// When [`IndexConfig::paa_width`] disables it, the stage is omitted
    /// from the list entirely so `lb_inapplicable` accounting matches
    /// the pre-PAA cascade exactly.
    fn cascade(&self) -> Cascade {
        let mut stages = Vec::with_capacity(4);
        stages.push(PruneStage::Kim { guard: 0.0 });
        if self.config.paa_width >= 2 {
            stages.push(PruneStage::Paa);
        }
        stages.push(PruneStage::Keogh);
        stages.push(PruneStage::KeoghRev);
        Cascade::new(stages, self.config.sdtw.dtw.metric)
    }

    /// kNN query with a caller-provided DP scratch (the batch hot path).
    ///
    /// # Errors
    ///
    /// `k == 0`, query samples too large for the metric against the
    /// corpus, or feature extraction failing on the query.
    pub fn query_with_scratch(
        &self,
        query: &TimeSeries,
        k: usize,
        scratch: &mut DtwScratch,
    ) -> Result<QueryResult, TsError> {
        self.query_recorded(
            query,
            k,
            scratch,
            &mut Recorder::disabled(),
            &mut QueryTrace::default(),
        )
    }

    /// kNN query with full telemetry: the result plus a canonical
    /// [`QueryTrace`] with phase spans (extraction, envelope build,
    /// LB_Kim ordering, band planning, batched LB_Keogh, DP fill), the
    /// cascade counters embedded as the trace's counter block, and the
    /// band/grid denominators for pruning-power metrics.
    ///
    /// Results are bit-identical to [`SdtwIndex::query_with_scratch`] —
    /// recording never changes what the cascade sees.
    ///
    /// # Errors
    ///
    /// `k == 0`, query samples too large for the metric against the
    /// corpus, or feature extraction failing on the query.
    pub fn query_traced(
        &self,
        query: &TimeSeries,
        k: usize,
        query_id: &str,
    ) -> Result<(QueryResult, QueryTrace), TsError> {
        let t0 = std::time::Instant::now();
        let mut scratch = DtwScratch::new();
        let mut rec = Recorder::enabled();
        let mut trace = QueryTrace::new(query_id, WorkloadKind::IndexKnn);
        let result = self.query_recorded(query, k, &mut scratch, &mut rec, &mut trace)?;
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
        trace.spans = rec.finish();
        trace.wall = t0.elapsed();
        Ok((result, trace))
    }

    /// The batched stage-1 ordering pass over a *prepared* (normalised)
    /// query: every entry's LB_Kim bound, in bucketed ascending visit
    /// order.
    fn coarse_order(&self, q_summary: &SeriesSummary) -> Vec<(f64, usize)> {
        let metric = self.config.sdtw.dtw.metric;
        let summaries: Vec<SeriesSummary> = self.entries.iter().map(|e| e.summary).collect();
        let mut kim = Vec::with_capacity(summaries.len());
        lb_kim_batch(q_summary, &summaries, metric, &mut kim);
        bucketed_ascending(kim.into_iter().zip(0..).collect())
    }

    /// Runs only the stage-1 coarse screen: every entry exactly once
    /// with its LB_Kim bound against `query`, in the same bucketed
    /// ascending visit order a kNN query would use (stable by index
    /// within a bucket). O(corpus) with no DP work — the level-1
    /// ranking seam of the serve daemon's two-level pattern cascade.
    ///
    /// The bounds speak about *whole-recording* distances — a consumer
    /// localising subsequences inside entries must treat them as
    /// ranking hints only and prune with its own window-level bounds
    /// (see DESIGN.md §13).
    pub fn coarse_screen(&self, query: &TimeSeries) -> Vec<EntryBound> {
        let q = if self.config.z_normalize {
            z_normalize(query)
        } else {
            query.clone()
        };
        self.coarse_order(&SeriesSummary::of(&q))
            .into_iter()
            .map(|(bound, index)| EntryBound { index, bound })
            .collect()
    }

    /// The query body both entry points run, with a disabled recorder
    /// on the untraced one. Sums into `trace` the band area, the
    /// unconstrained grid area and the descriptor comparisons of the
    /// candidates it plans and fills; the caller fills in the rest.
    fn query_recorded(
        &self,
        query: &TimeSeries,
        k: usize,
        scratch: &mut DtwScratch,
        rec: &mut Recorder,
        trace: &mut QueryTrace,
    ) -> Result<QueryResult, TsError> {
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
        let q_summary = SeriesSummary::of(&q);
        self.config.sdtw.dtw.check_magnitudes(
            q.len(),
            self.max_len,
            q_summary.magnitude(),
            self.peak,
        )?;
        // the query is the fixed side of every candidate's band plan:
        // extract and prepare it once
        let fq = if self.config.sdtw.policy.needs_alignment() {
            rec.time(TracePhase::Extraction, || {
                PreparedFeatures::new(&self.engine.extractor().extract(&q))
            })
        } else {
            PreparedFeatures::default()
        };
        // the query's range table feeds the band-exact reversed LB_Keogh
        // stage
        let q_ranges = rec.time(TracePhase::EnvelopeBuild, || RangeTable::build(q.values()));
        let cascade = self.cascade();
        let mut cascade_scratch = CascadeScratch::new();
        let mut lb_out = Vec::with_capacity(LB_LANES);

        // Stage 1 for everyone up front — batched eight summaries per
        // lane pass (bit-identical to the scalar `lb_kim`): O(1) per
        // entry, and the visit order it induces (bucketed ascending
        // bound, stable by index) tightens the top-k threshold as early
        // as possible without paying a full per-query sort.
        let order = rec.time(TracePhase::LbKim, || self.coarse_order(&q_summary));

        let mut topk = TopK::new(k, self.entries.len());
        let mut stats = CascadeStats::default();
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
            if cascade
                .screen_summary(&mut stats, Some(kim), threshold)
                .is_some()
            {
                continue;
            }
            let (n, m) = (q.len(), entry.series.len());
            let (band, matched) = rec.time(TracePhase::BandPlan, || {
                self.engine.plan_band_prepared(&fq, &entry.features, n, m)
            });
            trace.descriptor_comparisons += matched.map_or(0, |r| r.descriptor_comparisons as u64);
            // LB admissibility is judged on the cells the DP fills; the
            // DP would sanitise an infeasible band into a wider one, but
            // every policy's builder already returns it sanitised
            debug_assert!(band.is_feasible(), "planned bands are sanitised");
            let reach = band.reach();
            pending.push(PendingCandidate { idx, band, reach });
            if pending.len() == LB_LANES {
                self.flush_pending(
                    &mut pending,
                    &mut lb_out,
                    &q,
                    &q_ranges,
                    &cascade,
                    &mut cascade_scratch,
                    &mut topk,
                    &mut stats,
                    scratch,
                    rec,
                    trace,
                );
            }
        }
        self.flush_pending(
            &mut pending,
            &mut lb_out,
            &q,
            &q_ranges,
            &cascade,
            &mut cascade_scratch,
            &mut topk,
            &mut stats,
            scratch,
            rec,
            trace,
        );
        debug_assert!(stats.is_consistent(), "every candidate accounted once");
        let neighbors = rec.time(TracePhase::TopKMerge, || topk.into_sorted());
        Ok(QueryResult { neighbors, stats })
    }

    /// Drains the deferred candidate queue: one batched forward LB_Keogh
    /// pass over the lanes whose stage applies (same predicate the
    /// cascade uses — equal lengths and the band inside the envelope
    /// window), then each candidate is decided strictly in FIFO (= serial
    /// visit) order against a *fresh* top-k threshold. The cascade
    /// re-derives applicability itself and falls back to the scalar
    /// bound when no precomputed value is present, so the predicate here
    /// is a performance filter, not a correctness gate. `lb_out` receives
    /// the batched bounds; kept across flushes, it allocates once a
    /// query. The band and grid areas of the candidates that reach the
    /// DP are summed into `trace`: the pruning-power denominators.
    #[allow(clippy::too_many_arguments)]
    fn flush_pending(
        &self,
        pending: &mut Vec<PendingCandidate>,
        lb_out: &mut Vec<f64>,
        q: &TimeSeries,
        q_ranges: &RangeTable,
        cascade: &Cascade,
        cascade_scratch: &mut CascadeScratch,
        topk: &mut TopK,
        stats: &mut CascadeStats,
        scratch: &mut DtwScratch,
        rec: &mut Recorder,
        trace: &mut QueryTrace,
    ) {
        if pending.is_empty() {
            return;
        }
        debug_assert!(pending.len() <= LB_LANES, "queue flushes at the lane width");
        let metric = self.config.sdtw.dtw.metric;
        let opts = DtwOptions {
            compute_path: false,
            ..self.config.sdtw.dtw
        };
        let mut pre: [Option<f64>; LB_LANES] = [None; LB_LANES];
        rec.time(TracePhase::LbKeogh, || {
            // slots past `applicable` hold a placeholder nobody reads
            let mut lanes = [0usize; LB_LANES];
            let mut envs: [&Envelope; LB_LANES] =
                [&self.entries[pending[0].idx].envelope; LB_LANES];
            let mut applicable = 0;
            for (p, cand) in pending.iter().enumerate() {
                let entry = &self.entries[cand.idx];
                if q.len() == entry.series.len() && cand.reach <= entry.envelope.radius {
                    lanes[applicable] = p;
                    envs[applicable] = &entry.envelope;
                    applicable += 1;
                }
            }
            lb_keogh_batch(q.values(), &envs[..applicable], metric, lb_out);
            for (&p, &raw) in lanes.iter().zip(lb_out.iter()) {
                pre[p] = Some(raw);
            }
        });
        for (p, cand) in pending.drain(..).enumerate() {
            let entry = &self.entries[cand.idx];
            let threshold = topk.threshold();
            let input = SampleInput {
                x: q.values(),
                y: entry.series.values(),
                y_envelope: Some(&entry.envelope),
                y_keogh_raw: pre[p],
                x_ranges: Some(q_ranges),
                band: Some(&cand.band),
                y_coarse: entry.coarse.as_ref(),
            };
            // the sample-phase screen covers LB_Keogh and its reversed
            // second chance; both are attributed to the LbKeogh span
            if rec
                .time(TracePhase::LbKeogh, || {
                    cascade.screen_samples(stats, &input, cand.reach, threshold, cascade_scratch)
                })
                .is_some()
            {
                continue;
            }
            trace.band_area += cand.band.area() as u64;
            trace.full_grid += (q.len() * entry.series.len()) as u64;
            match rec.time(TracePhase::DpFill, || {
                dtw_run_options(
                    q.values(),
                    entry.series.values(),
                    &cand.band,
                    &opts,
                    Some(threshold),
                    scratch,
                )
            }) {
                None => stats.record_abandoned(cand.band.area()),
                Some(r) => {
                    stats.record_completed(r.cells_filled);
                    topk.offer(cand.idx, r.distance);
                }
            }
        }
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
    fn infinite_bounds_are_ordered_last() {
        // squared LB_Kim terms of samples near f64::MAX are +inf
        let scored: Vec<(f64, usize)> = [3.0, f64::INFINITY, 1.0, 2.0, f64::INFINITY, 0.5]
            .into_iter()
            .zip(0..)
            .collect();
        let order: Vec<usize> = bucketed_ascending(scored).iter().map(|&(_, i)| i).collect();
        assert_eq!(order, vec![5, 2, 3, 0, 1, 4]);
        let all_inf = vec![(f64::INFINITY, 0), (f64::INFINITY, 1)];
        assert_eq!(bucketed_ascending(all_inf.clone()), all_inf);
        let one_finite = vec![(f64::INFINITY, 0), (7.0, 1), (7.0, 2)];
        let order: Vec<usize> = bucketed_ascending(one_finite)
            .iter()
            .map(|&(_, i)| i)
            .collect();
        assert_eq!(order, vec![1, 2, 0]);
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
        let mut seen: Vec<usize> = screen.iter().map(|e| e.index).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..17).collect::<Vec<_>>());
        // admissibility: every coarse bound is at or below the exact
        // whole-recording distance of its pair
        let all = index
            .query_with_scratch(&c[4], index.len(), &mut DtwScratch::new())
            .unwrap();
        for eb in &screen {
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
}
