//! The resident query engine: one immutable snapshot, many concurrent
//! requests, each answered by the two-level cascade.

use crate::protocol::{RequestOp, ServeHit, ServeRequest, ServeResponse};
use parking_lot::Mutex;
use sdtw_dtw::engine::{engine_label, DtwScratch};
use sdtw_index::{SdtwIndex, SnapshotCodec};
use sdtw_obs::{InputShape, QueryTrace, Recorder, TracePhase, WorkloadKind};
use sdtw_stream::{PreparedHaystack, StreamConfig, SubseqMatcher};
use sdtw_tseries::{TimeSeries, TsError};
use std::collections::HashMap;
use std::sync::Arc;

/// How many prepared matchers the per-pattern cache may hold before it
/// is cleared whole (a simple bound; the cache exists to amortise
/// preparation across *repeated* patterns, not to be an LRU).
const MATCHER_CACHE_CAP: usize = 256;

/// Daemon-side configuration of a [`ServeEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Default `k` for requests that leave theirs at `0`.
    pub default_k: usize,
    /// Level-2 sharding: the shard count every surviving entry is
    /// searched with ([`sdtw_stream::Search::shards`]). `1` sweeps the
    /// entry on the worker's own thread (concurrency comes from the
    /// request batch); `0` is one shard per rayon worker. Every sweep
    /// borrows the worker's scratch, traced or not. Results are
    /// bit-identical for every count.
    pub shards: usize,
    /// Record a [`QueryTrace`] for every request (individual requests
    /// can also opt in via [`ServeRequest::trace`]).
    pub trace: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            default_k: 5,
            shards: 1,
            trace: false,
        }
    }
}

/// The resident two-level pattern engine.
///
/// Shared-immutable by design: the snapshot (index + derived stream
/// configuration) never changes after construction, so any number of
/// threads may call [`ServeEngine::answer_with_scratch`] concurrently —
/// the only interior mutability is the prepared-matcher cache behind a
/// `parking_lot::Mutex`. Per-request scratch lives with the caller (one
/// [`DtwScratch`] per worker), so a long-lived worker re-uses its DP
/// buffers across requests.
#[derive(Debug)]
pub struct ServeEngine {
    index: Arc<SdtwIndex>,
    stream_cfg: StreamConfig,
    cfg: ServeConfig,
    /// Prepared matchers keyed by the query's sample bits — repeated
    /// patterns skip envelope/descriptor preparation entirely.
    matchers: Mutex<HashMap<Vec<u64>, Arc<SubseqMatcher>>>,
    /// Total corpus samples (the trace's `y_len`).
    corpus_samples: u64,
}

impl ServeEngine {
    /// Wraps a built (or snapshot-loaded) index as a resident engine.
    /// The level-2 stream configuration is derived from the index
    /// configuration: same engine (policy/kernel/metric), same
    /// z-normalisation convention, same envelope radius fraction, same
    /// PAA segment width.
    ///
    /// # Errors
    ///
    /// Stream-configuration validation (inherited from the index
    /// configuration).
    pub fn new(index: SdtwIndex, cfg: ServeConfig) -> Result<ServeEngine, TsError> {
        let icfg = index.config();
        let stream_cfg = StreamConfig {
            sdtw: icfg.sdtw.clone(),
            z_normalize: icfg.z_normalize,
            lb_radius_frac: icfg.lb_radius_frac,
            paa_width: icfg.paa_width,
            ..StreamConfig::default()
        };
        stream_cfg.validate()?;
        let corpus_samples = index.entries().iter().map(|e| e.series.len() as u64).sum();
        Ok(ServeEngine {
            index: Arc::new(index),
            stream_cfg,
            cfg,
            matchers: Mutex::new(HashMap::new()),
            corpus_samples,
        })
    }

    /// Loads an index snapshot from disk through [`SnapshotCodec`],
    /// which rebuilds the index's derived data from the stored series,
    /// and wraps it as a resident engine.
    ///
    /// # Errors
    ///
    /// Snapshot I/O/decode failures, then as [`ServeEngine::new`].
    pub fn load<P: AsRef<std::path::Path>>(
        path: P,
        cfg: ServeConfig,
    ) -> Result<ServeEngine, TsError> {
        ServeEngine::new(SnapshotCodec::read_file(path)?, cfg)
    }

    /// The shared snapshot.
    pub fn index(&self) -> &SdtwIndex {
        &self.index
    }

    /// The level-2 stream configuration requests are swept under.
    pub fn stream_config(&self) -> &StreamConfig {
        &self.stream_cfg
    }

    /// The daemon configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The prepared matcher for a pattern, from cache when the same
    /// sample bits were served before.
    fn matcher_for(&self, values: &[f64]) -> Result<Arc<SubseqMatcher>, TsError> {
        let key: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        if let Some(m) = self.matchers.lock().get(&key) {
            return Ok(Arc::clone(m));
        }
        let query = TimeSeries::new(values.to_vec())?;
        // on the index's engine: every cached matcher shares its extractor
        let matcher = Arc::new(SubseqMatcher::for_engine(
            self.index.engine(),
            &query,
            self.stream_cfg.clone(),
        )?);
        let mut cache = self.matchers.lock();
        if cache.len() >= MATCHER_CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, Arc::clone(&matcher));
        Ok(matcher)
    }

    /// Answers one request with a caller-owned DP scratch (the worker
    /// hot path; a long-lived worker lends the same scratch to every
    /// request). Never panics on bad input — validation errors come back
    /// as an `ok = false` response.
    pub fn answer_with_scratch(
        &self,
        req: &ServeRequest,
        scratch: &mut DtwScratch,
    ) -> (ServeResponse, Option<QueryTrace>) {
        self.search(req, scratch)
            .unwrap_or_else(|e| (ServeResponse::error(&req.id, e.to_string()), None))
    }

    /// The two-level cascade behind [`ServeEngine::answer_with_scratch`].
    ///
    /// # Errors
    ///
    /// Request validation (`k == 0` after defaulting, NaN/negative
    /// `tau`, invalid pattern samples, samples too large for the metric
    /// against the corpus, a `Shutdown` op) and engine errors (feature
    /// extraction under adaptive policies).
    fn search(
        &self,
        req: &ServeRequest,
        scratch: &mut DtwScratch,
    ) -> Result<(ServeResponse, Option<QueryTrace>), TsError> {
        if req.op != RequestOp::Query {
            return Err(TsError::InvalidParameter {
                name: "op",
                reason: "only Query requests reach the engine (Shutdown is a daemon operation)"
                    .to_string(),
            });
        }
        let k = if req.k == 0 {
            self.cfg.default_k
        } else {
            req.k
        };
        if k == 0 {
            return Err(TsError::InvalidParameter {
                name: "k",
                reason: "pattern search needs k >= 1".to_string(),
            });
        }
        let tau = req.tau.unwrap_or(f64::INFINITY);
        if tau.is_nan() || tau < 0.0 {
            return Err(TsError::InvalidParameter {
                name: "tau",
                reason: format!("distance threshold must be >= 0, got {tau}"),
            });
        }
        let traced = self.cfg.trace || req.trace;
        let t0 = std::time::Instant::now();
        let mut rec = if traced {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        let mut trace = traced.then(|| {
            let mut t = QueryTrace::new(&req.id, WorkloadKind::ServePattern);
            t.shape = InputShape {
                x_len: req.values.len() as u64,
                y_len: self.corpus_samples,
                k: k as u64,
                policy: self.stream_cfg.sdtw.policy.label(),
                kernel: self.stream_cfg.sdtw.dtw.kernel_label(),
                // entry sweeps run without a warp path
                engine: engine_label(false).into(),
            };
            t
        });

        let matcher = self.matcher_for(&req.values)?;
        // every entry's windows at once: no sweep may overflow
        matcher.check_haystack(self.index.max_magnitude())?;
        let query = TimeSeries::new(req.values.to_vec())?;
        // Level 1a: coarse visit order from the index's stage-1 screen
        // (whole-recording bounds — ranking only, never pruning).
        let screen = rec.time(TracePhase::EntryScreen, || self.index.coarse_screen(&query));

        // The candidate pool: per-entry greedy hit lists, every hit at
        // or under the threshold that was current when its entry was
        // swept. `dists` mirrors the pool's distances in sorted order so
        // the running k-th best is O(log n) to maintain.
        let mut hits: Vec<ServeHit> = Vec::new();
        let mut dists: Vec<f64> = Vec::new();
        let (mut entries_pruned, mut entries_swept) = (0u64, 0u64);
        // each entry's window bounds, computed once: the floor reads
        // them, then the entry's sweep screens with them
        let mut haystack = PreparedHaystack::new(&matcher);

        for eb in &screen {
            let series = self.index.entry_series(eb.index);
            // the running threshold: the pool's k-th best distance once
            // k hits exist, capped by the request's tau. It only ever
            // tightens, and the final k-th distance can only be lower —
            // which is what makes pruning against it sound.
            let threshold = if dists.len() >= k {
                dists[k - 1].min(tau)
            } else {
                tau
            };
            // Level 1b: the admissible per-entry floor. Strict
            // comparison — an entry whose floor *ties* the threshold
            // could still win the (distance, entry, offset) tie-break
            // and must be swept. The bound pass is screen time: the
            // sweep's spans cover only what it does itself.
            let floor = rec.time(TracePhase::EntryScreen, || {
                haystack.load(series);
                haystack.floor()
            });
            if floor > threshold {
                entries_pruned += 1;
                if let Some(t) = trace.as_mut() {
                    // fold the level-1 prune into the canonical cascade
                    // counters: one candidate disposed by the Kim-family
                    // floor (entry-granular, vs the window-granular
                    // counters the sweeps contribute — see DESIGN §13)
                    t.counters.cascade.candidates += 1;
                    t.counters.cascade.pruned_kim += 1;
                }
                continue;
            }
            // Level 2: sweep the survivor, seeded with the threshold. The
            // merge keeps only a trace's measurements, so the sweep's
            // trace needs no id of its own.
            let (result, sweep) = rec.time(TracePhase::EntrySweep, || {
                matcher
                    .search(&haystack)
                    .k(k)
                    .tau(threshold)
                    .shards(self.cfg.shards)
                    .scratch(scratch)
                    .trace(traced.then_some(""))
                    .run()
            })?;
            if let (Some(t), Some(sweep)) = (trace.as_mut(), sweep) {
                t.merge(&sweep);
            }
            for m in &result.matches {
                let at = dists.partition_point(|&d| d < m.distance);
                dists.insert(at, m.distance);
                hits.push(ServeHit {
                    entry: eb.index,
                    offset: m.offset,
                    distance: m.distance,
                });
            }
            entries_swept += 1;
        }

        // Global merge: the pool's per-entry lists are each internally
        // non-overlapping and in global-compatible order, so the k best
        // by (distance, entry, offset) are exactly the corpus oracle's
        // greedy picks (DESIGN §13).
        rec.time(TracePhase::TopKMerge, || {
            hits.sort_by(|a, b| {
                a.distance
                    .partial_cmp(&b.distance)
                    .expect("distances are finite")
                    .then(a.entry.cmp(&b.entry))
                    .then(a.offset.cmp(&b.offset))
            });
            hits.truncate(k);
        });

        if let Some(t) = trace.as_mut() {
            t.spans.extend(rec.finish());
            t.wall = t0.elapsed();
        }
        let resp = ServeResponse {
            id: req.id.clone(),
            ok: true,
            error: String::new(),
            hits,
            entries_pruned,
            entries_swept,
        };
        Ok((resp, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdtw_index::IndexConfig;

    fn wave(n: usize, phase: f64) -> TimeSeries {
        TimeSeries::new((0..n).map(|i| (i as f64 / 6.0 + phase).sin()).collect()).unwrap()
    }

    #[test]
    fn level_two_follows_the_index_paa_width() {
        // a seeded random walk, rough enough for the PAA stage to prune
        let mut state = 0x5EED_u64;
        let mut level = 0.0;
        let walk: Vec<f64> = (0..1200)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                level += (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                level
            })
            .collect();
        let corpus: Vec<TimeSeries> = walk
            .chunks(300)
            .map(|c| TimeSeries::new(c.to_vec()).unwrap())
            .collect();
        let engine = |paa_width| {
            let config = IndexConfig {
                z_normalize: true,
                paa_width,
                ..IndexConfig::exact_banded(0.1)
            };
            let index = SdtwIndex::build(&corpus, config).unwrap();
            ServeEngine::new(index, ServeConfig::default()).unwrap()
        };
        let (paa, off) = (engine(sdtw_index::DEFAULT_PAA_WIDTH), engine(0));
        assert_eq!(paa.stream_config().paa_width, sdtw_index::DEFAULT_PAA_WIDTH);
        assert_eq!(off.stream_config().paa_width, 0);
        let mut req = ServeRequest::query("p", walk[410..470].to_vec(), 5);
        req.trace = true;
        let mut scratch = DtwScratch::new();
        let (with, with_trace) = paa.answer_with_scratch(&req, &mut scratch);
        let (without, without_trace) = off.answer_with_scratch(&req, &mut scratch);
        assert!(with.ok && with.hits.len() == 5, "{with:?}");
        assert_eq!(with, without, "PAA only moves prune credit");
        for (a, b) in with.hits.iter().zip(&without.hits) {
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
        assert!(with_trace.unwrap().counters.cascade.pruned_paa > 0);
        assert_eq!(without_trace.unwrap().counters.cascade.pruned_paa, 0);
    }

    #[test]
    fn cached_matchers_share_the_index_extractor_across_a_cache_clear() {
        let corpus = vec![wave(60, 0.0), wave(70, 1.0)];
        let index = SdtwIndex::build(&corpus, IndexConfig::sdtw_bands()).unwrap();
        let engine = ServeEngine::new(index, ServeConfig::default()).unwrap();
        let shared = engine.index().engine().extractor();
        let first = engine.matcher_for(wave(24, 5.0).values()).unwrap();
        // one more distinct pattern than the cache holds clears it once
        for p in 0..=MATCHER_CACHE_CAP {
            let m = engine
                .matcher_for(wave(24, p as f64 * 0.01).values())
                .unwrap();
            assert!(std::ptr::eq(m.engine().extractor(), shared), "pattern {p}");
        }
        assert!(
            engine.matchers.lock().len() < MATCHER_CACHE_CAP,
            "the cache was cleared"
        );
        assert!(std::ptr::eq(first.engine().extractor(), shared));
    }
}
