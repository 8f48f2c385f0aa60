//! Streaming mode: samples pushed one at a time into a ring buffer.
//!
//! The per-stream machinery is split so multi-query monitoring pays it
//! once: a `StreamIngest` owns everything that depends only on the
//! *stream* (the ring buffer, the incremental [`WindowedStats`] moments
//! and the [`RollingExtrema`] deques), a `QueryRuntime` owns everything
//! per *query* (the prepared matcher, the DP/cascade scratch, retained
//! candidates, stats). A [`StreamMonitor`] is one ingest feeding one
//! runtime; a [`crate::MonitorBank`] is one ingest fanning every
//! completed window across N runtimes.

use crate::matcher::{EvalScratch, SubseqMatch, SubseqMatcher, WindowVerdict};
use crate::rolling::RollingExtrema;
use crate::stats::StreamStats;
use sdtw_obs::{QueryTrace, Recorder, WorkloadKind};
use sdtw_tseries::stats::WindowedStats;
use sdtw_tseries::TsError;

/// The per-stream half of a monitor: the query-length ring buffer and
/// the O(1) incremental window statistics, paid once per stream no
/// matter how many queries watch it.
#[derive(Debug, Clone)]
pub(crate) struct StreamIngest {
    moments: WindowedStats,
    extrema: RollingExtrema,
    raw_buf: Vec<f64>,
}

impl StreamIngest {
    /// Creates an ingest over windows of `m` samples.
    pub(crate) fn new(m: usize) -> Self {
        Self {
            moments: WindowedStats::new(m),
            extrema: RollingExtrema::new(m),
            raw_buf: Vec::with_capacity(m),
        }
    }

    /// Pushes one sample. Returns the completed window's offset once at
    /// least one full window is buffered (the window itself is readable
    /// via [`StreamIngest::raw_window`]).
    ///
    /// # Errors
    ///
    /// A non-finite sample, rejected before touching any stream state —
    /// a NaN admitted here would silently poison the rolling statistics
    /// and every window containing it.
    pub(crate) fn push(&mut self, v: f64) -> Result<Option<usize>, TsError> {
        if !v.is_finite() {
            return Err(TsError::NonFinite {
                index: self.moments.pushed() as usize,
                value: v,
            });
        }
        self.moments.push(v);
        self.extrema.push(v);
        if !self.moments.is_full() {
            return Ok(None);
        }
        let offset = (self.moments.pushed() - self.moments.capacity() as u64) as usize;
        self.moments.copy_window_into(&mut self.raw_buf);
        Ok(Some(offset))
    }

    /// Samples pushed so far (the stream position).
    pub(crate) fn position(&self) -> u64 {
        self.moments.pushed()
    }

    /// The latest completed window, oldest sample first. Valid only
    /// after [`StreamIngest::push`] returned an offset.
    pub(crate) fn raw_window(&self) -> &[f64] {
        &self.raw_buf
    }

    /// The sliding moments (for the rolling LB_Kim).
    pub(crate) fn moments(&self) -> &WindowedStats {
        &self.moments
    }

    /// The sliding extrema (for the rolling LB_Kim).
    pub(crate) fn extrema(&self) -> &RollingExtrema {
        &self.extrema
    }

    /// Forgets all stream state (capacity retained).
    pub(crate) fn clear(&mut self) {
        self.moments.clear();
        self.extrema.clear();
        self.raw_buf.clear();
    }
}

/// The per-query half of a monitor: the prepared matcher plus every
/// buffer and counter one query mutates as windows arrive. Fed completed
/// windows by a [`StreamIngest`] (its own in a [`StreamMonitor`], a
/// shared one in a [`crate::MonitorBank`]).
#[derive(Debug, Clone)]
pub(crate) struct QueryRuntime {
    matcher: SubseqMatcher,
    k: usize,
    tau: f64,
    eval: EvalScratch,
    /// Completed windows with distance ≤ the acceptance threshold.
    candidates: Vec<SubseqMatch>,
    stats: StreamStats,
    /// Phase spans — disabled (≈free) until tracing is switched on.
    rec: Recorder,
    /// (band area, full grid area) summed over DP-entering windows.
    areas: (u64, u64),
}

impl QueryRuntime {
    /// Validates and wraps one query's monitoring state.
    pub(crate) fn new(matcher: SubseqMatcher, k: usize, tau: f64) -> Result<Self, TsError> {
        if k == 0 {
            return Err(TsError::InvalidParameter {
                name: "k",
                reason: "stream monitoring needs k >= 1".to_string(),
            });
        }
        if tau.is_nan() || tau < 0.0 {
            return Err(TsError::InvalidParameter {
                name: "tau",
                reason: format!("distance threshold must be >= 0, got {tau}"),
            });
        }
        Ok(Self {
            matcher,
            k,
            tau,
            eval: EvalScratch::default(),
            candidates: Vec::new(),
            stats: StreamStats {
                passes: 1,
                ..StreamStats::default()
            },
            rec: Recorder::disabled(),
            areas: (0, 0),
        })
    }

    /// The wrapped matcher.
    pub(crate) fn matcher(&self) -> &SubseqMatcher {
        &self.matcher
    }

    /// Switches span recording on or off. Turning it off discards any
    /// spans recorded so far; counters are unaffected either way.
    pub(crate) fn set_tracing(&mut self, on: bool) {
        self.rec = if on {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
    }

    /// This query's telemetry so far as one canonical [`QueryTrace`]:
    /// the counter block is a snapshot (counters keep accumulating), the
    /// spans drain — a later call carries only spans recorded since this
    /// one. `wall` stays zero: a live stream has no meaningful
    /// per-query wall clock.
    pub(crate) fn trace(&mut self, query_id: &str, stream_len: u64) -> QueryTrace {
        let mut trace = QueryTrace::new(query_id, WorkloadKind::MonitorBatch);
        trace.shape = self.matcher.trace_shape(stream_len, self.k as u64);
        trace.counters = self.stats;
        trace.band_area = self.areas.0;
        trace.full_grid = self.areas.1;
        trace.spans = self.rec.take_spans();
        trace
    }

    /// Runs this query's cascade on the window the ingest just
    /// completed. Returns the window's match when its DP completed at or
    /// under the acceptance threshold (a *candidate* — it may later be
    /// displaced by a better overlapping one).
    pub(crate) fn on_window(
        &mut self,
        ingest: &StreamIngest,
        offset: usize,
    ) -> Result<Option<SubseqMatch>, TsError> {
        self.stats.windows += 1;
        // Sound pruning threshold: best-so-far for k = 1, tau otherwise.
        let threshold = if self.k == 1 {
            self.candidates.first().map_or(self.tau, |b| b.distance)
        } else {
            self.tau
        };
        let moments = ingest.moments();
        let kim = self.matcher.kim_bound(
            moments.front(),
            moments.back(),
            ingest.extrema().min(),
            ingest.extrema().max(),
            moments.moments(),
        );
        let verdict = self.matcher.evaluate_window(
            ingest.raw_window(),
            kim,
            threshold,
            &mut self.eval,
            &mut self.stats.cascade,
            &mut self.rec,
            &mut self.areas,
        )?;
        if let WindowVerdict::Completed(distance) = verdict {
            if distance <= threshold {
                let m = SubseqMatch { offset, distance };
                if self.k == 1 {
                    // only the running best is ever needed; windows
                    // arrive in offset order, so a strict improvement is
                    // exactly the greedy (distance, offset) order
                    if self
                        .candidates
                        .first()
                        .is_none_or(|b| distance < b.distance)
                    {
                        self.candidates.clear();
                        self.candidates.push(m);
                        return Ok(Some(m));
                    }
                    return Ok(None);
                }
                self.candidates.push(m);
                return Ok(Some(m));
            }
        }
        Ok(None)
    }

    /// The current best non-overlapping matches, ascending by
    /// `(distance, offset)`.
    pub(crate) fn matches(&self) -> Vec<SubseqMatch> {
        self.matcher.select_greedy(&self.candidates, self.k)
    }

    /// Candidates retained so far.
    pub(crate) fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Accounting so far.
    pub(crate) fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Forgets everything seen (query preparation retained; tracing
    /// stays in its current on/off state, recorded spans are dropped).
    pub(crate) fn reset(&mut self) {
        self.candidates.clear();
        self.stats = StreamStats {
            passes: 1,
            ..StreamStats::default()
        };
        self.areas = (0, 0);
        let on = self.rec.is_enabled();
        self.set_tracing(on);
    }
}

/// Online subsequence monitor: push samples as they arrive, read the
/// best non-overlapping matches seen so far at any point.
///
/// Memory is O(query length + retained candidates): the ring buffer
/// ([`WindowedStats`]) holds exactly one window of history, the rolling
/// extrema hold at most one window of deque entries, and only windows
/// whose DP completed under the acceptance threshold are retained as
/// candidates — for `k == 1` that is just the single running best, for
/// `k > 1` every window at or under `tau` (choose a `tau` tight enough
/// that qualifying windows are genuinely interesting; each is one
/// `(offset, distance)` pair). Every push costs O(1) amortised for the
/// statistics plus the cascade work of at most one window.
///
/// ## Exactness contract
///
/// The monitor reports exactly what a [`SubseqMatcher::search`] with the
/// same `k` and `tau` would report on the concatenation of everything
/// pushed, in two regimes:
///
/// * **`k == 1`** (any `tau`, including ∞): classic UCR best-match
///   tracking — the cascade prunes against the best distance so far,
///   which is sound for a single match;
/// * **`k > 1` with a finite `tau`**: the cascade prunes against `tau`
///   alone, every window at or under `tau` is scored exactly, and
///   [`StreamMonitor::matches`] greedily selects among them — identical
///   to the batch greedy selection restricted to `tau`.
///
/// For `k > 1` with `tau = ∞` no sound streaming threshold exists (a
/// later window may displace *two* provisional matches at once, reviving
/// windows a tighter threshold would have pruned — see DESIGN.md §9), so
/// the monitor simply never prunes in that regime: still exact, just
/// paying the DP for most windows. Give monitors a finite `tau`.
#[derive(Debug, Clone)]
pub struct StreamMonitor {
    ingest: StreamIngest,
    runtime: QueryRuntime,
}

impl StreamMonitor {
    /// Starts monitoring for the matcher's query.
    ///
    /// # Errors
    ///
    /// `k == 0` or a negative/NaN `tau`.
    pub fn new(matcher: SubseqMatcher, k: usize, tau: f64) -> Result<Self, TsError> {
        let m = matcher.query_len();
        Ok(Self {
            ingest: StreamIngest::new(m),
            runtime: QueryRuntime::new(matcher, k, tau)?,
        })
    }

    /// The wrapped matcher.
    pub fn matcher(&self) -> &SubseqMatcher {
        self.runtime.matcher()
    }

    /// Samples pushed so far (the stream position; the window completed
    /// by the latest push starts at `position() - query_len`).
    pub fn position(&self) -> u64 {
        self.ingest.position()
    }

    /// Pushes one sample; once at least one full window is buffered the
    /// cascade runs on the window this sample completes. Returns the
    /// window's match when its DP completed at or under the acceptance
    /// threshold (a *candidate* — it may later be displaced by a better
    /// overlapping one; read [`StreamMonitor::matches`] for the current
    /// selection).
    ///
    /// # Errors
    ///
    /// A non-finite sample (rejected before touching any stream state —
    /// the batch path inherits finiteness from
    /// [`TimeSeries`](sdtw_tseries::TimeSeries) validation, and a NaN
    /// admitted here would silently poison the rolling statistics and
    /// every window containing it), or feature-extraction failures
    /// (adaptive policies only).
    pub fn push(&mut self, v: f64) -> Result<Option<SubseqMatch>, TsError> {
        match self.ingest.push(v)? {
            None => Ok(None),
            Some(offset) => self.runtime.on_window(&self.ingest, offset),
        }
    }

    /// Pushes a batch of samples (convenience wrapper over
    /// [`StreamMonitor::push`]), returning the candidates it produced.
    ///
    /// # Errors
    ///
    /// The first per-push error.
    pub fn process(&mut self, samples: &[f64]) -> Result<Vec<SubseqMatch>, TsError> {
        let mut out = Vec::new();
        for &v in samples {
            if let Some(m) = self.push(v)? {
                out.push(m);
            }
        }
        Ok(out)
    }

    /// The current best non-overlapping matches, ascending by
    /// `(distance, offset)` — the greedy selection over every candidate
    /// scored so far.
    pub fn matches(&self) -> Vec<SubseqMatch> {
        self.runtime.matches()
    }

    /// Candidates retained so far (diagnostics; superset of
    /// [`StreamMonitor::matches`]).
    pub fn candidate_count(&self) -> usize {
        self.runtime.candidate_count()
    }

    /// Accounting so far.
    pub fn stats(&self) -> &StreamStats {
        self.runtime.stats()
    }

    /// Switches span recording on or off (off by default — a disabled
    /// recorder costs one branch per phase). Turning it off discards any
    /// spans recorded so far; counters are unaffected either way.
    pub fn set_tracing(&mut self, on: bool) {
        self.runtime.set_tracing(on);
    }

    /// The monitor's telemetry so far as one canonical
    /// [`QueryTrace`] (`workload = monitor-batch`): counters are a
    /// snapshot (they keep accumulating), spans drain — a later call
    /// carries only spans recorded since this one (and none at all
    /// unless [`StreamMonitor::set_tracing`] switched recording on).
    pub fn trace(&mut self, query_id: &str) -> QueryTrace {
        let pos = self.ingest.position();
        self.runtime.trace(query_id, pos)
    }

    /// Forgets all stream state (query preparation is retained).
    pub fn reset(&mut self) {
        self.ingest.clear();
        self.runtime.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StreamConfig;
    use sdtw_tseries::TimeSeries;

    fn ts(v: Vec<f64>) -> TimeSeries {
        TimeSeries::new(v).unwrap()
    }

    fn planted() -> (TimeSeries, TimeSeries) {
        let query = ts((0..40)
            .map(|i| {
                let t = i as f64 / 39.0;
                (-((t - 0.5) / 0.15).powi(2)).exp()
            })
            .collect());
        let mut hay = vec![0.0; 320];
        for (start, gain) in [(50usize, 1.0), (180, 2.0)] {
            for i in 0..40 {
                hay[start + i] += gain * query.at(i);
            }
        }
        for (i, v) in hay.iter_mut().enumerate() {
            *v += 0.02 * (i as f64 / 7.0).cos();
        }
        (query, ts(hay))
    }

    #[test]
    fn monitor_top1_equals_batch_top1() {
        let (query, hay) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        let batch = matcher.search(&hay).k(1).run().unwrap().0;
        let mut monitor = StreamMonitor::new(matcher, 1, f64::INFINITY).unwrap();
        monitor.process(hay.values()).unwrap();
        let live = monitor.matches();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].offset, batch.matches[0].offset);
        assert_eq!(
            live[0].distance.to_bits(),
            batch.matches[0].distance.to_bits()
        );
        assert_eq!(
            monitor.stats().windows,
            batch.stats.windows,
            "both saw every window"
        );
    }

    #[test]
    fn monitor_topk_under_tau_equals_batch() {
        let (query, hay) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        // a tau loose enough to admit both plantings
        let probe = matcher.search(&hay).k(2).run().unwrap().0;
        let tau = probe.matches.last().unwrap().distance * 1.5;
        let batch = matcher.search(&hay).k(3).tau(tau).run().unwrap().0;
        let mut monitor = StreamMonitor::new(matcher, 3, tau).unwrap();
        monitor.process(hay.values()).unwrap();
        let live = monitor.matches();
        assert_eq!(live.len(), batch.matches.len());
        for (a, b) in live.iter().zip(&batch.matches) {
            assert_eq!(a.offset, b.offset);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
    }

    #[test]
    fn push_reports_candidates_and_reset_forgets_them() {
        let (query, hay) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        let mut monitor = StreamMonitor::new(matcher, 1, f64::INFINITY).unwrap();
        let events = monitor.process(hay.values()).unwrap();
        assert!(!events.is_empty(), "at least the first window is reported");
        assert!(monitor.candidate_count() >= monitor.matches().len());
        assert!(monitor.stats().is_consistent());
        let pos = monitor.position();
        assert_eq!(pos, hay.len() as u64);
        monitor.reset();
        assert_eq!(monitor.position(), 0);
        assert!(monitor.matches().is_empty());
    }

    #[test]
    fn no_window_no_match() {
        let (query, _) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        let mut monitor = StreamMonitor::new(matcher, 1, f64::INFINITY).unwrap();
        for i in 0..10 {
            assert_eq!(monitor.push(i as f64).unwrap(), None);
        }
        assert!(monitor.matches().is_empty());
        assert_eq!(monitor.stats().windows, 0);
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let (query, _) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        assert!(StreamMonitor::new(matcher.clone(), 0, 1.0).is_err());
        assert!(StreamMonitor::new(matcher.clone(), 1, -2.0).is_err());
        assert!(StreamMonitor::new(matcher, 1, f64::NAN).is_err());
    }

    #[test]
    fn non_finite_samples_are_rejected_without_corrupting_state() {
        let (query, hay) = planted();
        let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
        let batch = matcher.search(&hay).k(1).run().unwrap().0;
        let mut monitor = StreamMonitor::new(matcher, 1, f64::INFINITY).unwrap();
        let mid = hay.len() / 2;
        monitor.process(&hay.values()[..mid]).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = monitor.push(bad).unwrap_err();
            assert!(matches!(err, sdtw_tseries::TsError::NonFinite { .. }));
        }
        // the rejected samples left no trace: finishing the clean stream
        // still reproduces the batch result exactly
        assert_eq!(monitor.position(), mid as u64);
        monitor.process(&hay.values()[mid..]).unwrap();
        let live = monitor.matches();
        assert_eq!(live[0].offset, batch.matches[0].offset);
        assert_eq!(
            live[0].distance.to_bits(),
            batch.matches[0].distance.to_bits()
        );
    }
}
