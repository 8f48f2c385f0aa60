//! Streaming mode: samples pushed one at a time into one query-length
//! ring buffer, each completed window run through the cascade of every
//! query watching the stream.

use crate::matcher::{EvalScratch, SubseqMatch, SubseqMatcher, WindowVerdict};
use crate::rolling::RollingExtrema;
use sdtw_obs::{QueryTrace, Recorder, StreamStats, WorkloadKind};
use sdtw_tseries::stats::WindowedStats;
use sdtw_tseries::TsError;

/// A match event reported by [`MonitorBank::push`]: which query fired
/// and what it saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankEvent {
    /// Index of the query (the position of its matcher among those
    /// passed to [`MonitorBank::new`]).
    pub query: usize,
    /// The candidate the query's window completed at or under the
    /// acceptance threshold.
    pub matched: SubseqMatch,
}

/// Online subsequence monitor over one stream, for one query or many:
/// push samples as they arrive, read each query's best non-overlapping
/// matches seen so far at any point.
///
/// The stream's state — a ring buffer of one window ([`WindowedStats`],
/// which also keeps the O(1) incremental window moments) and the rolling
/// extrema ([`RollingExtrema`]) — is paid once however many queries
/// watch it. Each completed window then runs through every query's
/// cascade; a query keeps its own matcher, scratch, candidates and
/// stats, so its results do not depend on the other queries: a bank of
/// N queries reports, query by query and bit for bit, what N banks of
/// one report. Every query shares the bank's `k` and `tau` and one
/// prepared length, since the buffer holds exactly one window (monitor
/// mixed lengths with one bank per length). Raw and z-normalised queries
/// may share a bank: the buffer and statistics are raw, and each query
/// normalises its own windows.
///
/// Memory is O(queries × query length + retained candidates): only
/// windows whose DP completed under the acceptance threshold are
/// retained — for `k == 1` just the running best, for `k > 1` every
/// window at or under `tau` (each one `(offset, distance)` pair). Every
/// push costs O(1) amortised for the statistics plus the cascade work of
/// one window per query.
///
/// ## Exactness contract
///
/// Each query reports exactly what [`SubseqMatcher::search`] with the
/// same `k` and `tau` reports on the concatenation of everything pushed,
/// in two regimes:
///
/// * **`k == 1`** (any `tau`, including ∞): classic UCR best-match
///   tracking — the cascade prunes against the best distance so far,
///   which is sound for a single match;
/// * **`k > 1` with a finite `tau`**: the cascade prunes against `tau`
///   alone, every window at or under `tau` is scored exactly, and
///   [`MonitorBank::matches`] greedily selects among them — identical
///   to the batch greedy selection restricted to `tau`.
///
/// For `k > 1` with `tau = ∞` no sound streaming threshold exists (a
/// later window may displace *two* provisional matches at once, reviving
/// windows a tighter threshold would have pruned — see DESIGN.md §9), so
/// the bank never prunes in that regime: still exact, but it pays the DP
/// for almost every window. Give multi-match monitors a finite `tau`.
#[derive(Debug, Clone)]
pub struct MonitorBank {
    k: usize,
    tau: f64,
    /// The largest sample magnitude pushed since the last reset: every
    /// query's check accepted it, so a sample no larger needs no check.
    peak: f64,
    moments: WindowedStats,
    extrema: RollingExtrema,
    /// The latest completed window, oldest sample first.
    window: Vec<f64>,
    slots: Vec<Slot>,
}

/// One query's monitoring state: its prepared matcher plus every buffer
/// and counter it mutates as windows arrive.
#[derive(Debug, Clone)]
struct Slot {
    matcher: SubseqMatcher,
    eval: EvalScratch,
    /// Completed windows with distance ≤ the acceptance threshold.
    candidates: Vec<SubseqMatch>,
    stats: StreamStats,
    /// Phase spans — disabled (≈free) until tracing is switched on.
    rec: Recorder,
    /// (band area, full grid area) summed over DP-entering windows.
    areas: (u64, u64),
    /// Descriptor comparisons summed over the windows' band plans.
    comparisons: u64,
}

impl Slot {
    fn new(matcher: SubseqMatcher) -> Self {
        let mut slot = Self {
            matcher,
            eval: EvalScratch::default(),
            candidates: Vec::new(),
            stats: StreamStats::default(),
            rec: Recorder::disabled(),
            areas: (0, 0),
            comparisons: 0,
        };
        slot.reset();
        slot
    }

    /// Forgets everything seen: tracing stays on or off, and a fresh
    /// recorder times later spans from the reset.
    fn reset(&mut self) {
        self.candidates.clear();
        // each query is one endless pass
        self.stats = StreamStats {
            passes: 1,
            ..StreamStats::default()
        };
        self.rec = if self.rec.is_enabled() {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        self.areas = (0, 0);
        self.comparisons = 0;
    }

    /// Runs this query's cascade on the window the bank just completed.
    /// Returns the window's match when its DP completed at or under the
    /// acceptance threshold (a *candidate* — a better overlapping window
    /// may displace it later).
    fn on_window(
        &mut self,
        k: usize,
        tau: f64,
        moments: &WindowedStats,
        extrema: &RollingExtrema,
        window: &[f64],
    ) -> Result<Option<SubseqMatch>, TsError> {
        self.stats.windows += 1;
        // the sound pruning threshold: the best so far for k = 1, tau
        // otherwise
        let best = self
            .candidates
            .first()
            .filter(|_| k == 1)
            .map(|b| b.distance);
        let threshold = best.unwrap_or(tau);
        let kim = self.matcher.kim_bound(
            moments.front(),
            moments.back(),
            extrema.min(),
            extrema.max(),
            moments.moments(),
        );
        let verdict = self.matcher.evaluate_window(
            window,
            kim,
            threshold,
            &mut self.eval,
            &mut self.stats.cascade,
            &mut self.rec,
            &mut self.areas,
            &mut self.comparisons,
        )?;
        let WindowVerdict::Completed(distance) = verdict else {
            return Ok(None);
        };
        if distance > threshold || best.is_some_and(|b| distance >= b) {
            return Ok(None);
        }
        if k == 1 {
            // only the running best is ever needed; windows arrive in
            // offset order, so a strict improvement is exactly the greedy
            // (distance, offset) order
            self.candidates.clear();
        }
        let offset = (moments.pushed() - moments.capacity() as u64) as usize;
        let matched = SubseqMatch { offset, distance };
        self.candidates.push(matched);
        Ok(Some(matched))
    }
}

impl MonitorBank {
    /// Starts monitoring one stream for every matcher's query, each
    /// keeping up to `k` non-overlapping matches at or under `tau`
    /// (`f64::INFINITY`: no threshold).
    ///
    /// # Errors
    ///
    /// `k == 0`, a negative/NaN `tau`, no matchers, matchers of
    /// different prepared lengths, or a raw query whose own samples are
    /// too large for the metric (see [`SubseqMatcher::check_haystack`]).
    pub fn new(
        matchers: impl IntoIterator<Item = SubseqMatcher>,
        k: usize,
        tau: f64,
    ) -> Result<Self, TsError> {
        SubseqMatcher::check_search(k, tau)?;
        let slots: Vec<Slot> = matchers.into_iter().map(Slot::new).collect();
        let Some(m) = slots.first().map(|s| s.matcher.query_len()) else {
            return Err(TsError::InvalidParameter {
                name: "matchers",
                reason: "a MonitorBank needs at least one query".to_string(),
            });
        };
        if let Some(other) = slots
            .iter()
            .map(|s| s.matcher.query_len())
            .find(|&l| l != m)
        {
            return Err(TsError::InvalidParameter {
                name: "matchers",
                reason: format!(
                    "a MonitorBank shares one window of history, so every query must have \
                     the same prepared length (got {m} and {other}); group mixed lengths into \
                     one bank per length"
                ),
            });
        }
        for slot in &slots {
            slot.matcher.check_haystack(0.0)?;
        }
        Ok(Self {
            k,
            tau,
            peak: 0.0,
            moments: WindowedStats::new(m),
            extrema: RollingExtrema::new(m),
            window: Vec::with_capacity(m),
            slots,
        })
    }

    /// Number of monitored queries.
    pub fn query_count(&self) -> usize {
        self.slots.len()
    }

    /// Samples pushed so far (the stream position; the window completed
    /// by the latest push starts at `position() - query_len`).
    pub fn position(&self) -> u64 {
        self.moments.pushed()
    }

    /// Pushes one sample; once at least one full window is buffered,
    /// every query's cascade runs on the window this sample completes.
    /// Returns the match events the window produced, ascending by query
    /// (read [`MonitorBank::matches`] for the current selection).
    ///
    /// # Errors
    ///
    /// A non-finite sample, or one too large for a raw query's metric,
    /// both refused before touching any state (a NaN admitted here would
    /// silently poison the rolling statistics and every window holding
    /// it); or feature-extraction failures (adaptive policies only).
    pub fn push(&mut self, v: f64) -> Result<Vec<BankEvent>, TsError> {
        if !v.is_finite() {
            return Err(TsError::NonFinite {
                index: self.moments.pushed() as usize,
                value: v,
            });
        }
        if v.abs() > self.peak {
            // the check grows with the magnitude: only a new peak needs it
            for slot in &self.slots {
                slot.matcher.check_haystack(v.abs())?;
            }
            self.peak = v.abs();
        }
        self.moments.push(v);
        self.extrema.push(v);
        let mut events = Vec::new();
        if !self.moments.is_full() {
            return Ok(events);
        }
        self.moments.copy_window_into(&mut self.window);
        for (query, slot) in self.slots.iter_mut().enumerate() {
            let found =
                slot.on_window(self.k, self.tau, &self.moments, &self.extrema, &self.window)?;
            if let Some(matched) = found {
                events.push(BankEvent { query, matched });
            }
        }
        Ok(events)
    }

    /// Pushes a batch of samples (convenience wrapper over
    /// [`MonitorBank::push`]), returning every event produced.
    ///
    /// # Errors
    ///
    /// The first per-push error.
    pub fn process(&mut self, samples: &[f64]) -> Result<Vec<BankEvent>, TsError> {
        let mut out = Vec::new();
        for &v in samples {
            out.extend(self.push(v)?);
        }
        Ok(out)
    }

    /// Query `q`'s current best non-overlapping matches, ascending by
    /// `(distance, offset)` — the greedy selection over every candidate
    /// scored so far.
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub fn matches(&self, q: usize) -> Vec<SubseqMatch> {
        let slot = &self.slots[q];
        slot.matcher.select_greedy(&slot.candidates, self.k)
    }

    /// Query `q`'s matcher.
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub fn matcher(&self, q: usize) -> &SubseqMatcher {
        &self.slots[q].matcher
    }

    /// Query `q`'s accounting so far.
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub fn stats(&self, q: usize) -> &StreamStats {
        &self.slots[q].stats
    }

    /// Query `q`'s retained candidates (diagnostics; a superset of
    /// [`MonitorBank::matches`]).
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub fn candidate_count(&self, q: usize) -> usize {
        self.slots[q].candidates.len()
    }

    /// The bank's aggregate accounting: every query's [`StreamStats`]
    /// folded through [`StreamStats::merge`] (window visits and cascade
    /// counts sum across queries; each query is its own single endless
    /// pass, so `passes` stays 1).
    pub fn merged_stats(&self) -> StreamStats {
        let mut total = StreamStats::default();
        for slot in &self.slots {
            total.merge(&slot.stats);
        }
        total
    }

    /// Switches span recording on or off for every query (off by
    /// default — a disabled recorder costs one branch per phase).
    /// Turning it off discards any spans recorded so far; counters are
    /// unaffected either way.
    pub fn set_tracing(&mut self, on: bool) {
        for slot in &mut self.slots {
            slot.rec = if on {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            };
        }
    }

    /// Query `q`'s telemetry so far as one canonical [`QueryTrace`]
    /// (`workload = monitor-batch`): counters are a snapshot (they keep
    /// accumulating), spans drain — a later call carries only spans
    /// recorded since this one, and none at all unless
    /// [`MonitorBank::set_tracing`] switched recording on. `wall` stays
    /// zero: a live stream has no meaningful per-query wall clock.
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub fn trace(&mut self, q: usize, query_id: &str) -> QueryTrace {
        let stream_len = self.position();
        let slot = &mut self.slots[q];
        let mut trace = QueryTrace::new(query_id, WorkloadKind::MonitorBatch);
        trace.shape = slot.matcher.trace_shape(stream_len, self.k as u64);
        trace.counters = slot.stats;
        trace.band_area = slot.areas.0;
        trace.full_grid = slot.areas.1;
        trace.descriptor_comparisons = slot.comparisons;
        trace.spans = slot.rec.take_spans();
        trace
    }

    /// The bank's aggregate telemetry: every query's trace folded
    /// through [`QueryTrace::merge`] — counters and areas sum across
    /// queries (`passes` stays 1, the max), spans concatenate. Spans
    /// drain from every query, like [`MonitorBank::trace`].
    pub fn merged_trace(&mut self, query_id: &str) -> QueryTrace {
        let mut merged = QueryTrace::new(query_id, WorkloadKind::MonitorBatch);
        for q in 0..self.slots.len() {
            let t = self.trace(q, &format!("{query_id}/q{q}"));
            if q == 0 {
                merged.shape = t.shape.clone();
            }
            merged.merge(&t);
        }
        merged
    }

    /// Forgets all stream state for every query (query preparation is
    /// retained; tracing stays in its current on/off state, recorded
    /// spans are dropped and later spans are timed from the reset).
    pub fn reset(&mut self) {
        self.peak = 0.0;
        self.moments.clear();
        self.extrema.clear();
        self.window.clear();
        for slot in &mut self.slots {
            slot.reset();
        }
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

    fn bump(len: usize, centre: f64, width: f64) -> TimeSeries {
        ts((0..len)
            .map(|i| {
                let t = i as f64 / (len - 1) as f64;
                (-((t - centre) / width).powi(2)).exp()
            })
            .collect())
    }

    /// Two 40-sample bumps planted three times in a 360-sample stream.
    fn stream() -> Vec<f64> {
        let q1 = bump(40, 0.5, 0.12);
        let q2 = bump(40, 0.3, 0.2);
        let mut hay = vec![0.0; 360];
        for (start, src, gain) in [(40usize, &q1, 1.0), (150, &q2, 2.0), (260, &q1, 0.8)] {
            for i in 0..40 {
                hay[start + i] += gain * src.at(i);
            }
        }
        for (i, v) in hay.iter_mut().enumerate() {
            *v += 0.02 * (i as f64 / 11.0).sin();
        }
        hay
    }

    fn matcher(query: &TimeSeries) -> SubseqMatcher {
        SubseqMatcher::new(query, StreamConfig::exact_banded(0.2)).unwrap()
    }

    fn matchers() -> Vec<SubseqMatcher> {
        vec![matcher(&bump(40, 0.5, 0.12)), matcher(&bump(40, 0.3, 0.2))]
    }

    /// Each query's matches, stats and candidate count.
    fn snapshot(bank: &MonitorBank) -> Vec<(Vec<SubseqMatch>, StreamStats, usize)> {
        (0..bank.query_count())
            .map(|q| (bank.matches(q), *bank.stats(q), bank.candidate_count(q)))
            .collect()
    }

    #[test]
    fn banks_of_one_and_of_two_equal_the_batch_search() {
        let hay = ts(stream());
        let ms = matchers();
        let probe = ms[0].search(&hay).k(2).run().unwrap().0;
        let tau = probe.matches.last().unwrap().distance * 1.5;
        for (k, tau) in [(1, f64::INFINITY), (1, tau), (3, tau), (3, f64::INFINITY)] {
            let mut pair = MonitorBank::new(ms.clone(), k, tau).unwrap();
            pair.process(hay.values()).unwrap();
            for (q, m) in ms.iter().enumerate() {
                let batch = m.search(&hay).k(k).tau(tau).run().unwrap().0;
                let mut solo = MonitorBank::new([m.clone()], k, tau).unwrap();
                solo.process(hay.values()).unwrap();
                for live in [solo.matches(0), pair.matches(q)] {
                    assert_eq!(live.len(), batch.matches.len(), "k={k} tau={tau} q={q}");
                    for (a, b) in live.iter().zip(&batch.matches) {
                        assert_eq!(a.offset, b.offset);
                        assert_eq!(a.distance.to_bits(), b.distance.to_bits());
                    }
                }
                assert_eq!(pair.stats(q), solo.stats(0), "k={k} tau={tau} q={q}");
                assert_eq!(pair.candidate_count(q), solo.candidate_count(0));
                assert_eq!(solo.stats(0).windows, batch.stats.windows);
            }
        }
    }

    #[test]
    fn events_tag_their_query_and_reset_forgets() {
        let hay = stream();
        let mut bank = MonitorBank::new(matchers(), 1, f64::INFINITY).unwrap();
        let events = bank.process(&hay).unwrap();
        assert!(events.iter().any(|e| e.query == 0) && events.iter().any(|e| e.query == 1));
        assert!(events.iter().all(|e| e.query < bank.query_count()));
        for q in 0..bank.query_count() {
            assert!(bank.candidate_count(q) >= bank.matches(q).len());
            assert!(bank.stats(q).is_consistent());
        }
        assert_eq!(bank.position(), hay.len() as u64);
        bank.reset();
        assert_eq!(bank.position(), 0);
        assert!(bank.matches(0).is_empty() && bank.matches(1).is_empty());
        assert_eq!(bank.stats(0).windows, 0);
    }

    #[test]
    fn no_window_no_match() {
        let mut bank = MonitorBank::new(matchers(), 1, f64::INFINITY).unwrap();
        for i in 0..10 {
            assert!(bank.push(i as f64).unwrap().is_empty());
        }
        assert!(bank.matches(0).is_empty());
        assert_eq!(bank.stats(0).windows, 0);
    }

    #[test]
    fn merged_stats_aggregate_across_queries() {
        let mut bank = MonitorBank::new(matchers(), 1, f64::INFINITY).unwrap();
        bank.process(&stream()).unwrap();
        let merged = bank.merged_stats();
        assert_eq!(
            merged.windows,
            bank.stats(0).windows + bank.stats(1).windows
        );
        assert_eq!(merged.passes, 1);
        assert!(merged.is_consistent());
        assert!(merged.cascade.candidates > 0);
    }

    #[test]
    fn bad_banks_are_rejected() {
        assert!(MonitorBank::new([], 1, f64::INFINITY).is_err());
        let a = matcher(&bump(40, 0.5, 0.12));
        let b = matcher(&bump(48, 0.5, 0.12));
        let err = MonitorBank::new([a.clone(), b], 1, f64::INFINITY).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("same prepared length"), "{msg}");
        assert!(MonitorBank::new([a.clone()], 0, 1.0).is_err());
        assert!(MonitorBank::new([a.clone()], 1, -2.0).is_err());
        assert!(MonitorBank::new([a], 1, f64::NAN).is_err());
    }

    #[test]
    fn rejected_samples_leave_every_query_unchanged() {
        let hay = ts(stream());
        let ms = matchers();
        let mut bank = MonitorBank::new(ms.clone(), 1, f64::INFINITY).unwrap();
        let mid = hay.len() / 2;
        bank.process(&hay.values()[..mid]).unwrap();
        let before = snapshot(&bank);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = bank.push(bad).unwrap_err();
            assert!(matches!(err, TsError::NonFinite { .. }));
        }
        // the rejected samples left no trace: finishing the clean stream
        // still reproduces the batch result exactly
        assert_eq!(bank.position(), mid as u64);
        assert_eq!(snapshot(&bank), before);
        bank.process(&hay.values()[mid..]).unwrap();
        for (q, m) in ms.iter().enumerate() {
            let batch = m.search(&hay).k(1).run().unwrap().0;
            let live = bank.matches(q);
            assert_eq!(live[0].offset, batch.matches[0].offset);
            assert_eq!(
                live[0].distance.to_bits(),
                batch.matches[0].distance.to_bits()
            );
        }
    }

    #[test]
    fn mixed_normalisation_banks_are_allowed() {
        // the stream state is normalisation-agnostic (raw ring + raw
        // rolling stats); each query normalises its own windows, so raw
        // and z-normalised queries can share a stream
        let hay = stream();
        let q = bump(40, 0.5, 0.12);
        let raw_config = StreamConfig {
            z_normalize: false,
            ..StreamConfig::exact_banded(0.2)
        };
        let raw = SubseqMatcher::new(&q, raw_config).unwrap();
        let mut bank = MonitorBank::new([matcher(&q), raw], 1, f64::INFINITY).unwrap();
        bank.process(&hay).unwrap();
        assert_eq!(bank.matches(0).len(), 1);
        assert_eq!(bank.matches(1).len(), 1);
        assert!(bank.stats(0).is_consistent() && bank.stats(1).is_consistent());
        // the raw query's DP cost bounds the samples the bank accepts
        let before = snapshot(&bank);
        let err = bank.push(1.7e308).unwrap_err();
        assert!(format!("{err}").contains("too large for the squared metric"));
        assert_eq!(bank.position(), hay.len() as u64);
        assert_eq!(snapshot(&bank), before);
    }
}
