//! The lightweight instrumentation handle threaded through hot paths.

use crate::span::{SpanRecord, TracePhase};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Process-wide thread ordinal: 0 for whichever thread records first,
/// then 1, 2, … — stable for the thread's lifetime. Recorded into spans
/// so shard-local traces stay distinguishable after a merge.
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

/// Per-phase accumulation: spans are aggregated (summed duration, call
/// count, first-start offset) rather than stored per call, so recording
/// stays O(1) in the number of windows screened.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    count: u64,
    total: Duration,
    first_start: Option<Duration>,
}

#[derive(Debug, Clone)]
struct Inner {
    /// Monotonic epoch all of this recorder's span offsets are relative
    /// to (taken when the recorder was enabled).
    epoch: Instant,
    /// Ordinal of the thread the recorder was created on.
    thread: u64,
    /// One accumulation slot per [`TracePhase`].
    slots: [Slot; TracePhase::COUNT],
}

impl Inner {
    fn note(&mut self, phase: TracePhase, start: Duration, duration: Duration) {
        let slot = &mut self.slots[phase.index()];
        slot.count += 1;
        slot.total += duration;
        if slot.first_start.is_none() {
            slot.first_start = Some(start);
        }
    }
}

/// Instrumentation handle for one logical query.
///
/// Every instrumented seam takes a `&mut Recorder`; the default
/// everywhere is [`Recorder::disabled()`], whose [`Recorder::time`] is a
/// single `Option` branch around the closure — the "disabled-recorder
/// seam" row of the performance guards (`crates/bench/src/bin/guards.rs`)
/// holds the disabled cost under 2% of the bare hot path.
///
/// Enabled recorders aggregate per-phase [`SpanRecord`]s relative to a
/// monotonic epoch. Parallel shards each run their own recorder
/// (created on the worker thread, so the thread ordinal is honest), and
/// the search concatenates their spans into one trace, as
/// [`QueryTrace::merge`](crate::QueryTrace::merge) does.
/// Cloning copies the accumulated state verbatim — epoch and thread
/// ordinal included — so a clone continues the same logical timeline
/// (monitors are `Clone`; their recorders must follow).
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Box<Inner>>,
}

impl Recorder {
    /// The no-op recorder: records nothing, costs one branch per use.
    pub const fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A live recorder whose epoch is *now* and whose spans carry the
    /// calling thread's ordinal.
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Box::new(Inner {
                epoch: Instant::now(),
                thread: thread_ordinal(),
                slots: [Slot::default(); TracePhase::COUNT],
            })),
        }
    }

    /// Whether this recorder is live (spans will actually be kept).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f`, attributing its wall time to `phase`. On a disabled
    /// recorder this is exactly `f()` behind one branch.
    #[inline]
    pub fn time<R>(&mut self, phase: TracePhase, f: impl FnOnce() -> R) -> R {
        match self.inner.as_deref_mut() {
            None => f(),
            Some(inner) => {
                let start = inner.epoch.elapsed();
                let out = f();
                let duration = inner.epoch.elapsed().saturating_sub(start);
                inner.note(phase, start, duration);
                out
            }
        }
    }

    /// Attributes an already-measured duration (ending roughly now) to
    /// `phase` — for call sites that must keep their own `Instant`
    /// bookkeeping.
    pub fn add(&mut self, phase: TracePhase, duration: Duration) {
        if let Some(inner) = self.inner.as_deref_mut() {
            let start = inner.epoch.elapsed().saturating_sub(duration);
            inner.note(phase, start, duration);
        }
    }

    /// Drains everything recorded so far into aggregated spans (one per
    /// phase that ran), resetting the accumulation but keeping the
    /// epoch. Returns an empty vec when disabled.
    pub fn take_spans(&mut self) -> Vec<SpanRecord> {
        let Some(inner) = self.inner.as_deref_mut() else {
            return Vec::new();
        };
        let mut spans = Vec::new();
        for (i, slot) in inner.slots.iter_mut().enumerate() {
            if slot.count == 0 {
                continue;
            }
            spans.push(SpanRecord {
                phase: TracePhase::ALL[i],
                start: slot.first_start.unwrap_or_default(),
                duration: slot.total,
                count: slot.count,
                thread: inner.thread,
            });
            *slot = Slot::default();
        }
        spans
    }

    /// Consumes the recorder, returning its aggregated spans.
    pub fn finish(mut self) -> Vec<SpanRecord> {
        self.take_spans()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::disabled();
        assert!(!r.is_enabled());
        let v = r.time(TracePhase::DpFill, || 41 + 1);
        assert_eq!(v, 42);
        r.add(TracePhase::LbKim, Duration::from_millis(5));
        assert!(r.finish().is_empty());
    }

    #[test]
    fn enabled_recorder_aggregates_per_phase() {
        let mut r = Recorder::enabled();
        assert!(r.is_enabled());
        for _ in 0..3 {
            r.time(TracePhase::LbKim, || std::hint::black_box(7u64 * 6));
        }
        r.add(TracePhase::DpFill, Duration::from_micros(10));
        let spans = r.finish();
        assert_eq!(spans.len(), 2, "one aggregated span per phase that ran");
        let kim = spans.iter().find(|s| s.phase == TracePhase::LbKim).unwrap();
        assert_eq!(kim.count, 3);
        let dp = spans
            .iter()
            .find(|s| s.phase == TracePhase::DpFill)
            .unwrap();
        assert_eq!(dp.count, 1);
        assert!(dp.duration >= Duration::from_micros(10));
    }

    #[test]
    fn take_spans_resets_the_accumulation() {
        let mut r = Recorder::enabled();
        r.time(TracePhase::LbKeogh, || ());
        assert_eq!(r.take_spans().len(), 1);
        assert!(r.take_spans().is_empty(), "drained slots start over");
    }
}
