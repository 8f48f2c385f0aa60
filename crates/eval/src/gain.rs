//! Time gain and work gain (paper §4.2):
//! `time_gain = (time_DTW − time*) / time_DTW`, where `time*` covers
//! matching + inconsistency pruning + constrained DP (extraction is a
//! one-time indexed cost). The *work gain* analogue replaces wall time
//! with DP cells filled + descriptor comparisons — deterministic, so CI
//! can assert on it. Each reads a matrix's [`QueryTrace`]: its `BandPlan`
//! and `DpFill` spans and its counters.

use sdtw_obs::{QueryTrace, TracePhase};
use std::time::Duration;

/// Per-pair cost under the paper's accounting: matching (band planning)
/// plus DP, without the one-time extraction.
fn pair_time(trace: &QueryTrace) -> Duration {
    trace.phase_duration(TracePhase::BandPlan) + trace.phase_duration(TracePhase::DpFill)
}

/// Deterministic work: DP cells plus `weight` cells per descriptor
/// comparison.
fn work(trace: &QueryTrace, weight: f64) -> f64 {
    trace.counters.cascade.cells_filled as f64 + weight * trace.descriptor_comparisons as f64
}

/// Wall-clock time gain of a constrained run against the reference run.
/// Positive = faster than full DTW; can be negative when the constraint
/// machinery costs more than it saves.
pub fn time_gain(reference: &QueryTrace, constrained: &QueryTrace) -> f64 {
    let t_ref = pair_time(reference).as_secs_f64();
    if t_ref <= 0.0 {
        return 0.0;
    }
    (t_ref - pair_time(constrained).as_secs_f64()) / t_ref
}

/// Deterministic work-proxy gain: compares DP cells + descriptor
/// comparisons (one descriptor comparison is weighted as `weight` cell
/// fills; descriptors are short vectors, so the default weight in
/// [`work_gain`] is the descriptor length).
pub fn work_gain_weighted(reference: &QueryTrace, constrained: &QueryTrace, weight: f64) -> f64 {
    let w_ref = work(reference, weight);
    if w_ref <= 0.0 {
        return 0.0;
    }
    (w_ref - work(constrained, weight)) / w_ref
}

/// Work gain with a descriptor comparison costed as 2 cell fills. A 64-bin
/// Euclidean distance is a branch-free vectorisable loop, while a DP cell
/// is a branchy 3-way min with band bookkeeping; wall-time calibration on
/// this engine puts one comparison at roughly two cells. Use
/// [`work_gain_weighted`] to ablate the weight.
pub fn work_gain(reference: &QueryTrace, constrained: &QueryTrace) -> f64 {
    work_gain_weighted(reference, constrained, 2.0)
}

/// Fraction of a run's cost spent in matching (Figure 17's split).
pub fn matching_fraction(trace: &QueryTrace) -> f64 {
    let total = pair_time(trace).as_secs_f64();
    if total <= 0.0 {
        return 0.0;
    }
    trace.phase_duration(TracePhase::BandPlan).as_secs_f64() / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdtw_obs::SpanRecord;

    fn stats(matching_ms: u64, dp_ms: u64, cells: u64, descs: u64) -> QueryTrace {
        let span = |phase, ms| SpanRecord {
            phase,
            start: Duration::ZERO,
            duration: Duration::from_millis(ms),
            count: 1,
            thread: 0,
        };
        let mut trace = QueryTrace {
            spans: vec![
                span(TracePhase::BandPlan, matching_ms),
                span(TracePhase::DpFill, dp_ms),
            ],
            descriptor_comparisons: descs,
            ..QueryTrace::default()
        };
        trace.counters.cascade.cells_filled = cells;
        trace
    }

    #[test]
    fn time_gain_half_cost() {
        let reference = stats(0, 100, 0, 0);
        let constrained = stats(10, 40, 0, 0);
        assert!((time_gain(&reference, &constrained) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn time_gain_can_be_negative() {
        let reference = stats(0, 100, 0, 0);
        let constrained = stats(80, 40, 0, 0);
        assert!(time_gain(&reference, &constrained) < 0.0);
    }

    #[test]
    fn zero_reference_time_gives_zero_gain() {
        let z = stats(0, 0, 0, 0);
        assert_eq!(time_gain(&z, &stats(1, 1, 0, 0)), 0.0);
    }

    #[test]
    fn work_gain_counts_cells_and_descriptors() {
        let reference = stats(0, 0, 10_000, 0);
        let constrained = stats(0, 0, 4_000, 10);
        // 10 descriptor comparisons at the default weight 2 = 20 cell units
        let expected = (10_000.0 - (4_000.0 + 20.0)) / 10_000.0;
        assert!((work_gain(&reference, &constrained) - expected).abs() < 1e-12);
        // the weighted variant honours a custom weight
        let heavy = work_gain_weighted(&reference, &constrained, 64.0);
        let expected_heavy = (10_000.0 - (4_000.0 + 640.0)) / 10_000.0;
        assert!((heavy - expected_heavy).abs() < 1e-12);
    }

    #[test]
    fn matching_fraction_bounds() {
        assert_eq!(matching_fraction(&stats(0, 0, 0, 0)), 0.0);
        let s = stats(25, 75, 0, 0);
        assert!((matching_fraction(&s) - 0.25).abs() < 1e-12);
    }
}
