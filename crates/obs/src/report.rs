//! Local-first aggregate analysis over an NDJSON trace file — what the
//! `sdtw report` CLI subcommand prints, importable so CI and tests can
//! assert on the same tables.

use crate::counters::StreamStats;
use crate::span::TracePhase;
use crate::trace::QueryTrace;
use std::fmt::Write as _;
use std::time::Duration;

/// A parsed batch of [`QueryTrace`] lines plus the aggregate tables the
/// report prints: per-stage prune %, p50/p95 span durations, and a
/// cells-per-query histogram. Analysis is entirely in-process — no
/// external infrastructure, per the dashflow invariants.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    traces: Vec<QueryTrace>,
}

impl TraceReport {
    /// Parses an NDJSON document (one [`QueryTrace`] per non-empty
    /// line). Fails on the first malformed line, identifying it by
    /// 1-based number.
    pub fn from_ndjson(text: &str) -> Result<TraceReport, String> {
        let mut traces = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let trace =
                QueryTrace::from_json_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            traces.push(trace);
        }
        Ok(TraceReport { traces })
    }

    /// The parsed traces, in file order.
    pub fn traces(&self) -> &[QueryTrace] {
        &self.traces
    }

    /// Number of traces parsed.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the file held no traces.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// All counters merged into one block (sum counters, max passes).
    pub fn merged_counters(&self) -> StreamStats {
        let mut total = StreamStats::default();
        for t in &self.traces {
            total.merge(&t.counters);
        }
        total
    }

    /// Renders the aggregate tables as human-readable text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace report: {} traces", self.len());
        if self.is_empty() {
            return out;
        }
        self.render_workloads(&mut out);
        self.render_prune_table(&mut out);
        self.render_span_percentiles(&mut out);
        self.render_cells_histogram(&mut out);
        out
    }

    fn render_workloads(&self, out: &mut String) {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for t in &self.traces {
            let label = t.workload.label();
            match counts.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += 1,
                None => counts.push((label, 1)),
            }
        }
        let parts: Vec<String> = counts.iter().map(|(l, n)| format!("{l}={n}")).collect();
        let _ = writeln!(out, "workloads: {}", parts.join(" "));
    }

    fn render_prune_table(&self, out: &mut String) {
        let merged = self.merged_counters();
        let agg = QueryTrace {
            counters: merged,
            ..QueryTrace::default()
        };
        let _ = writeln!(
            out,
            "\nper-stage prune table ({} candidates, prune rate {:.1}%)",
            merged.cascade.candidates,
            merged.prune_rate() * 100.0
        );
        let _ = writeln!(out, "  {:<14} {:>12} {:>10}", "stage", "disposed", "%");
        for (label, n, frac) in agg.stage_prune_fractions() {
            let _ = writeln!(out, "  {:<14} {:>12} {:>9.1}%", label, n, frac * 100.0);
        }
        if merged.cascade.lb_inapplicable > 0 {
            let _ = writeln!(
                out,
                "  ({} candidates skipped inapplicable bound stages)",
                merged.cascade.lb_inapplicable
            );
        }
    }

    fn render_span_percentiles(&self, out: &mut String) {
        let _ = writeln!(out, "\nspan durations (per-query totals)");
        let _ = writeln!(
            out,
            "  {:<14} {:>10} {:>10} {:>8}",
            "phase", "p50", "p95", "queries"
        );
        for phase in TracePhase::ALL {
            let mut durations: Vec<Duration> = self
                .traces
                .iter()
                .filter(|t| t.spans.iter().any(|s| s.phase == phase))
                .map(|t| t.phase_duration(phase))
                .collect();
            if durations.is_empty() {
                continue;
            }
            durations.sort_unstable();
            let p50 = percentile(&durations, 50.0);
            let p95 = percentile(&durations, 95.0);
            let _ = writeln!(
                out,
                "  {:<14} {:>10.3?} {:>10.3?} {:>8}",
                phase.label(),
                p50,
                p95,
                durations.len()
            );
        }
    }

    fn render_cells_histogram(&self, out: &mut String) {
        // log10 buckets over DP cells filled per query: 0, [1,10),
        // [10,100), … — wide enough to compare index queries against
        // archive-scale stream sweeps in one table.
        let mut buckets: Vec<u64> = Vec::new();
        let mut zeros = 0u64;
        for t in &self.traces {
            let cells = t.counters.cascade.cells_filled;
            if cells == 0 {
                zeros += 1;
                continue;
            }
            let b = (cells as f64).log10().floor() as usize;
            if buckets.len() <= b {
                buckets.resize(b + 1, 0);
            }
            buckets[b] += 1;
        }
        let _ = writeln!(out, "\ncells per query (log10 buckets)");
        if zeros > 0 {
            let _ = writeln!(out, "  {:<16} {:>8}", "0", zeros);
        }
        for (b, n) in buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            let lo = 10u64.saturating_pow(b as u32);
            let hi = 10u64.saturating_pow(b as u32 + 1);
            let _ = writeln!(out, "  {:<16} {:>8}", format!("[{lo}, {hi})"), n);
        }
    }
}

/// Nearest-rank percentile over a sorted slice.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    debug_assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CascadeStats;
    use crate::span::SpanRecord;
    use crate::trace::WorkloadKind;

    fn trace(id: &str, candidates: u64, kim: u64, cells: u64, dp_us: u64) -> QueryTrace {
        let mut t = QueryTrace::new(id, WorkloadKind::IndexKnn);
        t.counters.cascade = CascadeStats {
            candidates,
            pruned_kim: kim,
            dp_completed: candidates - kim,
            cells_filled: cells,
            ..CascadeStats::default()
        };
        t.spans.push(SpanRecord {
            phase: TracePhase::DpFill,
            start: Duration::ZERO,
            duration: Duration::from_micros(dp_us),
            count: candidates - kim,
            thread: 0,
        });
        t
    }

    fn ndjson(traces: &[QueryTrace]) -> String {
        traces
            .iter()
            .map(|t| t.to_json_line())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn parses_and_skips_blank_lines() {
        let text = format!(
            "\n{}\n\n{}\n",
            trace("a", 4, 2, 100, 5).to_json_line(),
            trace("b", 6, 3, 1000, 9).to_json_line()
        );
        let report = TraceReport::from_ndjson(&text).unwrap();
        assert_eq!(report.len(), 2);
        assert_eq!(report.merged_counters().cascade.candidates, 10);
    }

    #[test]
    fn bad_lines_are_identified_by_number() {
        let text = format!("{}\nnot json", trace("a", 4, 2, 100, 5).to_json_line());
        let err = TraceReport::from_ndjson(&text).unwrap_err();
        assert!(err.starts_with("line 2:"), "err was: {err}");
    }

    #[test]
    fn render_contains_the_three_tables() {
        let traces: Vec<QueryTrace> = (0..20)
            .map(|i| {
                trace(
                    &format!("q{i}"),
                    10,
                    5,
                    10u64.pow(1 + (i % 4)),
                    (10 + i).into(),
                )
            })
            .collect();
        let report = TraceReport::from_ndjson(&ndjson(&traces)).unwrap();
        let text = report.render();
        assert!(text.contains("trace report: 20 traces"));
        assert!(text.contains("per-stage prune table"));
        assert!(text.contains("lb-kim"));
        assert!(text.contains("span durations"));
        assert!(text.contains("dp-fill"));
        assert!(text.contains("cells per query"));
        assert!(text.contains("[10, 100)"));
    }

    #[test]
    fn empty_report_renders_without_panicking() {
        let report = TraceReport::from_ndjson("").unwrap();
        assert!(report.is_empty());
        assert!(report.render().contains("0 traces"));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let d: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(percentile(&d, 50.0), Duration::from_micros(50));
        assert_eq!(percentile(&d, 95.0), Duration::from_micros(95));
        assert_eq!(percentile(&d[..1], 95.0), Duration::from_micros(1));
    }
}
