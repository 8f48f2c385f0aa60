//! [`QueryTrace`]: the one record every query's telemetry flows into.

use crate::counters::StreamStats;
use crate::span::{SpanRecord, TracePhase};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// Version of the NDJSON wire schema emitted by
/// [`QueryTrace::to_json_line`]. Bump deliberately — the
/// `tests/trace_schema.rs` golden fixture and ratchet test must change in
/// the same commit (mirroring the `api_surface.rs` discipline).
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// Which kind of logical query produced a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// One pairwise distance (`sdtw dist`, `Query::run`).
    #[default]
    Distance,
    /// A full or query-vs-corpus distance matrix (`sdtw distmat`).
    DistanceMatrix,
    /// A k-nearest-neighbour lookup against a built index
    /// (`sdtw index query`).
    IndexKnn,
    /// A batch subsequence search over a long series
    /// (`sdtw stream find`).
    SubseqFind,
    /// A window-batch processed by a live monitor / monitor bank.
    MonitorBatch,
    /// A two-level pattern request answered by the resident serve
    /// daemon (`sdtw serve`): the coarse index screen over corpus
    /// entries folded with the subsequence sweeps inside the survivors.
    ServePattern,
}

impl WorkloadKind {
    /// Stable human-readable label (the NDJSON wire form uses the
    /// variant name instead).
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Distance => "distance",
            WorkloadKind::DistanceMatrix => "distance-matrix",
            WorkloadKind::IndexKnn => "index-knn",
            WorkloadKind::SubseqFind => "subseq-find",
            WorkloadKind::MonitorBatch => "monitor-batch",
            WorkloadKind::ServePattern => "serve-pattern",
        }
    }
}

/// The query's input shape: enough to interpret the counters without the
/// original data. String fields carry the `Display`/CLI names of the
/// band policy, cost kernel, and DP engine so the trace stays
/// self-describing across schema-stable releases.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputShape {
    /// Length of the query side (or of `x` for pairwise workloads).
    pub x_len: u64,
    /// Length of the other side: corpus-entry / window / `y` length.
    pub y_len: u64,
    /// Requested result count (k for kNN and subsequence search; 1 for
    /// plain distances; pair count for matrices).
    pub k: u64,
    /// Band constraint policy name (e.g. `sakoe`, `ac2aw`).
    pub policy: String,
    /// Cost kernel name (e.g. `standard`, `amerced`).
    pub kernel: String,
    /// DP engine name (e.g. `wavefront`, `rows`).
    pub engine: String,
}

/// One per logical query: identity, input shape, phase spans, the
/// canonical counter block, and the grid-size denominators the derived
/// pruning-power metrics divide by.
///
/// `counters` *is* the [`StreamStats`]/[`CascadeStats`] family — those
/// types are defined in this crate and the search paths count into them
/// directly, so a trace embeds the existing counters rather than
/// shadowing them with a parallel struct. Non-stream workloads leave the
/// window-level counters at zero.
///
/// [`CascadeStats`]: crate::CascadeStats
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryTrace {
    /// Wire-schema version; [`TRACE_SCHEMA_VERSION`] when produced by
    /// this build.
    pub schema: u32,
    /// Caller-assigned query id (row index, query file stem, …).
    pub query_id: String,
    /// Which workload produced this trace.
    pub workload: WorkloadKind,
    /// Input shape metadata.
    pub shape: InputShape,
    /// Phase spans. A [`Recorder`](crate::Recorder) emits one aggregated
    /// span per phase it timed; a trace merged from several participants
    /// (sweeps, shards, matrix rows) holds all of their spans,
    /// concatenated by [`QueryTrace::merge`], so a phase can appear many
    /// times ([`QueryTrace::phase_duration`] sums them).
    pub spans: Vec<SpanRecord>,
    /// The canonical counter block (cascade + window-level counters).
    pub counters: StreamStats,
    /// Descriptor comparisons performed while matching salient features
    /// (the paper's matching-phase work proxy; zero for workloads that
    /// never plan adaptive bands).
    pub descriptor_comparisons: u64,
    /// Total banded-grid area admitted across all DP candidates — the
    /// denominator for "cells touched vs. band".
    pub band_area: u64,
    /// Total unconstrained grid area (`n·m` summed over DP candidates) —
    /// the denominator for "band vs. full grid".
    pub full_grid: u64,
    /// End-to-end wall time of the query.
    pub wall: Duration,
}

impl QueryTrace {
    /// A fresh trace with the schema stamped and everything else empty.
    pub fn new(query_id: impl Into<String>, workload: WorkloadKind) -> QueryTrace {
        QueryTrace {
            schema: TRACE_SCHEMA_VERSION,
            query_id: query_id.into(),
            workload,
            ..QueryTrace::default()
        }
    }

    /// Folds another trace's *measurements* into this one, extending the
    /// PR 5 merge discipline: counters sum (with `passes` taking the
    /// max, via [`StreamStats::merge`]), spans concatenate, wall time
    /// and grid denominators follow their aggregation rule (max for
    /// wall — merged participants ran concurrently — sums for the
    /// per-candidate area denominators). Identity fields (`query_id`,
    /// `workload`, `shape`, `schema`) are left untouched, which makes
    /// merging a default trace a right-identity and the operation
    /// associative.
    pub fn merge(&mut self, other: &QueryTrace) {
        self.counters.merge(&other.counters);
        self.spans.extend(other.spans.iter().copied());
        self.descriptor_comparisons += other.descriptor_comparisons;
        self.band_area += other.band_area;
        self.full_grid += other.full_grid;
        self.wall = self.wall.max(other.wall);
    }

    /// Per-stage pruning power: `(stage label, disposals, fraction of
    /// candidates)` for each disposal class, in cascade order. Fractions
    /// are 0 when no candidates entered the cascade.
    pub fn stage_prune_fractions(&self) -> Vec<(&'static str, u64, f64)> {
        let c = &self.counters.cascade;
        let denom = c.candidates;
        let frac = |n: u64| {
            if denom == 0 {
                0.0
            } else {
                n as f64 / denom as f64
            }
        };
        vec![
            ("lb-kim", c.pruned_kim, frac(c.pruned_kim)),
            ("coarse-paa", c.pruned_paa, frac(c.pruned_paa)),
            ("lb-keogh", c.pruned_keogh, frac(c.pruned_keogh)),
            ("lb-keogh-rev", c.pruned_keogh_rev, frac(c.pruned_keogh_rev)),
            ("abandoned", c.abandoned, frac(c.abandoned)),
            ("dp-completed", c.dp_completed, frac(c.dp_completed)),
        ]
    }

    /// Cells actually filled as a fraction of the band area admitted to
    /// the DP (1.0 means every admitted cell was paid for; abandons pull
    /// it below only when charged less than their band).
    pub fn cells_vs_band(&self) -> f64 {
        ratio(self.counters.cascade.cells_filled, self.band_area)
    }

    /// Band area as a fraction of the unconstrained grid — the paper's
    /// headline: how much of `n·m` the locally-relevant band admits.
    pub fn band_vs_grid(&self) -> f64 {
        ratio(self.band_area, self.full_grid)
    }

    /// Cells filled as a fraction of the unconstrained grid.
    pub fn cells_vs_grid(&self) -> f64 {
        ratio(self.counters.cascade.cells_filled, self.full_grid)
    }

    /// Serialises to one compact NDJSON line (no trailing newline). The
    /// field order is the struct's declaration order and floats don't
    /// appear, so the encoding is byte-deterministic — the golden-fixture
    /// test relies on that.
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("trace serialisation is infallible")
    }

    /// Parses one NDJSON line back, rejecting unknown schema versions.
    pub fn from_json_line(line: &str) -> Result<QueryTrace, String> {
        let trace: QueryTrace =
            serde_json::from_str(line).map_err(|e| format!("bad trace line: {e}"))?;
        if trace.schema != TRACE_SCHEMA_VERSION {
            return Err(format!(
                "trace schema v{} is not the supported v{TRACE_SCHEMA_VERSION}",
                trace.schema
            ));
        }
        Ok(trace)
    }

    /// Total recorded duration of one phase across all spans (shards).
    pub fn phase_duration(&self, phase: TracePhase) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.duration)
            .sum()
    }
}

fn ratio(num: u64, denom: u64) -> f64 {
    if denom == 0 {
        0.0
    } else {
        num as f64 / denom as f64
    }
}

impl fmt::Display for QueryTrace {
    /// Flamegraph-ish human summary: one bar per phase (width ∝ share of
    /// recorded time), then the cascade disposal line and the
    /// cells/band/grid accounting.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace {} [{}] {}x{} k={} policy={} kernel={} engine={} wall={:?}",
            if self.query_id.is_empty() {
                "?"
            } else {
                &self.query_id
            },
            self.workload.label(),
            self.shape.x_len,
            self.shape.y_len,
            self.shape.k,
            or_dash(&self.shape.policy),
            or_dash(&self.shape.kernel),
            or_dash(&self.shape.engine),
            self.wall,
        )?;
        let total: Duration = self.spans.iter().map(|s| s.duration).sum();
        for phase in TracePhase::ALL {
            let d = self.phase_duration(phase);
            let count: u64 = self
                .spans
                .iter()
                .filter(|s| s.phase == phase)
                .map(|s| s.count)
                .sum();
            if count == 0 {
                continue;
            }
            let share = if total.is_zero() {
                0.0
            } else {
                d.as_secs_f64() / total.as_secs_f64()
            };
            let width = (share * 40.0).round() as usize;
            writeln!(
                f,
                "  {:<14} {:<40} {:>9.3?} ({:>5.1}%) x{}",
                phase.label(),
                "#".repeat(width),
                d,
                share * 100.0,
                count,
            )?;
        }
        let c = &self.counters.cascade;
        write!(f, "  cascade: {} candidates", c.candidates)?;
        for (label, n, frac) in self.stage_prune_fractions() {
            if n > 0 {
                write!(f, " | {label} {n} ({:.1}%)", frac * 100.0)?;
            }
        }
        writeln!(f)?;
        writeln!(
            f,
            "  cells: {} filled / band {} ({:.1}%) / grid {} ({:.2}%)",
            c.cells_filled,
            self.band_area,
            self.cells_vs_band() * 100.0,
            self.full_grid,
            self.cells_vs_grid() * 100.0,
        )
    }
}

fn or_dash(s: &str) -> &str {
    if s.is_empty() {
        "-"
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CascadeStats;

    fn sample() -> QueryTrace {
        let mut t = QueryTrace::new("q0", WorkloadKind::IndexKnn);
        t.shape = InputShape {
            x_len: 150,
            y_len: 150,
            k: 3,
            policy: "sakoe".into(),
            kernel: "standard".into(),
            engine: "wavefront".into(),
        };
        t.counters = StreamStats {
            windows: 0,
            passes: 1,
            skipped_excluded: 0,
            cache_hits: 0,
            cascade: CascadeStats {
                candidates: 40,
                pruned_kim: 20,
                pruned_keogh: 10,
                abandoned: 4,
                dp_completed: 6,
                cells_filled: 9000,
                ..CascadeStats::default()
            },
        };
        t.band_area = 12000;
        t.full_grid = 135_000;
        t.wall = Duration::from_micros(875);
        t.spans = vec![
            SpanRecord {
                phase: TracePhase::LbKim,
                start: Duration::from_micros(1),
                duration: Duration::from_micros(40),
                count: 40,
                thread: 0,
            },
            SpanRecord {
                phase: TracePhase::DpFill,
                start: Duration::from_micros(60),
                duration: Duration::from_micros(700),
                count: 10,
                thread: 0,
            },
        ];
        t
    }

    #[test]
    fn json_line_roundtrips_exactly() {
        let t = sample();
        let line = t.to_json_line();
        assert!(!line.contains('\n'), "one line per trace");
        let back = QueryTrace::from_json_line(&line).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.to_json_line(), line, "byte-stable re-encoding");
    }

    #[test]
    fn unknown_schema_versions_are_rejected() {
        let mut t = sample();
        t.schema = TRACE_SCHEMA_VERSION + 1;
        let line = t.to_json_line();
        let err = QueryTrace::from_json_line(&line).unwrap_err();
        assert!(err.contains("schema"), "err was: {err}");
    }

    #[test]
    fn merge_is_right_identity_on_default() {
        let mut t = sample();
        let before = t.clone();
        t.merge(&QueryTrace::default());
        assert_eq!(t, before);
    }

    #[test]
    fn merge_is_associative_on_seeded_random_traces() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn random_trace(rng: &mut StdRng, id: &str) -> QueryTrace {
            let mut t = QueryTrace::new(id, WorkloadKind::SubseqFind);
            t.counters.windows = rng.gen_range(0u64..1000);
            t.counters.passes = rng.gen_range(0u32..5);
            t.counters.skipped_excluded = rng.gen_range(0u64..50);
            t.counters.cache_hits = rng.gen_range(0u64..50);
            t.counters.cascade = CascadeStats {
                candidates: rng.gen_range(0u64..1000),
                pruned_kim: rng.gen_range(0u64..200),
                pruned_paa: rng.gen_range(0u64..200),
                pruned_keogh: rng.gen_range(0u64..200),
                pruned_keogh_rev: rng.gen_range(0u64..200),
                lb_inapplicable: rng.gen_range(0u64..20),
                abandoned: rng.gen_range(0u64..100),
                dp_completed: rng.gen_range(0u64..100),
                cells_filled: rng.gen_range(0u64..1_000_000),
            };
            t.descriptor_comparisons = rng.gen_range(0u64..10_000);
            t.band_area = rng.gen_range(0u64..1_000_000);
            t.full_grid = rng.gen_range(0u64..10_000_000);
            t.wall = Duration::from_nanos(rng.gen_range(0u64..1_000_000_000));
            for _ in 0..rng.gen_range(0usize..6) {
                t.spans.push(SpanRecord {
                    phase: TracePhase::ALL[rng.gen_range(0usize..TracePhase::ALL.len())],
                    start: Duration::from_nanos(rng.gen_range(0u64..1_000_000)),
                    duration: Duration::from_nanos(rng.gen_range(0u64..1_000_000)),
                    count: rng.gen_range(1u64..100),
                    thread: rng.gen_range(0u64..8),
                });
            }
            t
        }

        fn merged(a: &QueryTrace, b: &QueryTrace) -> QueryTrace {
            let mut out = a.clone();
            out.merge(b);
            out
        }

        let mut rng = StdRng::seed_from_u64(20120827);
        for round in 0..50 {
            let a = random_trace(&mut rng, &format!("a{round}"));
            let b = random_trace(&mut rng, "b");
            let c = random_trace(&mut rng, "c");
            let left = merged(&merged(&a, &b), &c);
            let right = merged(&a, &merged(&b, &c));
            assert_eq!(left, right, "associativity (round {round})");
            let id = QueryTrace::default();
            assert_eq!(merged(&a, &id), a, "right identity (round {round})");
            // merging into a default transfers the measurements whole
            let lid = merged(&id, &a);
            assert_eq!(lid.counters, a.counters);
            assert_eq!(lid.spans, a.spans);
            assert_eq!(lid.wall, a.wall);
        }
    }

    #[test]
    fn merge_follows_the_shard_discipline() {
        let mut a = sample();
        let mut b = sample();
        b.counters.passes = 3;
        b.wall = Duration::from_micros(2000);
        a.merge(&b);
        assert_eq!(a.counters.cascade.candidates, 80, "counters sum");
        assert_eq!(a.counters.passes, 3, "passes take the max");
        assert_eq!(a.wall, Duration::from_micros(2000), "wall takes the max");
        assert_eq!(a.spans.len(), 4, "spans concatenate");
        assert_eq!(a.band_area, 24000);
        assert_eq!(a.query_id, "q0", "identity untouched");
    }

    #[test]
    fn derived_metrics_divide_safely() {
        let t = QueryTrace::default();
        assert_eq!(t.cells_vs_band(), 0.0);
        assert_eq!(t.band_vs_grid(), 0.0);
        assert_eq!(t.cells_vs_grid(), 0.0);
        let s = sample();
        assert!((s.cells_vs_band() - 0.75).abs() < 1e-12);
        assert!((s.band_vs_grid() - 12000.0 / 135_000.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_phases_and_cascade() {
        let text = sample().to_string();
        assert!(text.contains("index-knn"));
        assert!(text.contains("lb-kim"));
        assert!(text.contains("dp-fill"));
        assert!(text.contains("cascade: 40 candidates"));
        assert!(text.contains("cells:"));
    }
}
