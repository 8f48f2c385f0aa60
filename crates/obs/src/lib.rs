//! # sdtw-obs — the canonical query-trace telemetry spine
//!
//! Every piece of execution telemetry in the workspace flows through one
//! type: [`QueryTrace`]. One trace is produced per *logical query* — an
//! index kNN lookup, a subsequence search, a monitor window-batch, or a
//! plain pairwise distance — and carries
//!
//! * the query's identity and workload kind,
//! * its input shape (lengths, band policy, kernel, engine),
//! * phase spans ([`SpanRecord`]) with monotonic start offsets, durations
//!   and thread ids,
//! * the counter families ([`CascadeStats`] and [`StreamStats`] are
//!   *defined here*, and the index, stream and serve crates count into
//!   them directly, so they are the trace's counter block, not parallel
//!   structs), and
//! * derived pruning-power metrics (fraction pruned per stage, cells
//!   touched vs. band area vs. full grid).
//!
//! The design follows the dashflow invariants: ALL telemetry through the
//! one canonical trace type, no parallel structs, local-first analysis
//! (NDJSON export + an in-process [`TraceReport`]) with zero external
//! infrastructure.
//!
//! Instrumentation happens through a [`Recorder`] handle threaded through
//! the hot-path seams. [`Recorder::disabled()`] is the default everywhere
//! and costs a single branch per use — the "disabled-recorder seam" row
//! of the performance guards (`crates/bench/src/bin/guards.rs`) holds
//! it under 2% of the bare hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod recorder;
pub mod report;
pub mod span;
pub mod trace;

pub use counters::{CascadeStats, StreamStats};
pub use recorder::Recorder;
pub use report::TraceReport;
pub use span::{SpanRecord, TracePhase};
pub use trace::{InputShape, QueryTrace, WorkloadKind, TRACE_SCHEMA_VERSION};
