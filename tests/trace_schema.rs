//! Trace wire-schema ratchet, mirroring the `api_surface.rs` discipline:
//! the NDJSON encoding of a fully-populated [`QueryTrace`] is pinned to a
//! committed golden fixture byte-for-byte, and the schema version is
//! asserted explicitly — bumping either requires touching this file (and
//! the fixture) in the same commit, so the wire format only changes
//! deliberately.
//!
//! The fixture uses hand-set deterministic values (no real timings), so
//! regeneration is exact: `golden_trace().to_json_line()`.

use sdtw_suite::obs::{InputShape, SpanRecord};
use sdtw_suite::prelude::*;
use std::time::Duration;

/// The committed golden NDJSON line (one trace, trailing newline).
const FIXTURE: &str = include_str!("fixtures/trace_v2.ndjson");

/// A trace exercising every field of the wire schema with fixed values.
fn golden_trace() -> QueryTrace {
    let mut t = QueryTrace::new("golden-q0", WorkloadKind::IndexKnn);
    t.shape = InputShape {
        x_len: 150,
        y_len: 150,
        k: 5,
        policy: "fc,fw 20%".into(),
        kernel: "standard".into(),
        engine: "wavefront".into(),
    };
    t.counters.windows = 12;
    t.counters.passes = 2;
    t.counters.skipped_excluded = 3;
    t.counters.cache_hits = 4;
    t.counters.cascade = CascadeStats {
        candidates: 40,
        pruned_kim: 16,
        pruned_paa: 4,
        pruned_keogh: 8,
        pruned_keogh_rev: 2,
        lb_inapplicable: 1,
        abandoned: 4,
        dp_completed: 6,
        cells_filled: 9000,
    };
    t.descriptor_comparisons = 123;
    t.band_area = 12_000;
    t.full_grid = 135_000;
    t.wall = Duration::new(0, 875_000);
    t.spans = vec![
        SpanRecord {
            phase: TracePhase::LbKim,
            start: Duration::new(0, 1_000),
            duration: Duration::new(0, 40_000),
            count: 40,
            thread: 0,
        },
        SpanRecord {
            phase: TracePhase::DpFill,
            start: Duration::new(0, 60_000),
            duration: Duration::new(0, 700_000),
            count: 10,
            thread: 1,
        },
    ];
    t
}

#[test]
fn schema_version_is_ratcheted() {
    // bump TRACE_SCHEMA_VERSION only together with a regenerated fixture
    // (and a migration note in DESIGN.md §12)
    assert_eq!(
        TRACE_SCHEMA_VERSION, 2,
        "schema bumped: regenerate the fixture"
    );
}

#[test]
fn golden_trace_encodes_byte_for_byte() {
    let line = golden_trace().to_json_line();
    assert!(!line.contains('\n'));
    assert_eq!(
        format!("{line}\n"),
        FIXTURE,
        "wire encoding drifted; if intentional, regenerate \
         tests/fixtures/trace_v2.ndjson and bump TRACE_SCHEMA_VERSION"
    );
}

#[test]
fn golden_fixture_parses_back_identically() {
    let parsed = QueryTrace::from_json_line(FIXTURE.trim_end()).expect("fixture parses");
    assert_eq!(parsed, golden_trace());
    // and re-encoding the parsed trace is a fixed point
    assert_eq!(format!("{}\n", parsed.to_json_line()), FIXTURE);
}

#[test]
fn foreign_schema_versions_are_rejected() {
    let mut wrong = golden_trace();
    wrong.schema = TRACE_SCHEMA_VERSION + 1;
    let err = QueryTrace::from_json_line(&wrong.to_json_line()).unwrap_err();
    assert!(err.contains("schema"), "err was: {err}");
}
