//! Public-API snapshot: the `sdtw_suite::prelude` item list is asserted
//! against an explicit snapshot, so the blessed surface only grows (or
//! shrinks) deliberately — the review diff must touch this file too.
//!
//! The motivation is the API collapse of the `DtwKernel`/`Query` redesign:
//! nine ad-hoc distance entry points became one builder, and this test is
//! the ratchet that keeps method families from creeping back in.

use sdtw_suite::prelude;

/// The blessed prelude surface, sorted. Update deliberately, in the same
/// change that updates `src/lib.rs` and the `DESIGN.md` §8 table.
const EXPECTED: &[&str] = &[
    "AmercedKernel",
    "Band",
    "BandSymmetry",
    "CascadeStats",
    "ConstraintPolicy",
    "Dataset",
    "DistanceMatrix",
    "DtwKernel",
    "DtwOptions",
    "DtwScratch",
    "ElementMetric",
    "Envelope",
    "EvalOptions",
    "F64Lanes",
    "FeatureStore",
    "IndexConfig",
    "KernelChoice",
    "LANE_WIDTH",
    "LB_LANES",
    "MatchConfig",
    "MonitorBank",
    "Neighbor",
    "PolicyEval",
    "Query",
    "QueryMatrix",
    "QueryTrace",
    "Recorder",
    "SDtw",
    "SDtwConfig",
    "SDtwOutcome",
    "SalientConfig",
    "SdtwIndex",
    "SeriesSummary",
    "ServeConfig",
    "ServeEngine",
    "ServeHit",
    "ServeRequest",
    "ServeResponse",
    "SnapshotCodec",
    "SnapshotFormat",
    "SpanRecord",
    "StandardKernel",
    "StreamConfig",
    "StreamStats",
    "SubseqMatch",
    "SubseqMatcher",
    "SubseqResult",
    "TRACE_SCHEMA_VERSION",
    "TimeSeries",
    "TracePhase",
    "TraceReport",
    "TsError",
    "UcrAnalog",
    "WarpMap",
    "WarpPath",
    "WindowedStats",
    "WorkloadKind",
    "compute_matrix",
    "compute_query_matrix",
    "dtw_full",
    "dtw_run",
    "dtw_run_options",
    "evaluate_policies",
    "lb_keogh",
    "lb_keogh_batch",
    "lb_keogh_batch_windows",
    "lb_kim",
    "lb_kim_batch",
];

/// Extracts the leaf item names re-exported by the `prelude` module in
/// `src/lib.rs` (the facade's source is part of the crate, so the
/// snapshot cannot drift from what actually ships).
fn prelude_items_from_source() -> Vec<String> {
    let src = include_str!("../src/lib.rs");
    let opener = "pub mod prelude {";
    let start = src.find(opener).expect("src/lib.rs defines the prelude");
    let block = &src[start + opener.len()..];
    let mut items = Vec::new();
    // join the block into statements and walk every `pub use ...;`
    let mut statement = String::new();
    for line in block.lines() {
        let line = line.trim();
        if line.starts_with("//") || line.starts_with("#[") {
            continue;
        }
        statement.push(' ');
        statement.push_str(line);
        if !line.ends_with(';') {
            continue;
        }
        let stmt = statement.trim().to_string();
        statement.clear();
        let Some(rest) = stmt.strip_prefix("pub use ") else {
            continue;
        };
        let rest = rest.trim_end_matches(';').trim();
        if let Some(brace) = rest.find('{') {
            let inner = rest[brace + 1..].trim_end_matches('}');
            for item in inner.split(',') {
                let item = item.trim();
                if !item.is_empty() {
                    items.push(item.to_string());
                }
            }
        } else {
            let leaf = rest.rsplit("::").next().unwrap_or(rest);
            items.push(leaf.to_string());
        }
    }
    items.sort();
    items
}

#[test]
fn prelude_surface_matches_the_snapshot() {
    let actual = prelude_items_from_source();
    let expected: Vec<String> = EXPECTED.iter().map(|s| s.to_string()).collect();
    assert!(
        !actual.is_empty(),
        "parser found no prelude re-exports — did src/lib.rs move?"
    );
    assert_eq!(
        actual, expected,
        "the prelude surface changed; if intentional, update the snapshot \
         in tests/api_surface.rs (and DESIGN.md §8)"
    );
}

#[test]
fn snapshot_items_actually_resolve() {
    // a compile-time cross-check that the snapshot names real items: touch
    // one representative item of every kind re-exported by the prelude
    fn assert_type<T>() {}
    assert_type::<prelude::SDtw>();
    assert_type::<prelude::Query<'static>>();
    assert_type::<prelude::KernelChoice>();
    assert_type::<prelude::AmercedKernel>();
    assert_type::<prelude::StandardKernel>();
    assert_type::<prelude::CascadeStats>();
    assert_type::<prelude::DistanceMatrix>();
    assert_type::<prelude::SdtwIndex>();
    assert_type::<prelude::SubseqMatcher>();
    assert_type::<prelude::MonitorBank>();
    assert_type::<prelude::StreamConfig>();
    assert_type::<prelude::WindowedStats>();
    assert_type::<prelude::ServeEngine>();
    assert_type::<prelude::ServeConfig>();
    assert_type::<prelude::ServeRequest>();
    assert_type::<prelude::ServeResponse>();
    assert_type::<prelude::ServeHit>();
    let _: fn(
        &prelude::TimeSeries,
        &prelude::TimeSeries,
        &prelude::DtwOptions,
    ) -> sdtw_suite::dtw::DtwResult = prelude::dtw_full;
    let _ = prelude::dtw_run_options;
    let _ = prelude::compute_matrix;
    let _ = prelude::compute_query_matrix;
    assert_type::<prelude::QueryTrace>();
    assert_type::<prelude::Recorder>();
    assert_type::<prelude::SpanRecord>();
    assert_type::<prelude::TracePhase>();
    assert_type::<prelude::TraceReport>();
    assert_type::<prelude::WorkloadKind>();
    let _: u32 = prelude::TRACE_SCHEMA_VERSION;
    let _ = prelude::lb_keogh_batch;
    let _ = prelude::lb_kim_batch;
    let _: usize = prelude::LB_LANES;
    assert_type::<prelude::F64Lanes>();
    let _: usize = prelude::LANE_WIDTH;
    // the DtwKernel trait is usable through the prelude
    fn _takes_kernel<K: prelude::DtwKernel>(_k: &K) {}
}
