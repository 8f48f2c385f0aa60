//! # sdtw-suite — one-stop facade over the sDTW reproduction workspace
//!
//! Re-exports the public APIs of every crate in the workspace so examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`tseries`] — time-series substrate (types, metrics, transforms, I/O);
//! * [`scalespace`] — 1D Gaussian scale space and DoG pyramids;
//! * [`salient`] — SIFT-like salient feature extraction;
//! * [`align`] — feature matching and inconsistency pruning;
//! * [`dtw`] — DTW engine, bands, baselines;
//! * [`obs`] — the canonical query-trace telemetry spine
//!   ([`obs::QueryTrace`], [`obs::Recorder`], [`obs::TraceReport`]);
//! * [`core`] — the sDTW engine itself ([`core::SDtw`]);
//! * [`datasets`] — synthetic UCR-analogue corpora;
//! * [`eval`] — evaluation harness and metrics;
//! * [`index`] — prebuilt corpus kNN index with the cascading
//!   lower-bound pruning pipeline ([`index::SdtwIndex`]);
//! * [`stream`] — z-normalised subsequence search over long series and
//!   live streams ([`stream::SubseqMatcher`], [`stream::MonitorBank`]);
//! * [`serve`] — the resident archive-scale pattern service composing
//!   index and stream behind an NDJSON protocol ([`serve::ServeEngine`]).
//!
//! See the repository `README.md` for the quickstart and `DESIGN.md` for
//! the system inventory and experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sdtw_align as align;
pub use sdtw_datasets as datasets;
pub use sdtw_dtw as dtw;
pub use sdtw_eval as eval;
pub use sdtw_index as index;
pub use sdtw_obs as obs;
pub use sdtw_salient as salient;
pub use sdtw_scalespace as scalespace;
pub use sdtw_serve as serve;
pub use sdtw_stream as stream;
pub use sdtw_tseries as tseries;

/// The core sDTW crate (named `core` here to mirror the workspace layout;
/// the package name is `sdtw`).
pub use sdtw as core;

/// Most-used types, one import away.
///
/// This is the blessed public surface: distance computation flows through
/// the [`core::SDtw::query`] builder ([`core::query::Query`]), and raw
/// banded DTW through [`dtw::engine::dtw_run`] /
/// [`dtw::engine::dtw_run_options`] over sample slices.
/// `tests/api_surface.rs` snapshots the item list below — extend it
/// consciously.
pub mod prelude {
    pub use sdtw::{
        BandSymmetry, ConstraintPolicy, DtwScratch, FeatureStore, MatchConfig, Query, SDtw,
        SDtwConfig, SDtwOutcome, SalientConfig,
    };
    pub use sdtw_datasets::{Dataset, UcrAnalog};
    pub use sdtw_dtw::engine::{dtw_full, dtw_run, dtw_run_options, DtwOptions};
    pub use sdtw_dtw::kernel::{AmercedKernel, DtwKernel, KernelChoice, StandardKernel};
    pub use sdtw_dtw::lower_bound::{
        lb_keogh, lb_keogh_batch, lb_keogh_batch_windows, lb_kim, lb_kim_batch, Envelope,
        SeriesSummary, LB_LANES,
    };
    pub use sdtw_dtw::simd::{F64Lanes, LANE_WIDTH};
    pub use sdtw_dtw::{Band, WarpPath};
    pub use sdtw_eval::{
        compute_matrix, compute_query_matrix, evaluate_policies, DistanceMatrix, EvalOptions,
        PolicyEval, QueryMatrix,
    };
    pub use sdtw_index::{
        CascadeStats, IndexConfig, Neighbor, SdtwIndex, SnapshotCodec, SnapshotFormat,
    };
    pub use sdtw_obs::{
        QueryTrace, Recorder, SpanRecord, TracePhase, TraceReport, WorkloadKind,
        TRACE_SCHEMA_VERSION,
    };
    pub use sdtw_serve::{ServeConfig, ServeEngine, ServeHit, ServeRequest, ServeResponse};
    pub use sdtw_stream::{
        MonitorBank, StreamConfig, StreamStats, SubseqMatch, SubseqMatcher, SubseqResult,
    };
    pub use sdtw_tseries::stats::WindowedStats;
    pub use sdtw_tseries::{ElementMetric, TimeSeries, TsError, WarpMap};
}
