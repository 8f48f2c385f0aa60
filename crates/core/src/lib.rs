//! # sdtw — salient-feature-constrained dynamic time warping
//!
//! Reproduction of the core contribution of *"sDTW: Computing DTW Distances
//! using Locally Relevant Constraints based on Salient Feature Alignments"*
//! (Candan, Rossini, Sapino, Wang; PVLDB 5(11), 2012).
//!
//! The idea: the two series being compared usually carry enough structural
//! evidence — salient temporal features — to *locally* shape the DTW search
//! band, instead of using one global band (Sakoe-Chiba) or slope rule
//! (Itakura). The pipeline is
//!
//! 1. extract salient features per series (`sdtw-salient`; cacheable, see
//!    [`store::FeatureStore`]),
//! 2. match features across the pair and prune temporally inconsistent
//!    matches (`sdtw-align`), yielding an aligned interval partition,
//! 3. compile a [`sdtw_dtw::Band`] from the partition under one of the
//!    paper's constraint families ([`policy::ConstraintPolicy`]):
//!    *fixed core & adaptive width*, *adaptive core & fixed width*,
//!    *adaptive core & adaptive width* (with optional neighbour-averaged
//!    widths), next to the classic baselines (full grid, Sakoe-Chiba,
//!    Itakura),
//! 4. run the shared banded DP kernel (`sdtw-dtw`) inside that band.
//!
//! The front-end type is [`SDtw`]; per-call outcomes ([`SDtwOutcome`])
//! expose distance, optional warp path, band geometry and matching
//! statistics, and a recorder attached with [`Query::recorder`] times the
//! extraction, planning and DP phases as trace spans — everything the
//! paper's evaluation (and this repository's experiment harness) reports.
//!
//! # Quickstart
//!
//! ```
//! use sdtw_tseries::{TimeSeries, WarpMap};
//! use sdtw::{SDtw, SDtwConfig, ConstraintPolicy};
//!
//! // two warped instances of a shared pattern
//! let proto = TimeSeries::new((0..240).map(|i| {
//!     let a = (i as f64 - 60.0) / 9.0;
//!     let b = (i as f64 - 170.0) / 15.0;
//!     (-a * a / 2.0).exp() + 0.6 * (-b * b / 2.0).exp()
//! }).collect()).unwrap();
//! let x = proto.clone();
//! let y = WarpMap::from_anchors(&[(0.5, 0.38)]).unwrap().apply(&proto, 240).unwrap();
//!
//! let engine = SDtw::new(SDtwConfig {
//!     policy: ConstraintPolicy::adaptive_core_adaptive_width(),
//!     ..SDtwConfig::default()
//! }).unwrap();
//! let out = engine.query(&x, &y).run().unwrap();
//! assert!(out.distance.is_finite());
//! assert!(out.band_coverage < 1.0); // pruned a real fraction of the grid
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraint;
pub mod engine;
pub mod policy;
pub mod query;
pub mod store;

pub use engine::{SDtw, SDtwConfig, SDtwOutcome};
pub use policy::{BandSymmetry, ConstraintPolicy};
pub use query::Query;
pub use store::FeatureStore;

// Re-export the commonly needed config and input types, and the name
// traces give the DP fill, so `sdtw` is usable alone.
pub use sdtw_align::{MatchConfig, PreparedFeatures};
pub use sdtw_dtw::engine::engine_label;
pub use sdtw_dtw::{
    AmercedKernel, Band, DtwKernel, DtwOptions, DtwScratch, F64Lanes, KernelChoice, StandardKernel,
    WarpPath,
};
pub use sdtw_salient::SalientConfig;
