//! # sdtw-dtw — DTW engine substrate
//!
//! The dynamic-time-warping machinery everything else drives (paper §2.1).
//! Design pivot: **every** grid-pruning policy — the full grid, the classic
//! Sakoe-Chiba band (*fixed core & fixed width*), the Itakura parallelogram,
//! and all of sDTW's locally relevant constraints — compiles down to a
//! [`band::Band`]: one allowed column interval per row of the `N × M` grid.
//! A single banded dynamic-programming kernel ([`engine`]) executes any
//! band, so accuracy/cost comparisons across policies measure the
//! constraint, never the implementation.
//!
//! Modules:
//!
//! * [`band`] — the band type, area accounting, union (for the symmetric
//!   variant of sDTW), and the **sanitiser** that makes an arbitrary raw
//!   band feasible for the DP recurrence (bridging the gaps the paper
//!   describes in §3.3.2) while only ever *adding* cells;
//! * [`engine`] — the banded DP (`O(band area)` time and memory): the lane
//!   wavefront, the row fill plus warp-path traceback when a path is
//!   requested, and the lock-step fill of up to eight windows that share
//!   one query and one band;
//! * [`path`] — warp-path representation and validity checking (the
//!   §2.1.1 conditions);
//! * [`sakoe`] — Sakoe-Chiba fixed core & fixed width bands;
//! * [`itakura`] — Itakura parallelogram (slope-constrained) bands;
//! * [`lower_bound`] — the LB_Kim constant-time bound (endpoint/extremum
//!   summaries), the LB_Keogh envelope bound and its band-exact reversed
//!   form over a range-min/max table (extensions; they power the
//!   `sdtw-index` retrieval cascade and the pruning ablations);
//! * [`cascade`] — the composable pruning pipeline built from those
//!   bounds: the [`cascade::PruneStage`] abstraction, the
//!   [`cascade::Cascade`] runner and the coarse PAA pre-filter
//!   ([`cascade::CoarseEnvelope`]) that `sdtw-index` (per corpus
//!   candidate) and `sdtw-stream` (per window) both execute, counting
//!   into `sdtw_obs::CascadeStats`;
//! * [`kernel`] — the [`kernel::DtwKernel`] trait (the cost of each
//!   transition) with the paper's symmetric1 kernel and the amerced
//!   (ADTW) kernel, plus the serialisable [`kernel::KernelChoice`]
//!   selector;
//! * [`simd`] — the portable explicit-SIMD lane layer: the aligned
//!   [`simd::F64Lanes`] vector type the wavefront fill and the batched
//!   bounds sweep with (bit-identical to scalar references by
//!   differential test).
//!
//! The execution surface is [`engine::dtw_run`] (generic over the
//! kernel) and [`engine::dtw_run_options`] (driven by serialisable
//! options), both over sample slices, plus [`engine::dtw_full`] and the
//! batch entry [`engine::dtw_run_windows`] (up to
//! [`simd::LANE_WIDTH`] windows against one shared series and band, one
//! window per lane — what fixed-band subsequence sweeps call).
//! (`sdtw_eval::compute_query_matrix` is the brute-force oracle the test
//! suites compare retrieval against.)
//!
//! # Example
//!
//! ```
//! use sdtw_tseries::TimeSeries;
//! use sdtw_dtw::engine::{dtw_full, dtw_run_options, DtwOptions, DtwScratch};
//! use sdtw_dtw::sakoe::sakoe_chiba_band;
//!
//! let x = TimeSeries::new(vec![0.0, 1.0, 2.0, 1.0, 0.0]).unwrap();
//! let y = TimeSeries::new(vec![0.0, 0.0, 1.0, 2.0, 1.0, 0.0]).unwrap();
//! let full = dtw_full(&x, &y, &DtwOptions::default());
//! let band = sakoe_chiba_band(x.len(), y.len(), 0.5);
//! let mut scratch = DtwScratch::new();
//! let opts = DtwOptions::default();
//! let banded = dtw_run_options(x.values(), y.values(), &band, &opts, None, &mut scratch)
//!     .expect("a run without a cutoff never abandons");
//! assert!(banded.distance >= full.distance); // constrained search can only do worse
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod band;
pub mod cascade;
pub mod engine;
pub mod itakura;
pub mod kernel;
pub mod lower_bound;
pub mod path;
pub mod sakoe;
pub mod simd;

pub use band::Band;
pub use cascade::{
    Cascade, CascadeScratch, CoarseEnvelope, PruneStage, SampleInput, StageKind, DEFAULT_PAA_WIDTH,
};
pub use engine::{dtw_full, dtw_run, dtw_run_options, DtwOptions, DtwResult, DtwScratch};
pub use kernel::{AmercedKernel, DtwKernel, KernelChoice, StandardKernel};
pub use lower_bound::{
    lb_keogh, lb_keogh_band, lb_keogh_batch, lb_keogh_batch_windows, lb_keogh_values, lb_kim,
    lb_kim_batch, Envelope, RangeTable, SeriesSummary, LB_LANES,
};
pub use path::WarpPath;
pub use simd::{F64Lanes, LaneMask, LANE_WIDTH};
