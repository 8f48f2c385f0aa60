//! # sdtw-eval — evaluation harness
//!
//! Implements the paper's evaluation criteria (§4.2) and the machinery the
//! experiment regenerators (in `sdtw-bench`) drive:
//!
//! * [`distmat`] — pairwise distance matrices under any [`sdtw::SDtw`]
//!   engine, with aggregated work/time accounting; optionally parallel
//!   over rows (rayon) since corpora reach 450 series;
//! * [`retrieval`] — top-k retrieval accuracy `acc_ret(k)`: overlap
//!   between the top-k sets under optimal DTW and under the constrained
//!   distance;
//! * [`classify`] — k-NN classification accuracy `acc_cls(k)`: Jaccard
//!   overlap of the tied-majority label sets;
//! * [`error`] — relative distance error `err_dist` and its intra-class
//!   breakdown (Figure 15);
//! * [`gain`] — time gain `(time_DTW − time*) / time_DTW` and its
//!   deterministic work-proxy analogue on DP cell counts;
//! * [`experiment`] — the end-to-end policy evaluation used by every
//!   figure regenerator: one reference (full DTW) matrix + one matrix per
//!   policy → all metrics;
//! * [`subsequence`] — the brute-force every-window subsequence oracle
//!   (distance profile + greedy non-overlapping selection) that defines
//!   the semantics `sdtw-stream`'s pruned matcher must reproduce
//!   bit-for-bit.
//!
//! # Example
//!
//! ```
//! use sdtw::{ConstraintPolicy, SDtwConfig};
//! use sdtw_datasets::econ;
//! use sdtw_eval::{evaluate_policies, EvalOptions};
//!
//! let dataset = econ::generate(7, 3, 3); // 9 series, 3 groups
//! let opts = EvalOptions {
//!     ks: vec![2],
//!     parallel: false,
//!     ..EvalOptions::default()
//! };
//! let evals = evaluate_policies(
//!     &dataset,
//!     &[ConstraintPolicy::adaptive_core_adaptive_width_averaged()],
//!     &opts,
//! ).unwrap();
//! assert!(evals[0].work_gain > 0.0);        // pruning saved DP work
//! assert!(evals[0].distance_error >= 0.0);  // banded ≥ optimal
//! # let _ = SDtwConfig::default();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod distmat;
pub mod error;
pub mod experiment;
pub mod gain;
pub mod retrieval;
pub mod subsequence;

pub use distmat::{compute_matrix, compute_query_matrix, DistanceMatrix, QueryMatrix};
pub use experiment::{evaluate_policies, EvalOptions, PolicyEval};
pub use subsequence::{
    brute_force_matches, corpus_brute_force, select_matches, subsequence_profile, CorpusMatch,
};
