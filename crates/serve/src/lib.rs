//! # sdtw-serve — the resident archive-scale pattern service
//!
//! The paper's salient-feature cascade is built for repeated queries
//! against large archives; this crate is the long-running process that
//! shape implies. A [`ServeEngine`] loads **one immutable corpus
//! snapshot** (a built [`SdtwIndex`](sdtw_index::SdtwIndex)) at startup,
//! shares it behind an `Arc`, and answers many concurrent pattern
//! requests, each through a **two-level cascade**:
//!
//! 1. **Level 1 — coarse entry screen.** The index's stage-1 kNN pass
//!    ([`SdtwIndex::coarse_screen`](sdtw_index::SdtwIndex::coarse_screen))
//!    ranks every corpus entry by its whole-recording LB_Kim bound
//!    (bucketed ascending, O(1) per entry), deciding the *visit order*.
//!    Pruning is decided by an admissible per-entry *floor*: the minimum
//!    rolling LB_Kim bound over the entry's windows, from one bound pass
//!    per entry
//!    ([`PreparedHaystack::floor`](sdtw_stream::PreparedHaystack::floor)).
//!    An entry whose floor strictly exceeds the running k-th best hit
//!    cannot contain a reportable match and is skipped whole.
//! 2. **Level 2 — subsequence localisation.** Each surviving entry is
//!    swept by one `sdtw_stream` search (the worker's reused scratch,
//!    and the configured shard count) from the same prepared bounds,
//!    seeded with the running threshold;
//!    per-entry hits merge into the global top-k by ascending
//!    `(distance, entry, offset)`.
//!
//! Results are **exact**: identical ids and bit-identical distances
//! (ties included) to the brute-force every-entry / every-window oracle
//! (`sdtw_eval::corpus_brute_force`) — the per-entry floors are
//! admissible, the sweeps are exact, and the threshold only ever
//! tightens (see DESIGN.md §13 for the argument).
//!
//! The wire protocol is line-delimited JSON ([`protocol`]) over a Unix
//! socket or a stdin/stdout pipe ([`daemon`]); per-request telemetry is
//! one canonical [`QueryTrace`](sdtw_obs::QueryTrace) per request
//! (`WorkloadKind::ServePattern`), folding both levels through the
//! existing merge algebra — no parallel trace structs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod engine;
pub mod protocol;

pub use daemon::{client_roundtrip, run_pipe, SocketServer, MAX_REQUEST_LINE_BYTES};
pub use engine::{ServeConfig, ServeEngine};
pub use protocol::{RequestOp, ServeHit, ServeRequest, ServeResponse};
