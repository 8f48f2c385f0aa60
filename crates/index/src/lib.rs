//! # sdtw-index — corpus kNN with a cascading lower-bound pruning pipeline
//!
//! The paper cuts per-pair DTW cost by constraining the grid; this crate
//! cuts *corpus* retrieval cost by not running the grid at all for most
//! candidates. A [`SdtwIndex`] is built once over a corpus and answers
//! top-k queries through the classic UCR-suite-style cascade, cheapest
//! bound first, visiting candidates in ascending lower-bound order:
//!
//! | stage | cost | prunes a candidate when |
//! |---|---|---|
//! | LB_Kim | O(1) | endpoint/extremum bound > k-th best |
//! | coarse PAA | O(n/w) | query PAA vs precomputed coarse envelope > k-th best |
//! | LB_Keogh | O(n) | query vs precomputed entry envelope > k-th best |
//! | band-exact reversed LB_Keogh | O(n + m) | entry vs the query's range over each column's band rows > k-th best |
//! | early-abandoned banded DP | ≤ O(band) | a completed DP row's minimum > k-th best |
//!
//! Every bound is admissible for the band actually used (see
//! `DESIGN.md` §7), so results are **exact** — identical ids and
//! bit-identical distances to brute-forcing the same [`sdtw::SDtw`]
//! engine, in both exact-banded-DTW and adaptive sDTW-band modes. The
//! PAA and LB_Keogh stages apply to equal lengths and bands inside the
//! envelope window; the reversed stage applies to every planned band
//! and every pair of lengths. Build-time artefacts per entry: optional
//! z-normalisation, the LB_Kim
//! [`SeriesSummary`](sdtw_dtw::SeriesSummary), the LB_Keogh
//! [`Envelope`](sdtw_dtw::Envelope), and cached salient descriptors so
//! the sDTW band planner never re-extracts (paper §3.4). Each query
//! builds one [`RangeTable`](sdtw_dtw::RangeTable) over itself for the
//! reversed stage. A query runs on a DP scratch its caller lends
//! ([`SdtwIndex::query_with_scratch`]), so a worker answering many
//! queries reuses one; [`SdtwIndex::query_traced`] also records the
//! query's trace.
//!
//! The whole index round-trips through [`SnapshotCodec`]. A snapshot
//! (binary, format version 3) stores the configuration and the stored
//! series only; loading derives every other artefact through the same
//! code [`SdtwIndex::build`] runs, so a loaded index equals the built
//! one bit for bit. Older snapshots (version 2, JSON trees) are refused
//! with a hint to rebuild them with `sdtw index build`.
//!
//! # Example
//!
//! ```
//! use sdtw::DtwScratch;
//! use sdtw_index::{IndexConfig, SdtwIndex};
//! use sdtw_tseries::TimeSeries;
//!
//! let corpus: Vec<TimeSeries> = (0..12)
//!     .map(|k| {
//!         TimeSeries::new(
//!             (0..64)
//!                 .map(|i| ((i + 5 * k) as f64 / 6.0).sin())
//!                 .collect(),
//!         )
//!         .unwrap()
//!     })
//!     .collect();
//! let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap();
//! let mut scratch = DtwScratch::new();
//! let result = index.query_with_scratch(&corpus[3], 2, &mut scratch).unwrap();
//! assert_eq!(result.neighbors[0].index, 3); // a member is its own 1-NN
//! assert_eq!(result.neighbors[0].distance, 0.0);
//! assert!(result.stats.is_consistent());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod index;
pub mod knn;
pub mod snapshot;

pub use config::{IndexConfig, DEFAULT_PAA_WIDTH};
pub use index::{EntryBound, IndexEntry, QueryResult, SdtwIndex};
pub use knn::Neighbor;
pub use sdtw_obs::CascadeStats;
pub use snapshot::{SnapshotCodec, SnapshotFormat};
