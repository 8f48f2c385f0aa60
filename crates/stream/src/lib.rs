//! # sdtw-stream — subsequence search over long series and live streams
//!
//! The highest-traffic DTW workload in practice is not whole-series kNN
//! but *subsequence* matching: finding where a short query pattern occurs
//! inside a long recording or a continuously arriving stream. This crate
//! is the UCR-suite-style engine for that workload, built from the
//! ingredients the rest of the workspace already provides — envelopes and
//! LB_Kim summaries (`sdtw_dtw::lower_bound`), the shared pruning
//! pipeline and its accounting (`sdtw_dtw::cascade`), the zero-copy
//! `SDtw::query_window` builder path, and the O(1) incremental window
//! statistics (`sdtw_tseries::stats::WindowedStats`).
//!
//! A [`SubseqMatcher`] prepares a query once (z-normalisation, envelope,
//! LB_Kim summary, cached salient descriptors, shared band) and then
//! searches either way:
//!
//! * **batch** — [`SubseqMatcher::find`] slides over a whole series,
//!   running up to `k` pruned greedy sweeps that share one record per
//!   window — its completed distance, or its planned band and a floor
//!   under its distance — so no window is extracted or planned twice
//!   (exact top-k non-overlapping matches, ties included, against the
//!   brute-force every-window oracle in `sdtw_eval`); every window's
//!   rolling LB_Kim bound comes from one pass over the series, which a
//!   caller that needs the bounds twice prepares once
//!   ([`PreparedHaystack`]);
//! * **batch, sharded** — [`SubseqMatcher::find_k_parallel`] splits one
//!   long haystack into per-worker window shards (each reading its
//!   sample range plus an `m − 1` halo) and merges per-pass winners and
//!   [`StreamStats`] across the rayon pool, bit-identical to the serial
//!   scan for every shard count;
//! * **streaming** — a [`StreamMonitor`] accepts samples pushed one at a
//!   time into a query-sized ring buffer, maintaining windowed
//!   mean/variance and extrema incrementally in O(1) per step and running
//!   the same cascade on each completed window;
//! * **streaming, multi-query** — a [`MonitorBank`] pays that ring
//!   buffer and those rolling statistics once per stream and fans every
//!   completed window across N per-query runtimes, each bit-identical
//!   to a standalone monitor.
//!
//! The per-window cascade (the shared `sdtw_dtw::cascade` pipeline) is:
//! rolling **LB_Kim** (O(1), conservatively guarded under per-window
//! z-normalisation) → **coarse PAA pre-filter** (segment means against
//! the PAA-compressed query envelope) → **LB_Keogh** against the query
//! envelope (on exactly-normalised samples) → **early-abandoned banded
//! DP** through the query builder. See `DESIGN.md` §9 for the
//! admissibility argument of the rolling bounds and §10 for the PAA
//! stage, the halo-window sharding proof, and the bank's exactness
//! regimes.
//!
//! # Example
//!
//! ```
//! use sdtw_stream::{StreamConfig, SubseqMatcher};
//! use sdtw_tseries::TimeSeries;
//!
//! // a bump-shaped query, planted twice in a longer series
//! let query = TimeSeries::new(
//!     (0..32).map(|i| (-((i as f64 / 31.0 - 0.5) / 0.15).powi(2)).exp()).collect(),
//! )
//! .unwrap();
//! let mut hay = vec![0.0; 240];
//! for start in [40usize, 150] {
//!     for i in 0..32 {
//!         hay[start + i] += 2.0 * query.at(i) + 1.0; // scaled and offset
//!     }
//! }
//! for (i, v) in hay.iter_mut().enumerate() {
//!     *v += 0.01 * (i as f64 / 5.0).sin();
//! }
//! let hay = TimeSeries::new(hay).unwrap();
//!
//! let matcher = SubseqMatcher::new(&query, StreamConfig::exact_banded(0.2)).unwrap();
//! let found = matcher.find(&hay, 2).unwrap();
//! assert_eq!(found.matches.len(), 2); // z-normalisation cancels gain/offset
//! assert!(found.stats.is_consistent());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod config;
pub mod matcher;
pub mod monitor;
pub mod rolling;
pub mod stats;

pub use bank::{BankEvent, BankQuery, MonitorBank};
pub use config::StreamConfig;
pub use matcher::{Haystack, PreparedHaystack, SubseqMatch, SubseqMatcher, SubseqResult};
pub use monitor::StreamMonitor;
pub use rolling::RollingExtrema;
pub use stats::StreamStats;
