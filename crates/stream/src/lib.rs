//! # sdtw-stream — subsequence search over long series and live streams
//!
//! The highest-traffic DTW workload in practice is not whole-series kNN
//! but *subsequence* matching: finding where a short query pattern occurs
//! inside a long recording or a continuously arriving stream. This crate
//! is the UCR-suite-style engine for that workload, built from the
//! ingredients the rest of the workspace already provides — envelopes and
//! LB_Kim summaries (`sdtw_dtw::lower_bound`), the shared pruning
//! pipeline and its accounting (`sdtw_dtw::cascade`), the banded DP run
//! on borrowed windows (`sdtw_dtw::engine::dtw_run_options`), and the
//! O(1) incremental window statistics
//! (`sdtw_tseries::stats::WindowedStats`).
//!
//! A [`SubseqMatcher`] prepares a query once (z-normalisation, envelope,
//! LB_Kim summary, cached salient descriptors, shared band) and then
//! searches either way:
//!
//! * **batch** — [`SubseqMatcher::search`] returns a [`Search`] that
//!   slides over a whole series,
//!   running up to `k` pruned greedy sweeps that share one record per
//!   window — its completed distance, or its planned band and a floor
//!   under its distance — so no window is extracted or planned twice
//!   (exact top-k non-overlapping matches, ties included, against the
//!   brute-force every-window oracle in `sdtw_eval`); every window's
//!   rolling LB_Kim bound comes from one pass over the series, which a
//!   caller that needs the bounds twice prepares once
//!   ([`PreparedHaystack`]);
//! * **batch, sharded** — the same search with [`Search::shards`] splits
//!   one long haystack into window shards (each reading its sample range
//!   plus an `m − 1` halo), sweeps them across the rayon pool and merges
//!   per-pass winners and [`StreamStats`], bit-identical to the one-shard
//!   scan for every shard count; k, τ, shards, a lent DP scratch and a
//!   trace are options of one call, which returns the counters always
//!   and a `QueryTrace` when one was asked for;
//! * **streaming** — a [`MonitorBank`] of one query or many accepts
//!   samples pushed one at a time into a query-sized ring buffer,
//!   maintaining windowed mean/variance and extrema incrementally in O(1)
//!   per step — once per stream, however many queries watch it — and
//!   running each query's cascade on every completed window; a query's
//!   results are bit-identical whether it is monitored alone or beside
//!   others.
//!
//! The per-window cascade (the shared `sdtw_dtw::cascade` pipeline) is:
//! rolling **LB_Kim** (O(1), conservatively guarded under per-window
//! z-normalisation) → **coarse PAA pre-filter** (segment means against
//! the PAA-compressed query envelope) → **LB_Keogh** against the query
//! envelope (on exactly-normalised samples) → **early-abandoned banded
//! DP** (`dtw_run_options` on the borrowed window). See `DESIGN.md` §9
//! for the admissibility argument of the rolling bounds and §10 for the
//! PAA stage, the halo-window sharding proof, and the monitor's
//! exactness regimes.
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
//! let (found, trace) = matcher.search(&hay).k(2).run().unwrap();
//! assert_eq!(found.matches.len(), 2); // z-normalisation cancels gain/offset
//! assert!(found.stats.is_consistent());
//! assert!(trace.is_none(), "no trace was asked for");
//!
//! // three shards, traced: the same matches, and the counters in the trace
//! let (sharded, trace) = matcher.search(&hay).k(2).shards(3).trace("q0").run().unwrap();
//! assert_eq!(sharded.matches, found.matches);
//! assert_eq!(trace.unwrap().counters, sharded.stats);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod matcher;
pub mod monitor;
pub mod rolling;

pub use config::StreamConfig;
pub use matcher::{Haystack, PreparedHaystack, Search, SubseqMatch, SubseqMatcher, SubseqResult};
pub use monitor::{BankEvent, MonitorBank};
pub use rolling::RollingExtrema;
pub use sdtw_obs::StreamStats;
