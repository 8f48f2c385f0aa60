//! Serve exactness and concurrency: the resident two-level engine
//! (coarse entry screen + per-entry subsequence sweep) versus the
//! brute-force every-entry / every-window corpus oracle
//! (`sdtw_eval::corpus_brute_force`), plus the daemon's concurrency
//! contract.
//!
//! The acceptance bar is *bit-identical*: same `(entry, offset)` ids,
//! same distance bits, ties included, on three seeded corpora, for
//! k ∈ {1, 5}, with and without z-normalisation, under the symmetric1
//! and amerced kernels. Every entry is either pruned whole or swept, and
//! the floor an entry is pruned on is admissible: no window of the entry
//! scores below it.

use sdtw_suite::eval::{corpus_brute_force, subsequence_profile};
use sdtw_suite::prelude::*;
use sdtw_suite::stream::PreparedHaystack;
use std::sync::Arc;

/// Builds a corpus of `entries` series, each the concatenation of `rows`
/// dataset rows — long enough that a short query pattern has many
/// candidate windows per entry.
fn corpus_from(ds: &sdtw_suite::datasets::Dataset, entries: usize, rows: usize) -> Vec<TimeSeries> {
    (0..entries)
        .map(|e| {
            let mut v = Vec::new();
            for r in 0..rows {
                v.extend_from_slice(ds.series[1 + (e * rows + r) % (ds.series.len() - 1)].values());
            }
            TimeSeries::new(v).expect("concatenation of valid series is valid")
        })
        .collect()
}

/// A short query pattern cut from the dataset's first row.
fn pattern_from(ds: &sdtw_suite::datasets::Dataset, len: usize) -> TimeSeries {
    TimeSeries::new(ds.series[0].values()[..len].to_vec()).expect("prefix of a valid series")
}

/// Asserts that serve hits equal the corpus oracle's: same ids, same
/// distance bits, same order.
fn assert_hits_exact(hits: &[ServeHit], expected: &[sdtw_suite::eval::CorpusMatch], what: &str) {
    assert_eq!(hits.len(), expected.len(), "{what}: hit count");
    for (h, e) in hits.iter().zip(expected) {
        assert_eq!(
            (h.entry, h.offset),
            (e.entry, e.offset),
            "{what}: ids diverge"
        );
        assert_eq!(
            h.distance.to_bits(),
            e.distance.to_bits(),
            "{what}: distance bits diverge at entry {} offset {}",
            e.entry,
            e.offset,
        );
    }
}

/// Asserts serve == corpus oracle on one seeded corpus, under Sakoe and
/// the paper's sDTW bands (per-window extraction and band planning),
/// each with the symmetric1 and the amerced kernel, both normalisation
/// modes, k ∈ {1, 5}; checks that every answer accounts for each entry
/// once (pruned or swept) and that each entry's window floor is at most
/// every window distance of that entry.
fn assert_serve_exact(analog: UcrAnalog, seed: u64, entries: usize, rows: usize) {
    let ds = analog.generate(seed);
    let query = pattern_from(&ds, 40);
    let corpus = corpus_from(&ds, entries, rows);
    let amerced = |mut config: IndexConfig| {
        config.sdtw.dtw.kernel = KernelChoice::Amerced { penalty: 0.05 };
        config
    };
    let modes = [
        ("sakoe", IndexConfig::exact_banded(0.2)),
        ("sdtw", IndexConfig::sdtw_bands()),
        ("sakoe amerced", amerced(IndexConfig::exact_banded(0.2))),
        ("sdtw amerced", amerced(IndexConfig::sdtw_bands())),
    ];
    for ((mode, base), z_norm) in modes.iter().flat_map(|m| [(m, true), (m, false)]) {
        let config = IndexConfig {
            z_normalize: z_norm,
            ..base.clone()
        };
        let index = SdtwIndex::build(&corpus, config).unwrap();
        let engine = ServeEngine::new(index, ServeConfig::default()).unwrap();
        // the oracle sweeps exactly what the engine sweeps: the entry
        // series as stored in the snapshot (post any index-time
        // normalisation), under the same sDTW configuration
        let oracle_corpus: Vec<TimeSeries> = (0..engine.index().len())
            .map(|i| engine.index().entry_series(i).clone())
            .collect();
        let oracle_engine = SDtw::new(engine.stream_config().sdtw.clone()).unwrap();
        let exclusion = engine.stream_config().exclusion_for(query.len());
        // the oracle picks greedily, so its top-1 is the first of its top-5
        let top5 = corpus_brute_force(
            &oracle_engine,
            &query,
            &oracle_corpus,
            z_norm,
            5,
            exclusion,
            f64::INFINITY,
        )
        .unwrap();
        let mut scratch = DtwScratch::new();
        for k in [1usize, 5] {
            let what = format!("{analog:?} {mode} znorm={z_norm} k={k}");
            let req = ServeRequest::query(format!("{analog:?}-k{k}"), query.values().to_vec(), k);
            let (resp, _) = engine.answer_with_scratch(&req, &mut scratch);
            assert!(resp.ok, "{what}: {}", resp.error);
            assert_hits_exact(&resp.hits, &top5[..k.min(top5.len())], &what);
            // every corpus entry was screened exactly once
            assert_eq!(
                resp.entries_pruned + resp.entries_swept,
                engine.index().len() as u64,
                "{what}"
            );
        }
        // the floor an entry is pruned on is admissible: at or below
        // every window distance of the entry, so an entry whose floor
        // exceeds the running k-th distance holds no reportable window
        let matcher = SubseqMatcher::new(&query, engine.stream_config().clone()).unwrap();
        let mut haystack = PreparedHaystack::new(&matcher);
        for (e, series) in oracle_corpus.iter().enumerate() {
            haystack.load(series);
            let floor = haystack.floor();
            for (w, d) in subsequence_profile(&oracle_engine, &query, series, z_norm).unwrap() {
                assert!(
                    floor <= d,
                    "{analog:?} {mode} znorm={z_norm}: entry {e} floor {floor} above window {w} at {d}"
                );
            }
        }
    }
}

#[test]
fn serve_is_exact_versus_the_corpus_oracle_on_gun() {
    assert_serve_exact(UcrAnalog::Gun, 20120827, 5, 2);
}

#[test]
fn serve_is_exact_versus_the_corpus_oracle_on_trace() {
    assert_serve_exact(UcrAnalog::Trace, 42, 4, 2);
}

#[test]
fn serve_is_exact_versus_the_corpus_oracle_on_50words() {
    assert_serve_exact(UcrAnalog::Words50, 7, 4, 2);
}

/// More distinct patterns than the matcher cache holds, through one
/// engine under the paper's sDTW bands: the cache clears mid-run while
/// its matchers share the index's extractor, and every answer, including
/// re-asked patterns whose matchers were dropped, stays bit-identical to
/// the corpus oracle.
#[test]
fn serve_stays_exact_while_the_matcher_cache_churns() {
    const PATTERNS: usize = 260; // the cache holds 256
    const LEN: usize = 20;
    let ds = UcrAnalog::Gun.generate(31);
    let corpus: Vec<TimeSeries> = (0..2)
        .map(|e| TimeSeries::new(ds.series[1 + e].values()[40..72].to_vec()).unwrap())
        .collect();
    let index = SdtwIndex::build(&corpus, IndexConfig::sdtw_bands()).unwrap();
    let engine = ServeEngine::new(index, ServeConfig::default()).unwrap();
    let oracle_corpus: Vec<TimeSeries> = (0..engine.index().len())
        .map(|i| engine.index().entry_series(i).clone())
        .collect();
    let oracle_engine = SDtw::new(engine.stream_config().sdtw.clone()).unwrap();
    let z_norm = engine.stream_config().z_normalize;
    let exclusion = engine.stream_config().exclusion_for(LEN);
    // pattern p: a window of row 3 + p at offset 7p, cycling over rows
    let rows = ds.series.len() - 3;
    let patterns: Vec<Vec<f64>> = (0..PATTERNS)
        .map(|p| {
            let row = ds.series[3 + p % rows].values();
            let at = (7 * p) % (row.len() - LEN);
            row[at..at + LEN].to_vec()
        })
        .collect();
    let distinct: std::collections::HashSet<Vec<u64>> = patterns
        .iter()
        .map(|p| p.iter().map(|v| v.to_bits()).collect())
        .collect();
    assert_eq!(distinct.len(), PATTERNS, "patterns must be distinct");
    let mut scratch = DtwScratch::new();
    // the first patterns come back after the clear dropped their matchers
    for (i, p) in patterns.iter().chain(&patterns[..4]).enumerate() {
        let req = ServeRequest::query(format!("p{i}"), p.clone(), 2);
        let (resp, _) = engine.answer_with_scratch(&req, &mut scratch);
        let query = TimeSeries::new(p.clone()).unwrap();
        let expected = corpus_brute_force(
            &oracle_engine,
            &query,
            &oracle_corpus,
            z_norm,
            2,
            exclusion,
            f64::INFINITY,
        )
        .unwrap();
        assert!(resp.ok, "request {i}: {}", resp.error);
        assert_hits_exact(&resp.hits, &expected, &format!("request {i}"));
    }
}

#[test]
fn serve_respects_a_finite_tau_exactly() {
    let ds = UcrAnalog::Gun.generate(99);
    let query = pattern_from(&ds, 40);
    let corpus = corpus_from(&ds, 4, 2);
    let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap();
    let engine = ServeEngine::new(index, ServeConfig::default()).unwrap();
    let oracle_corpus: Vec<TimeSeries> = (0..engine.index().len())
        .map(|i| engine.index().entry_series(i).clone())
        .collect();
    let oracle_engine = SDtw::new(engine.stream_config().sdtw.clone()).unwrap();
    let exclusion = engine.stream_config().exclusion_for(query.len());

    // pick a tau that cuts the unbounded top-5 roughly in half, then
    // re-ask with it — inclusive semantics, bit-identical survivors
    let mut scratch = DtwScratch::new();
    let mut req = ServeRequest::query("tau-probe", query.values().to_vec(), 5);
    let (unbounded, _) = engine.answer_with_scratch(&req, &mut scratch);
    assert!(unbounded.ok, "{}", unbounded.error);
    assert!(unbounded.hits.len() >= 2, "need hits to threshold against");
    let tau = unbounded.hits[unbounded.hits.len() / 2].distance;
    req.tau = Some(tau);
    req.id = "tau-cut".into();
    let (cut, _) = engine.answer_with_scratch(&req, &mut scratch);
    assert!(cut.ok, "{}", cut.error);
    let expected = corpus_brute_force(
        &oracle_engine,
        &query,
        &oracle_corpus,
        false,
        5,
        exclusion,
        tau,
    )
    .unwrap();
    assert_eq!(cut.hits.len(), expected.len());
    assert!(
        cut.hits
            .iter()
            .any(|h| h.distance.to_bits() == tau.to_bits()),
        "tau is inclusive: the boundary hit must survive"
    );
    for (h, e) in cut.hits.iter().zip(&expected) {
        assert_eq!((h.entry, h.offset), (e.entry, e.offset));
        assert_eq!(h.distance.to_bits(), e.distance.to_bits());
    }
}

/// Satellite: N threads issuing interleaved requests against one daemon
/// get bit-identical answers to answering the same requests serially,
/// and the merged per-request traces are invariant to how many clients
/// carried them.
#[test]
fn concurrent_daemon_answers_match_serial_and_traces_merge_invariantly() {
    const CLIENTS: usize = 8;
    let ds = UcrAnalog::Gun.generate(5);
    let corpus = corpus_from(&ds, 5, 2);
    let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap();
    let engine = Arc::new(
        ServeEngine::new(
            index,
            ServeConfig {
                trace: true,
                ..ServeConfig::default()
            },
        )
        .unwrap(),
    );

    // CLIENTS distinct query patterns (different rows and lengths)
    let requests: Vec<ServeRequest> = (0..CLIENTS)
        .map(|i| {
            let row = &ds.series[10 + i];
            let len = 32 + 4 * i;
            ServeRequest::query(format!("c{i}"), row.values()[..len].to_vec(), 3)
        })
        .collect();

    // serial reference: one worker, one scratch, requests in order
    let mut serial = Vec::new();
    let mut serial_traces = Vec::new();
    let mut scratch = DtwScratch::new();
    for req in &requests {
        let (resp, trace) = engine.answer_with_scratch(req, &mut scratch);
        assert!(resp.ok, "{}", resp.error);
        serial.push(resp);
        serial_traces.push(trace.expect("tracing is on"));
    }

    // concurrent: a daemon socket, one thread per client, all in flight
    // at once behind a barrier
    let dir = std::env::temp_dir().join(format!("sdtw-serve-conc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("daemon.sock");
    let server = sdtw_suite::serve::SocketServer::bind(&sock).unwrap();
    let daemon = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || server.serve(engine))
    };
    let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
    let workers: Vec<_> = requests
        .iter()
        .map(|req| {
            let req = req.clone();
            let sock = sock.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                sdtw_suite::serve::client_roundtrip(&sock, std::slice::from_ref(&req))
                    .unwrap()
                    .remove(0)
            })
        })
        .collect();
    let mut concurrent: Vec<ServeResponse> =
        workers.into_iter().map(|w| w.join().unwrap()).collect();
    let ack =
        sdtw_suite::serve::client_roundtrip(&sock, &[ServeRequest::shutdown("stop")]).unwrap();
    assert!(ack[0].ok);
    let daemon_trace_lines = daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    // bit-identical answers, matched up by request id
    concurrent.sort_by(|a, b| a.id.cmp(&b.id));
    assert_eq!(concurrent.len(), serial.len());
    for (c, s) in concurrent.iter().zip(&serial) {
        assert_eq!(c.id, s.id);
        assert!(c.ok, "{}", c.error);
        assert_eq!(c.entries_pruned, s.entries_pruned);
        assert_eq!(c.entries_swept, s.entries_swept);
        assert_eq!(c.hits.len(), s.hits.len());
        for (ch, sh) in c.hits.iter().zip(&s.hits) {
            assert_eq!((ch.entry, ch.offset), (sh.entry, sh.offset));
            assert_eq!(ch.distance.to_bits(), sh.distance.to_bits());
        }
    }

    // merged traces are request-count / interleaving invariant: folding
    // the daemon's per-request traces gives the same canonical counters
    // as folding the serial run's (spans and wall times differ, the
    // counter algebra must not)
    let report = TraceReport::from_ndjson(&daemon_trace_lines.join("\n")).unwrap();
    assert_eq!(report.len(), CLIENTS, "one trace per request");
    let mut concurrent_merged = QueryTrace::new("merged", WorkloadKind::ServePattern);
    for t in report.traces() {
        assert_eq!(t.workload, WorkloadKind::ServePattern);
        assert!(t.counters.cascade.is_consistent(), "request {}", t.query_id);
        concurrent_merged.merge(t);
    }
    let mut serial_merged = QueryTrace::new("merged", WorkloadKind::ServePattern);
    for t in &serial_traces {
        serial_merged.merge(t);
    }
    assert_eq!(concurrent_merged.counters, serial_merged.counters);
    assert_eq!(concurrent_merged.band_area, serial_merged.band_area);
    assert_eq!(concurrent_merged.full_grid, serial_merged.full_grid);
    assert_eq!(
        concurrent_merged.descriptor_comparisons,
        serial_merged.descriptor_comparisons
    );
}

/// Shard counts {1, 0, 3}, traced and untraced, agree bit for bit through
/// the whole serve path: all six runs report the same hits and entry
/// accounting, and the traces count the same window visits for every
/// shard count (a visit is a cascade entry or a cache hit; shard-local
/// thresholds may shift it between the two, never drop it).
#[test]
fn serve_results_are_shard_invariant() {
    let ds = UcrAnalog::Trace.generate(3);
    let corpus = corpus_from(&ds, 4, 2);
    let query = pattern_from(&ds, 36);
    let mut answers = Vec::new();
    let mut visits = Vec::new();
    let mut scratch = DtwScratch::new();
    for shards in [1usize, 0, 3] {
        let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap();
        let engine = ServeEngine::new(
            index,
            ServeConfig {
                shards,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        for traced in [false, true] {
            let ctx = format!("shards={shards} traced={traced}");
            let mut req = ServeRequest::query("shards", query.values().to_vec(), 5);
            req.trace = traced;
            let (resp, trace) = engine.answer_with_scratch(&req, &mut scratch);
            assert!(resp.ok, "{ctx}: {}", resp.error);
            assert_eq!(trace.is_some(), traced, "{ctx}");
            if let Some(t) = trace {
                // a fixed band is never planned from descriptors
                assert_eq!(t.descriptor_comparisons, 0, "{ctx}");
                let c = t.counters;
                let visited = c.cascade.candidates + c.cache_hits;
                visits.push((
                    ctx.clone(),
                    (c.windows, c.passes, c.skipped_excluded, visited),
                ));
            }
            let hits: Vec<(usize, usize, u64)> = resp
                .hits
                .iter()
                .map(|h| (h.entry, h.offset, h.distance.to_bits()))
                .collect();
            answers.push((ctx, (hits, resp.entries_pruned, resp.entries_swept)));
        }
    }
    for (ctx, answer) in &answers {
        assert_eq!(answer, &answers[0].1, "{ctx} diverged");
    }
    assert_eq!(visits.len(), 3);
    for (ctx, counted) in &visits {
        assert_eq!(counted, &visits[0].1, "{ctx}: trace visits");
    }
}

/// Adaptive sweeps decide screened windows best-first by their full-grid
/// floor, so a request needs about one completed banded DP per greedy
/// pass. Over 5 raw Gun entries under the paper's sDTW bands (the shape
/// of the `serve_sdtw` benchmark workload) and 24 patterns of 48–96
/// samples at k = 5, traced answers equal untraced ones, the traces
/// count the descriptor comparisons of the windows' band plans, and the
/// traced requests complete at most half the DPs that deciding in offset
/// order did: 3,592 summed over the 24 requests, against 773 best-first.
#[test]
fn best_first_adaptive_sweeps_complete_few_dps() {
    const PATTERNS: usize = 24;
    const OFFSET_ORDER_DPS: u64 = 3_592;
    let ds = UcrAnalog::Gun.generate(2012);
    let index = SdtwIndex::build(&ds.series[..5], IndexConfig::sdtw_bands()).unwrap();
    let engine = ServeEngine::new(index, ServeConfig::default()).unwrap();
    let mut scratch = DtwScratch::new();
    let (mut completed, mut comparisons) = (0, 0);
    for p in 0..PATTERNS {
        let len = 48 + p * (96 - 48 + 1) / PATTERNS;
        let row = ds.series[5 + p].values();
        let at = (37 * p) % (row.len() - len + 1);
        let mut req = ServeRequest::query(format!("p{p}"), row[at..at + len].to_vec(), 5);
        let (plain, none) = engine.answer_with_scratch(&req, &mut scratch);
        assert!(plain.ok && none.is_none(), "{}", plain.error);
        req.trace = true;
        let (traced, trace) = engine.answer_with_scratch(&req, &mut scratch);
        assert_eq!(traced, plain, "pattern {p}: tracing moved the answer");
        let trace = trace.expect("the request asked for a trace");
        let counters = trace.counters;
        assert!(counters.is_consistent(), "pattern {p}: {counters:?}");
        completed += counters.cascade.dp_completed;
        comparisons += trace.descriptor_comparisons;
    }
    assert!(comparisons > 0, "adaptive band plans compare descriptors");
    assert!(
        2 * completed <= OFFSET_ORDER_DPS,
        "{completed} completed DPs, against {OFFSET_ORDER_DPS} in offset order"
    );
}

/// A pattern of 59 × `1.7e308` and one `−1.7e308` against a raw Gun
/// index squares past `f64::MAX` in every window: the engine refuses it
/// once per request with an error naming the overflow, before any entry
/// is swept, instead of answering `+∞` hits; the pipe daemon answers it
/// `ok = false` and goes on to the next request.
#[test]
fn raw_patterns_too_large_for_the_metric_are_refused() {
    let ds = UcrAnalog::Gun.generate(7);
    let index = SdtwIndex::build(&ds.series[..10], IndexConfig::default()).unwrap();
    let engine = ServeEngine::new(index, ServeConfig::default()).unwrap();
    let mut near_max = vec![1.7e308; 59];
    near_max.push(-1.7e308);
    let huge = ServeRequest::query("near-max", near_max, 3);
    let (resp, _) = engine.answer_with_scratch(&huge, &mut DtwScratch::new());
    assert!(!resp.ok);
    assert!(
        resp.error.contains("too large for the squared metric"),
        "{}",
        resp.error
    );
    let valid = ServeRequest::query("after", pattern_from(&ds, 60).into_values(), 3);
    let input = format!("{}\n{}\n", huge.to_json_line(), valid.to_json_line());
    let mut out = Vec::new();
    sdtw_suite::serve::run_pipe(&engine, input.as_bytes(), &mut out, 2).unwrap();
    let resps: Vec<ServeResponse> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| ServeResponse::from_json_line(l).unwrap())
        .collect();
    assert_eq!(resps.len(), 2);
    assert_eq!(resps[0], resp);
    assert!(
        resps[1].ok && resps[1].hits.len() == 3,
        "{}",
        resps[1].error
    );
}
