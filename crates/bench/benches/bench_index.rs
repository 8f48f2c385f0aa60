//! Index-vs-linear-scan retrieval benchmark: the cascading kNN index
//! against brute-forcing the same engine over the corpus
//! (`compute_query_matrix`), on the 200-series corpus also used by the
//! `distmat_200x200` baseline. Tracked in `BENCH_index.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use sdtw::{FeatureStore, SDtw};
use sdtw_eval::compute_query_matrix;
use sdtw_index::{IndexConfig, SdtwIndex, SnapshotCodec, SnapshotFormat};
use sdtw_serve::{ServeConfig, ServeEngine, ServeRequest};
use sdtw_tseries::TimeSeries;
use std::hint::black_box;

/// Same corpus shape as `bench_dtw::distmat_corpus` (200 series, length
/// 48), so the two baselines are comparable.
fn corpus() -> Vec<TimeSeries> {
    (0..200usize)
        .map(|k| {
            TimeSeries::new(
                (0..48)
                    .map(|i| {
                        let t = i as f64;
                        ((t + k as f64) / 7.0).sin()
                            + 0.4 * ((t * (1.0 + k as f64 * 0.003)) / 17.0).cos()
                    })
                    .collect(),
            )
            .unwrap()
            .identified(k as u64)
        })
        .collect()
}

fn bench_index_vs_scan(c: &mut Criterion) {
    let corpus = corpus();
    let queries: Vec<TimeSeries> = corpus.iter().take(20).cloned().collect();
    let config = IndexConfig::exact_banded(0.2);
    let engine = SDtw::new(config.sdtw.clone()).unwrap();
    let store = FeatureStore::new(config.sdtw.salient.clone()).unwrap();
    let index = SdtwIndex::build(&corpus, config.clone()).unwrap();

    let mut group = c.benchmark_group("knn20q_200c");
    group.bench_function("linear_scan", |b| {
        b.iter(|| {
            let qm = compute_query_matrix(&queries, &corpus, &engine, &store, false).unwrap();
            let hits: usize = (0..queries.len()).map(|q| qm.top_k(q, 5).len()).sum();
            black_box(hits)
        })
    });
    group.bench_function("index_cascade", |b| {
        b.iter(|| {
            let results = index.batch_query(&queries, 5, false).unwrap();
            black_box(results.len())
        })
    });
    group.bench_function("index_cascade_parallel", |b| {
        b.iter(|| {
            let results = index.batch_query(&queries, 5, true).unwrap();
            black_box(results.len())
        })
    });
    group.finish();

    c.bench_function("index_build_200c", |b| {
        b.iter(|| black_box(SdtwIndex::build(&corpus, config.clone()).unwrap().len()))
    });
}

/// Snapshot load paths on the 200-series corpus: a cold decode of the
/// binary snapshot (which rebuilds the derived data from the stored
/// series), and the resident serve engine answering a request with no
/// load at all (the asymptote loading converges to). The group name
/// carries the core count, like `simd_lanes_<N>core`.
fn bench_snapshot_load(c: &mut Criterion) {
    let corpus = corpus();
    let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap();
    let bin = SnapshotCodec::encode(&index, SnapshotFormat::BinaryV2).unwrap();

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let group_name = format!("snapshot_load_{cores}core");
    let mut group = c.benchmark_group(&group_name);
    group.bench_function("cold_binary", |b| {
        b.iter(|| black_box(SnapshotCodec::decode(&bin).unwrap().len()))
    });
    let engine =
        ServeEngine::new(SnapshotCodec::decode(&bin).unwrap(), ServeConfig::default()).unwrap();
    let pattern: Vec<f64> = corpus[0].values().to_vec();
    group.bench_function("serve_warm_engine", |b| {
        b.iter(|| {
            let (resp, _) = engine.answer(&ServeRequest::query("warm", pattern.clone(), 3));
            black_box(resp.hits.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_index_vs_scan, bench_snapshot_load);
criterion_main!(benches);
