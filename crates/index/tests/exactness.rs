//! Exactness of the cascade: the index must return identical ids and
//! bit-identical distances to the brute-force `compute_query_matrix`
//! oracle (and the deprecated `NnSearch` 1-NN oracle), on several seeded
//! datasets, for k ∈ {1, 5}, in both exact-banded-DTW and sDTW-band
//! modes, on equal-length corpora and on a corpus whose entries and
//! queries all differ in length.

use sdtw::{DtwScratch, FeatureStore, KernelChoice, SDtw};
use sdtw_datasets::{econ, UcrAnalog};
use sdtw_eval::compute_query_matrix;
use sdtw_index::{IndexConfig, SdtwIndex, SnapshotCodec, SnapshotFormat};
use sdtw_tseries::transform::z_normalize;
use sdtw_tseries::TimeSeries;

/// Three seeded corpora with held-out queries: (name, corpus, queries).
fn seeded_datasets() -> Vec<(&'static str, Vec<TimeSeries>, Vec<TimeSeries>)> {
    let gun = UcrAnalog::Gun.generate(11).series;
    let trace = UcrAnalog::Trace.generate(22).series;
    let eco = econ::generate(7, 3, 4).series;
    vec![
        // corpus members and held-out members both appear as queries
        (
            "gun",
            gun[..20].to_vec(),
            vec![gun[0].clone(), gun[3].clone(), gun[24].clone()],
        ),
        (
            "trace",
            trace[..14].to_vec(),
            vec![trace[1].clone(), trace[20].clone()],
        ),
        (
            "econ",
            eco[..10].to_vec(),
            vec![eco[2].clone(), eco[10].clone()],
        ),
    ]
}

/// Brute-force oracle ranking under the same engine configuration.
fn oracle_top_k(
    queries: &[TimeSeries],
    corpus: &[TimeSeries],
    config: &IndexConfig,
    k: usize,
) -> Vec<Vec<(usize, u64)>> {
    let engine = SDtw::new(config.sdtw.clone()).unwrap();
    let store = FeatureStore::new(config.sdtw.salient.clone()).unwrap();
    let qm = compute_query_matrix(queries, corpus, &engine, &store, false).unwrap();
    (0..queries.len())
        .map(|q| {
            qm.top_k(q, k)
                .into_iter()
                .map(|j| (j, qm.get(q, j).to_bits()))
                .collect()
        })
        .collect()
}

fn assert_matches_oracle(config: IndexConfig, label: &str) {
    for (name, corpus, queries) in seeded_datasets() {
        let index = SdtwIndex::build(&corpus, config.clone()).unwrap();
        let mut scratch = DtwScratch::new();
        for k in [1usize, 5] {
            let oracle = oracle_top_k(&queries, &corpus, &config, k);
            for (q, query) in queries.iter().enumerate() {
                let got = index.query_with_scratch(query, k, &mut scratch).unwrap();
                let got_pairs: Vec<(usize, u64)> = got
                    .neighbors
                    .iter()
                    .map(|n| (n.index, n.distance.to_bits()))
                    .collect();
                assert_eq!(
                    got_pairs, oracle[q],
                    "{label}/{name}: query {q} k={k} diverged from the oracle"
                );
                assert!(got.stats.is_consistent(), "{label}/{name}: stats leak");
            }
        }
    }
}

#[test]
fn exact_banded_mode_matches_the_oracle() {
    assert_matches_oracle(IndexConfig::exact_banded(0.2), "exact");
}

#[test]
fn sdtw_band_mode_matches_the_oracle() {
    assert_matches_oracle(IndexConfig::sdtw_bands(), "sdtw");
}

/// Gun rows cut to 100–150 samples for the corpus, and queries cut to
/// lengths no entry has: no (query, entry) pair has equal lengths, so of
/// the bounds only LB_Kim and the band-exact reversed LB_Keogh apply.
fn mixed_length_gun() -> (Vec<TimeSeries>, Vec<TimeSeries>) {
    let gun = UcrAnalog::Gun.generate(5).series;
    let cut = |s: &TimeSeries, len: usize| TimeSeries::new(s.values()[..len].to_vec()).unwrap();
    let corpus = (0..24)
        .map(|i| cut(&gun[i], 100 + 2 * ((i * 7) % 25)))
        .collect();
    let queries = [(2, 149), (9, 127), (30, 111), (41, 135), (47, 103)]
        .iter()
        .map(|&(i, len)| cut(&gun[i], len))
        .collect();
    (corpus, queries)
}

#[test]
fn mixed_length_corpora_match_the_oracle() {
    let (corpus, queries) = mixed_length_gun();
    for (label, config) in [
        ("sakoe", IndexConfig::exact_banded(0.2)),
        ("ac2aw", IndexConfig::sdtw_bands()),
    ] {
        let index = SdtwIndex::build(&corpus, config.clone()).unwrap();
        let mut scratch = DtwScratch::new();
        let mut pruned_keogh_rev = 0;
        for k in [1usize, 5] {
            let oracle = oracle_top_k(&queries, &corpus, &config, k);
            for (q, query) in queries.iter().enumerate() {
                let got = index.query_with_scratch(query, k, &mut scratch).unwrap();
                let got_pairs: Vec<(usize, u64)> = got
                    .neighbors
                    .iter()
                    .map(|n| (n.index, n.distance.to_bits()))
                    .collect();
                assert_eq!(
                    got_pairs, oracle[q],
                    "{label}: query {q} k={k} diverged from the oracle"
                );
                assert!(got.stats.is_consistent(), "{label}: stats leak");
                assert_eq!(
                    (got.stats.pruned_paa, got.stats.pruned_keogh),
                    (0, 0),
                    "{label}: an equal-length stage fired on unequal lengths"
                );
                pruned_keogh_rev += got.stats.pruned_keogh_rev;
            }
        }
        assert!(
            pruned_keogh_rev > 0,
            "{label}: the reversed bound never pruned"
        );
    }
}

#[test]
fn z_normalized_index_matches_the_oracle_on_normalized_data() {
    let (_, corpus, queries) = seeded_datasets().remove(0);
    let config = IndexConfig {
        z_normalize: true,
        ..IndexConfig::exact_banded(0.2)
    };
    // the oracle sees pre-normalised data; the index normalises internally
    let corpus_n: Vec<TimeSeries> = corpus.iter().map(z_normalize).collect();
    let queries_n: Vec<TimeSeries> = queries.iter().map(z_normalize).collect();
    let index = SdtwIndex::build(&corpus, config.clone()).unwrap();
    let oracle = oracle_top_k(&queries_n, &corpus_n, &config, 3);
    let mut scratch = DtwScratch::new();
    for (q, query) in queries.iter().enumerate() {
        let got = index.query_with_scratch(query, 3, &mut scratch).unwrap();
        let got_pairs: Vec<(usize, u64)> = got
            .neighbors
            .iter()
            .map(|n| (n.index, n.distance.to_bits()))
            .collect();
        assert_eq!(got_pairs, oracle[q], "z-norm query {q} diverged");
    }
}

#[test]
fn distance_ties_break_toward_the_lower_index_like_the_oracle() {
    // duplicated entries produce exact distance ties; the index must
    // resolve them by entry order, exactly as the oracle does
    let base: Vec<f64> = (0..60).map(|i| (i as f64 / 5.0).sin()).collect();
    let other: Vec<f64> = (0..60).map(|i| (i as f64 / 3.0).cos() * 2.0).collect();
    let corpus = vec![
        TimeSeries::new(other.clone()).unwrap(),
        TimeSeries::new(base.clone()).unwrap(),
        TimeSeries::new(other).unwrap(),
        TimeSeries::new(base.clone()).unwrap(),
        TimeSeries::new(base.clone()).unwrap(),
    ];
    let query = TimeSeries::new(base).unwrap();
    let config = IndexConfig::exact_banded(0.2);
    let index = SdtwIndex::build(&corpus, config.clone()).unwrap();
    let got = index
        .query_with_scratch(&query, 3, &mut DtwScratch::new())
        .unwrap();
    let idx: Vec<usize> = got.neighbors.iter().map(|n| n.index).collect();
    assert_eq!(
        idx,
        vec![1, 3, 4],
        "zero-distance ties must keep entry order"
    );
    let oracle = oracle_top_k(&[query], &corpus, &config, 3);
    let got_pairs: Vec<(usize, u64)> = got
        .neighbors
        .iter()
        .map(|n| (n.index, n.distance.to_bits()))
        .collect();
    assert_eq!(got_pairs, oracle[0]);
}

#[test]
fn one_nn_agrees_with_the_query_matrix_oracle() {
    // the 1-NN role the deprecated `NnSearch` scan used to play: a
    // corpus-member query must come back as its own exact nearest
    // neighbour, bit-identical to the brute-force matrix ranking
    let corpus = UcrAnalog::Gun.generate(33).series[..16].to_vec();
    let query = corpus[7].clone();
    let config = IndexConfig::exact_banded(0.2);
    let index = SdtwIndex::build(&corpus, config.clone()).unwrap();
    let got = index
        .query_with_scratch(&query, 1, &mut DtwScratch::new())
        .unwrap();
    let oracle = oracle_top_k(&[query], &corpus, &config, 1);
    assert_eq!(got.neighbors[0].index, oracle[0][0].0);
    assert_eq!(got.neighbors[0].distance.to_bits(), oracle[0][0].1);
    assert_eq!(got.neighbors[0].index, 7, "self is its own nearest");
}

#[test]
fn amerced_kernel_index_matches_the_oracle_with_bounds_on() {
    // ω ≥ 0 keeps LB_Kim/LB_Keogh admissible (the amerced cost of any
    // path dominates its symmetric1 cost), so the cascade prunes with
    // them and must still be exact against the amerced brute force
    let mut exact = IndexConfig::exact_banded(0.2);
    exact.sdtw.dtw.kernel = KernelChoice::Amerced { penalty: 0.05 };
    assert_matches_oracle(exact, "amerced-exact");
    let mut sdtw_mode = IndexConfig::sdtw_bands();
    sdtw_mode.sdtw.dtw.kernel = KernelChoice::Amerced { penalty: 0.05 };
    assert_matches_oracle(sdtw_mode, "amerced-sdtw");
}

#[test]
fn amerced_kernel_changes_the_nearest_neighbour() {
    // q: a centred bump; A: the same bump shifted (DTW-near, pointwise
    // far); B: the bump plus small noise (pointwise-near). Plain DTW
    // warps the shift away and picks A; amercing prices those warp steps
    // and flips the nearest neighbour to B.
    let n = 64usize;
    let bump = |c: f64, i: usize| {
        let d = (i as f64 - c) / 4.0;
        (-d * d / 2.0).exp()
    };
    let q: Vec<f64> = (0..n).map(|i| bump(32.0, i)).collect();
    let a: Vec<f64> = (0..n).map(|i| bump(37.0, i)).collect();
    let b: Vec<f64> = (0..n)
        .map(|i| bump(32.0, i) + 0.1 * ((i * 7) as f64).sin())
        .collect();
    let corpus = vec![
        sdtw_tseries::TimeSeries::new(a).unwrap(),
        sdtw_tseries::TimeSeries::new(b).unwrap(),
    ];
    let query = sdtw_tseries::TimeSeries::new(q).unwrap();

    let mut scratch = DtwScratch::new();
    let standard = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.3)).unwrap();
    let nn_std = standard
        .query_with_scratch(&query, 1, &mut scratch)
        .unwrap()
        .neighbors[0];
    assert_eq!(nn_std.index, 0, "plain DTW warps the shift away: A wins");

    let mut amerced_cfg = IndexConfig::exact_banded(0.3);
    amerced_cfg.sdtw.dtw.kernel = KernelChoice::Amerced { penalty: 1.0 };
    let amerced = SdtwIndex::build(&corpus, amerced_cfg.clone()).unwrap();
    let nn_am = amerced
        .query_with_scratch(&query, 1, &mut scratch)
        .unwrap()
        .neighbors[0];
    assert_eq!(nn_am.index, 1, "amercing prices the warp: B wins");

    // both answers are exact against their own oracle
    let oracle = oracle_top_k(
        std::slice::from_ref(&query),
        &corpus,
        &IndexConfig::exact_banded(0.3),
        1,
    );
    assert_eq!((nn_std.index, nn_std.distance.to_bits()), oracle[0][0]);
    let oracle_am = oracle_top_k(&[query], &corpus, &amerced_cfg, 1);
    assert_eq!((nn_am.index, nn_am.distance.to_bits()), oracle_am[0][0]);
}

/// Every index configuration the loaded-equals-built check covers: the
/// exact-banded and sDTW-band modes, each raw and z-normalised, the
/// amerced kernel, and the coarse PAA stage on (width 8) and off.
fn snapshot_configs() -> Vec<(&'static str, IndexConfig)> {
    let mut amerced = IndexConfig::exact_banded(0.2);
    amerced.sdtw.dtw.kernel = KernelChoice::Amerced { penalty: 0.05 };
    vec![
        ("exact_banded(0.2)", IndexConfig::exact_banded(0.2)),
        (
            "z-normalised sakoe 0.1",
            IndexConfig {
                z_normalize: true,
                ..IndexConfig::exact_banded(0.1)
            },
        ),
        ("sdtw_bands", IndexConfig::sdtw_bands()),
        (
            "z-normalised sdtw_bands",
            IndexConfig {
                z_normalize: true,
                ..IndexConfig::sdtw_bands()
            },
        ),
        ("amerced", amerced),
        (
            "paa 0",
            IndexConfig {
                paa_width: 0,
                ..IndexConfig::sdtw_bands()
            },
        ),
        (
            "paa 8",
            IndexConfig {
                paa_width: 8,
                ..IndexConfig::exact_banded(0.2)
            },
        ),
    ]
}

#[test]
fn loaded_snapshots_equal_the_build_bit_for_bit() {
    // a snapshot stores the configuration and the stored series; loading
    // derives every artefact through the build path, so a loaded index
    // has the build's entries and answers every query with the same ids,
    // distance bits and cascade accounting
    let mut scratch = DtwScratch::new();
    for (label, config) in snapshot_configs() {
        for (name, corpus, queries) in seeded_datasets() {
            let index = SdtwIndex::build(&corpus, config.clone()).unwrap();
            let bytes = SnapshotCodec::encode(&index, SnapshotFormat::BinaryV2).unwrap();
            let loads = [
                ("decode", SnapshotCodec::decode(&bytes).unwrap()),
                (
                    "decode_reader",
                    SnapshotCodec::decode_reader(bytes.as_slice()).unwrap(),
                ),
            ];
            for (how, loaded) in loads {
                assert_eq!(loaded.config(), index.config(), "{label}/{name}/{how}");
                assert_eq!(loaded.entries(), index.entries(), "{label}/{name}/{how}");
                for (qi, query) in queries.iter().enumerate() {
                    let a = index.query_with_scratch(query, 4, &mut scratch).unwrap();
                    let b = loaded.query_with_scratch(query, 4, &mut scratch).unwrap();
                    let bits = |r: &sdtw_index::QueryResult| -> Vec<(usize, u64)> {
                        r.neighbors
                            .iter()
                            .map(|n| (n.index, n.distance.to_bits()))
                            .collect()
                    };
                    assert_eq!(bits(&a), bits(&b), "{label}/{name}/{how}/q{qi}");
                    assert_eq!(a.stats, b.stats, "{label}/{name}/{how}/q{qi}");
                }
            }
        }
    }
}

#[test]
fn corrupted_binary_snapshot_is_rejected() {
    let corpus = econ::generate(3, 2, 2).series;
    let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap();
    let bytes = SnapshotCodec::encode(&index, SnapshotFormat::BinaryV2).unwrap();
    // flip one byte in every region of the file: header, table, columns
    for at in [9usize, 30, 50, bytes.len() / 2, bytes.len() - 9] {
        let mut tampered = bytes.clone();
        tampered[at] ^= 0x3f;
        if tampered == bytes {
            continue;
        }
        // either the decode rejects it, or the decoded index differs in
        // a payload column the structural checks deliberately trust
        // (sample values themselves carry no checksum)
        if let Ok(loaded) = SnapshotCodec::decode(&tampered) {
            assert_ne!(
                loaded.entries(),
                index.entries(),
                "byte {at}: tamper vanished"
            );
        }
    }
}

#[test]
fn k_larger_than_corpus_returns_everything_ranked() {
    let corpus = econ::generate(5, 2, 2).series;
    let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.3)).unwrap();
    let got = index
        .query_with_scratch(&corpus[0], 50, &mut DtwScratch::new())
        .unwrap();
    assert_eq!(got.neighbors.len(), corpus.len());
    for w in got.neighbors.windows(2) {
        assert!(w[0].distance <= w[1].distance);
    }
}

#[test]
fn k_zero_is_rejected_and_empty_index_answers_empty() {
    let corpus = econ::generate(5, 2, 2).series;
    let index = SdtwIndex::build(&corpus, IndexConfig::default()).unwrap();
    let mut scratch = DtwScratch::new();
    assert!(index
        .query_with_scratch(&corpus[0], 0, &mut scratch)
        .is_err());
    let empty = SdtwIndex::build(&[], IndexConfig::default()).unwrap();
    assert!(empty.is_empty());
    let got = empty
        .query_with_scratch(&corpus[0], 3, &mut scratch)
        .unwrap();
    assert!(got.neighbors.is_empty());
    assert_eq!(got.stats.candidates, 0);
}
