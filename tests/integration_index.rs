//! End-to-end integration of the kNN index with the evaluation harness:
//! the index must reproduce the brute-force retrieval pipeline exactly —
//! same neighbours, same distances, perfect `retrieval_accuracy` — while
//! pruning real work, on a labelled UCR-analogue corpus.

use sdtw_suite::datasets::econ;
use sdtw_suite::eval::retrieval::retrieval_accuracy;
use sdtw_suite::prelude::*;

#[test]
fn index_reproduces_the_retrieval_pipeline_exactly() {
    let ds = UcrAnalog::Gun.generate(55);
    let corpus = ds.series[..20].to_vec();
    let queries: Vec<TimeSeries> = ds.series[20..25].to_vec();
    for config in [IndexConfig::exact_banded(0.2), IndexConfig::sdtw_bands()] {
        let engine = SDtw::new(config.sdtw.clone()).unwrap();
        let store = FeatureStore::new(config.sdtw.salient.clone()).unwrap();
        let qm = compute_query_matrix(&queries, &corpus, &engine, &store, true).unwrap();
        let index = SdtwIndex::build(&corpus, config).unwrap();
        let mut scratch = DtwScratch::new();
        let mut total = CascadeStats::default();
        for (q, query) in queries.iter().enumerate() {
            let r = index.query_with_scratch(query, 5, &mut scratch).unwrap();
            let got: Vec<(usize, u64)> = r
                .neighbors
                .iter()
                .map(|n| (n.index, n.distance.to_bits()))
                .collect();
            let want: Vec<(usize, u64)> = qm
                .top_k(q, 5)
                .into_iter()
                .map(|j| (j, qm.get(q, j).to_bits()))
                .collect();
            assert_eq!(got, want, "query {q} diverged from the oracle");
            total.merge(&r.stats);
        }
        assert!(total.is_consistent());
    }
}

#[test]
fn index_retrieval_has_perfect_accuracy_against_its_own_engine() {
    // build the full pairwise matrix under one engine, then re-derive the
    // same ranking through the index and score it with the §4.2 metric:
    // the overlap must be exactly 1.0 for every k
    let ds = UcrAnalog::Gun.generate(70);
    let corpus = ds.series[..16].to_vec();
    let config = IndexConfig::exact_banded(0.2);
    let engine = SDtw::new(config.sdtw.clone()).unwrap();
    let store = FeatureStore::new(config.sdtw.salient.clone()).unwrap();
    let reference = compute_matrix(&corpus, &engine, &store, true).unwrap();
    let index = SdtwIndex::build(&corpus, config).unwrap();
    let mut scratch = DtwScratch::new();
    for (i, query) in corpus.iter().enumerate() {
        // k+1 because the matrix ranking excludes self, the index doesn't
        let r = index.query_with_scratch(query, 4, &mut scratch).unwrap();
        let got: Vec<usize> = r
            .neighbors
            .iter()
            .map(|n| n.index)
            .filter(|&j| j != i)
            .take(3)
            .collect();
        assert_eq!(got, reference.top_k(i, 3), "query {i} ranking diverged");
    }
    // and the metric itself agrees that identical rankings score 1.0
    assert_eq!(retrieval_accuracy(&reference, &reference, 3), 1.0);
}

#[test]
fn index_prunes_while_staying_exact_on_labelled_data() {
    let ds = UcrAnalog::Trace.generate(31);
    let corpus = ds.series[..24].to_vec();
    let queries: Vec<TimeSeries> = corpus[..6].to_vec();
    let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap();
    let mut scratch = DtwScratch::new();
    let mut total = CascadeStats::default();
    for (q, query) in queries.iter().enumerate() {
        let r = index.query_with_scratch(query, 1, &mut scratch).unwrap();
        assert_eq!(r.neighbors[0].index, q, "a member is its own 1-NN");
        assert_eq!(r.neighbors[0].distance, 0.0);
        total.merge(&r.stats);
    }
    assert!(
        total.prune_rate() > 0.3,
        "self-queries should prune hard, got {}",
        total.prune_rate()
    );
}

/// Three seeded datasets (the suite's standard trio), a handful of series
/// each.
fn seeded_series() -> Vec<(&'static str, Vec<TimeSeries>)> {
    vec![
        ("gun", UcrAnalog::Gun.generate(11).series[..4].to_vec()),
        ("trace", UcrAnalog::Trace.generate(22).series[..4].to_vec()),
        ("econ", econ::generate(7, 2, 2).series),
    ]
}

/// The three constraint-policy families under test.
fn policies() -> Vec<ConstraintPolicy> {
    vec![
        ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.1 },
        ConstraintPolicy::adaptive_core_adaptive_width(),
        ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
    ]
}

#[test]
fn cascade_stats_are_reproducible_across_execution_modes() {
    // CascadeStats must be a pure function of (index, query, k): identical
    // between fresh-scratch and reused-scratch queries and between
    // untraced and traced ones, for every policy family and both
    // symmetries.
    for (name, series) in seeded_series() {
        for policy in policies() {
            for symmetry in [BandSymmetry::Asymmetric, BandSymmetry::Union] {
                let config = IndexConfig {
                    sdtw: SDtwConfig {
                        policy,
                        symmetry,
                        ..SDtwConfig::default()
                    },
                    z_normalize: false,
                    lb_radius_frac: 0.2,
                    ..IndexConfig::default()
                };
                let index = SdtwIndex::build(&series, config).unwrap();
                let queries: Vec<TimeSeries> = series.iter().take(2).cloned().collect();
                let ctx = format!("{name}/{}/{symmetry:?}", policy.label());

                let mut scratch = DtwScratch::new();
                for q in &queries {
                    let fresh = index
                        .query_with_scratch(q, 3, &mut DtwScratch::new())
                        .unwrap();
                    let reused = index.query_with_scratch(q, 3, &mut scratch).unwrap();
                    assert_eq!(fresh, reused, "{ctx}: scratch reuse changed the answer");
                    assert!(fresh.stats.is_consistent(), "{ctx}: stats leak");
                    let (traced, _) = index.query_traced(q, 3, "q").unwrap();
                    assert_eq!(fresh, traced, "{ctx}: tracing changed the answer");
                }
            }
        }
    }
}

/// A `k` far past the corpus size returns every entry, ascending, with
/// the same stats as `k` = the corpus size: reserving `k` heap slots up
/// front would abort the process at `k = 10¹²`, and `k + 1` overflows at
/// `usize::MAX`.
#[test]
fn a_huge_k_returns_every_entry() {
    let ds = UcrAnalog::Gun.generate(12);
    let corpus = ds.series[..9].to_vec();
    let query = &ds.series[20];
    for config in [IndexConfig::exact_banded(0.2), IndexConfig::sdtw_bands()] {
        let index = SdtwIndex::build(&corpus, config).unwrap();
        let mut scratch = DtwScratch::new();
        let all = index
            .query_with_scratch(query, corpus.len(), &mut scratch)
            .unwrap();
        assert_eq!(all.neighbors.len(), corpus.len());
        for k in [1_000_000_000_000usize, usize::MAX] {
            let got = index.query_with_scratch(query, k, &mut scratch).unwrap();
            assert_eq!(got.neighbors, all.neighbors, "k = {k}");
            assert_eq!(got.stats, all.stats, "k = {k}");
        }
    }
}

/// Samples whose squared differences overflow `f64` never reach the DP:
/// a query of 149 × `1.7e308` and one `−1.7e308` against a raw Gun index
/// is refused with an error naming the overflow instead of answered at
/// `+∞`, and so is a corpus holding such a series (build and snapshot
/// load share the check). A z-normalised index checks the prepared,
/// bounded query and answers it.
#[test]
fn samples_too_large_for_the_metric_are_refused() {
    let ds = UcrAnalog::Gun.generate(7);
    let corpus = &ds.series[..20];
    let mut huge = vec![1.7e308; 149];
    huge.push(-1.7e308);
    let huge = TimeSeries::new(huge).unwrap();
    let raw = SdtwIndex::build(corpus, IndexConfig::default()).unwrap();
    for result in [
        raw.query_with_scratch(&huge, 3, &mut DtwScratch::new())
            .map(|_| ()),
        raw.query_traced(&huge, 3, "huge").map(|_| ()),
    ] {
        let msg = result.unwrap_err().to_string();
        assert!(msg.contains("too large for the squared metric"), "{msg}");
    }
    let mut with_huge = corpus.to_vec();
    with_huge.push(huge.clone());
    let msg = SdtwIndex::build(&with_huge, IndexConfig::default())
        .unwrap_err()
        .to_string();
    assert!(msg.contains("too large for the squared metric"), "{msg}");
    let znorm = IndexConfig {
        z_normalize: true,
        ..IndexConfig::default()
    };
    let found = SdtwIndex::build(corpus, znorm)
        .unwrap()
        .query_with_scratch(&huge, 3, &mut DtwScratch::new())
        .unwrap();
    assert_eq!(found.neighbors.len(), 3);
    assert!(found.neighbors.iter().all(|n| n.distance.is_finite()));
}
