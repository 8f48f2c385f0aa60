//! Retrieval scenario (the paper's Figure 1 motivation): a corpus of
//! economic-index-style series where designated groups are pairwise
//! similar. We index salient features once, then compare top-k retrieval
//! under full DTW vs sDTW policies.
//!
//! Run with `cargo run --release --example retrieval`.

use sdtw_suite::datasets::econ;
use sdtw_suite::eval::{compute_matrix, retrieval::retrieval_accuracy};
use sdtw_suite::prelude::*;

/// DP cells a matrix filled, summed over its pairs.
fn cells(matrix: &DistanceMatrix) -> u64 {
    matrix.trace.counters.cascade.cells_filled
}

fn main() {
    // 6 groups x 4 series, like Figure 1's A/B vs C/D pairs but larger.
    let corpus = econ::generate(2024, 6, 4).series;
    println!(
        "corpus: {} series of length {}",
        corpus.len(),
        corpus[0].len()
    );

    // one-time feature indexing (the paper's §3.4 cost model)
    let store = FeatureStore::new(SalientConfig::default()).expect("valid config");
    let t0 = std::time::Instant::now();
    store.warm(&corpus).expect("extraction succeeds");
    println!(
        "indexed salient features for {} series in {:?}\n",
        store.cached_count(),
        t0.elapsed()
    );

    let reference_engine = SDtw::new(SDtwConfig {
        policy: ConstraintPolicy::FullGrid,
        ..SDtwConfig::default()
    })
    .expect("valid config");
    let reference =
        compute_matrix(&corpus, &reference_engine, &store, true).expect("matrix computes");

    println!(
        "{:<12} {:>7} {:>7} {:>12} {:>12}",
        "policy", "acc@3", "acc@5", "cells", "vs full"
    );
    for policy in [
        ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.06 },
        ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.20 },
        ConstraintPolicy::fixed_core_adaptive_width(),
        ConstraintPolicy::adaptive_core_fixed_width(0.06),
        ConstraintPolicy::adaptive_core_adaptive_width(),
        ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
    ] {
        let engine = SDtw::new(SDtwConfig {
            policy,
            ..SDtwConfig::default()
        })
        .expect("valid config");
        let matrix = compute_matrix(&corpus, &engine, &store, true).expect("matrix computes");
        let a3 = retrieval_accuracy(&reference, &matrix, 3);
        let a5 = retrieval_accuracy(&reference, &matrix, 5);
        println!(
            "{:<12} {:>7.3} {:>7.3} {:>12} {:>11.1}%",
            policy.label(),
            a3,
            a5,
            cells(&matrix),
            cells(&matrix) as f64 / cells(&reference) as f64 * 100.0
        );
    }

    // And the headline query: nearest neighbour of series 0 should be a
    // series of the same group under every decent policy.
    let nn = reference.top_k(0, 1)[0];
    println!(
        "\nnearest neighbour of series 0 (group {}) under full DTW: series {} (group {})",
        corpus[0].label().unwrap(),
        nn,
        corpus[nn].label().unwrap()
    );
}
