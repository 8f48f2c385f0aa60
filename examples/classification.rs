//! Classification scenario: k-NN over a busy 50Words-style corpus, the
//! workload of the paper's Figure 16. Compares the label sets produced
//! under optimal DTW with those produced under constrained policies, and
//! reports the ground-truth accuracy of each.
//!
//! Run with `cargo run --release --example classification`.

use sdtw_suite::eval::classify::{classification_accuracy, knn_self_accuracy};
use sdtw_suite::eval::{compute_matrix, experiment::subsample};
use sdtw_suite::prelude::*;

fn main() {
    // Restrict to 10 of the 50 classes and take 5 members each: ground
    // truth needs several same-class neighbours per query, and the smaller
    // corpus keeps the demo quick (the full corpus is 450 series).
    let dataset = UcrAnalog::Words50.generate(7);
    let ten_classes = Dataset {
        name: dataset.name.clone(),
        series: dataset
            .series
            .iter()
            .filter(|s| s.label().unwrap_or(0) < 10)
            .cloned()
            .collect(),
    };
    let corpus = subsample(&ten_classes, 50);
    let labels: Vec<u32> = corpus.iter().map(|s| s.label().unwrap()).collect();
    println!(
        "corpus: {} series, {} classes, length {}",
        corpus.len(),
        ten_classes.class_count(),
        corpus[0].len()
    );

    let store = FeatureStore::new(SalientConfig::default()).expect("valid config");
    store.warm(&corpus).expect("extraction succeeds");

    let reference_engine = SDtw::new(SDtwConfig {
        policy: ConstraintPolicy::FullGrid,
        ..SDtwConfig::default()
    })
    .expect("valid config");
    let reference =
        compute_matrix(&corpus, &reference_engine, &store, true).expect("matrix computes");
    println!(
        "\nfull-DTW 1-NN ground-truth accuracy: {:.3}",
        knn_self_accuracy(&reference, &labels, 1)
    );

    println!(
        "\n{:<12} {:>8} {:>8} {:>10} {:>10}",
        "policy", "agree@5", "agree@10", "truth@1", "work"
    );
    for policy in [
        ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.06 },
        ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.20 },
        ConstraintPolicy::fixed_core_adaptive_width(),
        ConstraintPolicy::adaptive_core_fixed_width(0.10),
        ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
    ] {
        let engine = SDtw::new(SDtwConfig {
            policy,
            ..SDtwConfig::default()
        })
        .expect("valid config");
        let matrix = compute_matrix(&corpus, &engine, &store, true).expect("matrix computes");
        println!(
            "{:<12} {:>8.3} {:>8.3} {:>10.3} {:>9.1}%",
            policy.label(),
            classification_accuracy(&reference, &matrix, &labels, 5),
            classification_accuracy(&reference, &matrix, &labels, 10),
            knn_self_accuracy(&matrix, &labels, 1),
            matrix.trace.counters.cascade.cells_filled as f64
                / reference.trace.counters.cascade.cells_filled as f64
                * 100.0,
        );
    }
    println!("\n(agree@k = Jaccard overlap with the full-DTW label sets; truth@1 =");
    println!(" fraction of queries whose 1-NN label set contains the true class)");
}
