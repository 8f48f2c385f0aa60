//! End-to-end policy evaluation: the engine behind every figure
//! regenerator.
//!
//! Given a dataset and a list of constraint policies, this module computes
//! the reference (full DTW) matrix once, then one matrix per policy, and
//! derives every §4.2 metric: retrieval accuracy, distance error,
//! classification accuracy, intra-class errors, time gain, work gain, and
//! the matching/DP cost split.

use crate::classify::classification_accuracy;
use crate::distmat::{compute_matrix, DistanceMatrix};
use crate::error::{distance_error, intra_class_errors};
use crate::gain::{matching_fraction, time_gain, work_gain};
use crate::retrieval::retrieval_accuracy;
use sdtw::{ConstraintPolicy, FeatureStore, SDtw, SDtwConfig};
use sdtw_datasets::Dataset;
use sdtw_obs::TracePhase;
use sdtw_tseries::{TimeSeries, TsError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Options of a policy-evaluation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalOptions {
    /// Subsample the corpus to at most this many series (class-balanced,
    /// deterministic). Pairwise full-DTW matrices are quadratic; the
    /// figure regenerators subsample the 450-series corpus.
    pub max_series: Option<usize>,
    /// `k` values for retrieval/classification metrics.
    pub ks: Vec<usize>,
    /// Compute matrices on the rayon pool.
    pub parallel: bool,
    /// Base sDTW configuration; each policy evaluation swaps the policy
    /// field in.
    pub base_config: SDtwConfig,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            max_series: None,
            ks: vec![5, 10],
            parallel: true,
            base_config: SDtwConfig::default(),
        }
    }
}

/// All metrics of one policy on one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyEval {
    /// Policy label (paper legend style: `fc,fw 10%`, `ac2,aw`, …).
    pub label: String,
    /// The evaluated policy.
    pub policy: ConstraintPolicy,
    /// Mean relative distance error vs optimal DTW.
    pub distance_error: f64,
    /// `k → acc_ret(k)`.
    pub retrieval_accuracy: BTreeMap<usize, f64>,
    /// `k → acc_cls(k)`.
    pub classification_accuracy: BTreeMap<usize, f64>,
    /// Per-class intra-class distance errors.
    pub intra_class_errors: Vec<(u32, f64)>,
    /// Wall-clock time gain vs the full-DTW run.
    pub time_gain: f64,
    /// Deterministic work-proxy gain vs the full-DTW run.
    pub work_gain: f64,
    /// Fraction of this policy's cost spent matching (Figure 17). The
    /// denominator is matching + DP only: extraction is a one-time
    /// indexed cost, reported separately below instead of skewing the
    /// per-phase split (the corpus is pre-warmed, so this is normally
    /// zero — nonzero values mean the warm-up missed series).
    pub matching_fraction: f64,
    /// One-time extraction cost actually paid while computing this
    /// policy's matrix (cache misses only; exactly zero on a pre-warmed
    /// store).
    pub extraction_time: std::time::Duration,
    /// Total DP cells filled across all pairs.
    pub cells_filled: u64,
    /// Total descriptor comparisons across all pairs.
    pub descriptor_comparisons: u64,
}

/// Class-balanced deterministic subsample: walks the classes round-robin
/// in label order, taking members in id order, until `max` series are
/// chosen. Returns the chosen series (cloned).
pub fn subsample(dataset: &Dataset, max: usize) -> Vec<TimeSeries> {
    if dataset.series.len() <= max {
        return dataset.series.clone();
    }
    let groups = dataset.by_class();
    let mut taken: Vec<usize> = Vec::with_capacity(max);
    let mut cursor = vec![0usize; groups.len()];
    'outer: loop {
        let mut progressed = false;
        for (g, (_, members)) in groups.iter().enumerate() {
            if cursor[g] < members.len() {
                taken.push(members[cursor[g]]);
                cursor[g] += 1;
                progressed = true;
                if taken.len() == max {
                    break 'outer;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    taken.sort_unstable();
    taken
        .into_iter()
        .map(|i| dataset.series[i].clone())
        .collect()
}

/// Evaluates a list of policies on a dataset. The reference matrix (full
/// DTW) is computed once and shared.
///
/// # Errors
///
/// Propagates configuration/extraction errors.
pub fn evaluate_policies(
    dataset: &Dataset,
    policies: &[ConstraintPolicy],
    opts: &EvalOptions,
) -> Result<Vec<PolicyEval>, TsError> {
    let corpus = match opts.max_series {
        Some(max) => subsample(dataset, max),
        None => dataset.series.clone(),
    };
    let labels: Vec<u32> = corpus.iter().map(|s| s.label().unwrap_or(0)).collect();

    let store = FeatureStore::new(opts.base_config.salient.clone())?;
    store.warm(&corpus)?;

    let reference_engine = SDtw::new(SDtwConfig {
        policy: ConstraintPolicy::FullGrid,
        ..opts.base_config.clone()
    })?;
    let reference = compute_matrix(&corpus, &reference_engine, &store, opts.parallel)?;

    let mut out = Vec::with_capacity(policies.len());
    for &policy in policies {
        let engine = SDtw::new(SDtwConfig {
            policy,
            ..opts.base_config.clone()
        })?;
        let matrix = compute_matrix(&corpus, &engine, &store, opts.parallel)?;
        out.push(summarize(policy, &reference, &matrix, &labels, &opts.ks));
    }
    Ok(out)
}

/// Derives the full metric set for one policy matrix against the
/// reference.
pub fn summarize(
    policy: ConstraintPolicy,
    reference: &DistanceMatrix,
    matrix: &DistanceMatrix,
    labels: &[u32],
    ks: &[usize],
) -> PolicyEval {
    let mut retrieval = BTreeMap::new();
    let mut classification = BTreeMap::new();
    for &k in ks {
        if k < reference.n() {
            retrieval.insert(k, retrieval_accuracy(reference, matrix, k));
            classification.insert(k, classification_accuracy(reference, matrix, labels, k));
        }
    }
    PolicyEval {
        label: policy.label(),
        policy,
        distance_error: distance_error(reference, matrix),
        retrieval_accuracy: retrieval,
        classification_accuracy: classification,
        intra_class_errors: intra_class_errors(reference, matrix, labels),
        time_gain: time_gain(&reference.trace, &matrix.trace),
        work_gain: work_gain(&reference.trace, &matrix.trace),
        matching_fraction: matching_fraction(&matrix.trace),
        extraction_time: matrix.trace.phase_duration(TracePhase::Extraction),
        cells_filled: matrix.trace.counters.cascade.cells_filled,
        descriptor_comparisons: matrix.trace.descriptor_comparisons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdtw_datasets::econ;

    fn tiny_dataset() -> Dataset {
        econ::generate(11, 3, 3) // 9 series, 3 classes
    }

    fn fast_opts() -> EvalOptions {
        EvalOptions {
            max_series: None,
            ks: vec![2],
            parallel: false,
            base_config: SDtwConfig::default(),
        }
    }

    #[test]
    fn full_grid_policy_scores_perfectly_against_itself() {
        let ds = tiny_dataset();
        let evals = evaluate_policies(&ds, &[ConstraintPolicy::FullGrid], &fast_opts()).unwrap();
        let e = &evals[0];
        assert_eq!(e.distance_error, 0.0);
        assert_eq!(e.retrieval_accuracy[&2], 1.0);
        assert_eq!(e.classification_accuracy[&2], 1.0);
        assert_eq!(e.work_gain, 0.0);
        // the corpus is pre-warmed: per-policy matrices never re-extract
        assert_eq!(e.extraction_time, std::time::Duration::ZERO);
    }

    #[test]
    fn banded_policies_report_positive_work_gain() {
        let ds = tiny_dataset();
        let evals = evaluate_policies(
            &ds,
            &[
                ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.1 },
                ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
            ],
            &fast_opts(),
        )
        .unwrap();
        for e in &evals {
            assert!(
                e.work_gain > 0.0,
                "{}: work gain {} should be positive",
                e.label,
                e.work_gain
            );
            assert!(e.distance_error >= -1e-9);
            let acc = e.retrieval_accuracy[&2];
            assert!((0.0..=1.0).contains(&acc));
        }
    }

    #[test]
    fn subsample_is_class_balanced_and_deterministic() {
        let ds = econ::generate(1, 3, 4); // 12 series, 3 classes
        let a = subsample(&ds, 6);
        let b = subsample(&ds, 6);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        // 2 per class
        let mut counts = std::collections::BTreeMap::new();
        for s in &a {
            *counts.entry(s.label().unwrap()).or_insert(0usize) += 1;
        }
        assert!(counts.values().all(|&c| c == 2), "{counts:?}");
    }

    #[test]
    fn subsample_noop_when_corpus_small() {
        let ds = tiny_dataset();
        assert_eq!(subsample(&ds, 100).len(), ds.series.len());
    }

    #[test]
    fn max_series_option_shrinks_the_run() {
        let ds = tiny_dataset();
        let opts = EvalOptions {
            max_series: Some(6),
            ..fast_opts()
        };
        let evals = evaluate_policies(&ds, &[ConstraintPolicy::FullGrid], &opts).unwrap();
        // 6 series -> 30 ordered pairs
        assert!(evals[0].cells_filled > 0);
        let e = &evals[0];
        assert_eq!(e.retrieval_accuracy.len(), 1);
    }
}
