//! k-NN classification accuracy (paper §4.2):
//! `acc_cls(k) = avg_X |labels_DTW(X,k) ∩ labels_*(X,k)| / |labels_DTW(X,k) ∪ labels_*(X,k)|`.

use crate::distmat::DistanceMatrix;
use std::collections::BTreeSet;

/// The tied-majority label set assigned to query `i` by k-NN: all class
/// labels reaching the maximum count among the `k` nearest neighbours.
/// The paper notes "the k nearest neighbor algorithm can attach more than
/// one label … if there are more than one class labels with the same
/// maximum count".
pub fn knn_label_set(matrix: &DistanceMatrix, labels: &[u32], i: usize, k: usize) -> BTreeSet<u32> {
    assert_eq!(matrix.n(), labels.len(), "one label per series required");
    let top = matrix.top_k(i, k);
    let mut counts: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
    for &j in &top {
        *counts.entry(labels[j]).or_insert(0) += 1;
    }
    let max = counts.values().copied().max().unwrap_or(0);
    counts
        .into_iter()
        .filter(|&(_, c)| c == max && max > 0)
        .map(|(l, _)| l)
        .collect()
}

/// Mean Jaccard overlap between the k-NN label sets under the reference
/// ranking and under the constrained ranking, over all queries.
///
/// # Panics
///
/// Panics on dimension mismatches or out-of-range `k` (same contract as
/// [`crate::retrieval::retrieval_accuracy`]).
pub fn classification_accuracy(
    reference: &DistanceMatrix,
    approx: &DistanceMatrix,
    labels: &[u32],
    k: usize,
) -> f64 {
    assert_eq!(reference.n(), approx.n(), "matrix dimensions must match");
    assert_eq!(reference.n(), labels.len(), "one label per series required");
    let n = reference.n();
    assert!(k >= 1 && k < n, "k out of range");
    let mut acc = 0.0;
    for i in 0..n {
        let a = knn_label_set(reference, labels, i, k);
        let b = knn_label_set(approx, labels, i, k);
        let inter = a.intersection(&b).count();
        let union = a.union(&b).count();
        acc += if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        };
    }
    acc / n as f64
}

/// Plain k-NN ground-truth accuracy (extension beyond the paper's overlap
/// metric): the fraction of queries whose tied-majority label set contains
/// the query's true label. Useful to sanity-check that the synthetic
/// datasets are actually learnable.
pub fn knn_self_accuracy(matrix: &DistanceMatrix, labels: &[u32], k: usize) -> f64 {
    let n = matrix.n();
    let mut acc = 0.0;
    for i in 0..n {
        let set = knn_label_set(matrix, labels, i, k);
        if set.contains(&labels[i]) {
            acc += 1.0;
        }
    }
    acc / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdtw_obs::QueryTrace;

    fn matrix(d: &[&[f64]]) -> DistanceMatrix {
        let n = d.len();
        let mut data = Vec::with_capacity(n * n);
        for row in d {
            data.extend_from_slice(row);
        }
        serde_json::from_value(serde_json::json!({
            "n": n,
            "data": data,
            "trace": QueryTrace::default(),
        }))
        .unwrap()
    }

    /// 4 series: 0,1 in class 0; 2,3 in class 1; clean clusters.
    fn clustered() -> DistanceMatrix {
        matrix(&[
            &[0.0, 1.0, 8.0, 9.0],
            &[1.0, 0.0, 8.0, 9.0],
            &[8.0, 9.0, 0.0, 1.0],
            &[9.0, 8.0, 1.0, 0.0],
        ])
    }

    #[test]
    fn label_set_majority() {
        let m = clustered();
        let labels = [0, 0, 1, 1];
        let set = knn_label_set(&m, &labels, 0, 1);
        assert_eq!(set.into_iter().collect::<Vec<_>>(), vec![0]);
        // k = 3 for query 0: neighbours 1 (class 0), 2, 3 (class 1) → tie
        // is impossible (1 vs 2) → class 1
        let set = knn_label_set(&m, &labels, 0, 3);
        assert_eq!(set.into_iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn tied_majority_returns_both_labels() {
        let m = clustered();
        let labels = [0, 0, 1, 1];
        // k = 2 for query 0: neighbours 1 (class 0) and 2 (class 1) → tie
        let set = knn_label_set(&m, &labels, 0, 2);
        assert_eq!(set.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn identical_matrices_have_perfect_overlap() {
        let m = clustered();
        let labels = [0, 0, 1, 1];
        for k in 1..=3 {
            assert_eq!(classification_accuracy(&m, &m, &labels, k), 1.0);
        }
    }

    #[test]
    fn label_disagreement_reduces_jaccard() {
        let reference = clustered();
        // approx flips query 0's ranking so its 1-NN is class 1
        let approx = matrix(&[
            &[0.0, 9.0, 1.0, 2.0],
            &[1.0, 0.0, 8.0, 9.0],
            &[8.0, 9.0, 0.0, 1.0],
            &[9.0, 8.0, 1.0, 0.0],
        ]);
        let labels = [0, 0, 1, 1];
        let acc = classification_accuracy(&reference, &approx, &labels, 1);
        // query 0: {0} vs {1} → 0; others identical → 1
        assert!((acc - 3.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn self_accuracy_on_clean_clusters_is_one() {
        let m = clustered();
        let labels = [0, 0, 1, 1];
        assert_eq!(knn_self_accuracy(&m, &labels, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "one label per series")]
    fn label_length_mismatch_panics() {
        let m = clustered();
        let _ = knn_label_set(&m, &[0, 1], 0, 1);
    }
}
