//! Top-k retrieval accuracy (paper §4.2):
//! `acc_ret(k) = avg_X |top_DTW(X,k) ∩ top_*(X,k)| / k`.

use crate::distmat::DistanceMatrix;

/// Mean top-k overlap between the reference (optimal DTW) ranking and the
/// constrained ranking, averaged over every query in the corpus.
///
/// # Panics
///
/// Panics when the matrices differ in dimension, `k == 0`, or
/// `k >= n` (a top-k query needs at least `k` other series).
pub fn retrieval_accuracy(reference: &DistanceMatrix, approx: &DistanceMatrix, k: usize) -> f64 {
    assert_eq!(reference.n(), approx.n(), "matrix dimensions must match");
    let n = reference.n();
    assert!(k >= 1, "k must be positive");
    assert!(
        k < n,
        "top-{k} needs at least {k} other series, have {}",
        n - 1
    );
    let mut acc = 0.0;
    for i in 0..n {
        let top_ref = reference.top_k(i, k);
        let top_apx = approx.top_k(i, k);
        let overlap = top_ref.iter().filter(|idx| top_apx.contains(idx)).count();
        acc += overlap as f64 / k as f64;
    }
    acc / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdtw_obs::QueryTrace;

    /// Builds a matrix directly from explicit distances (test helper).
    fn matrix(d: &[&[f64]]) -> DistanceMatrix {
        let n = d.len();
        let mut data = Vec::with_capacity(n * n);
        for row in d {
            assert_eq!(row.len(), n);
            data.extend_from_slice(row);
        }
        // construct through serde to avoid exposing a test-only constructor
        let json = serde_json::json!({
            "n": n,
            "data": data,
            "trace": QueryTrace::default(),
        });
        serde_json::from_value(json).unwrap()
    }

    #[test]
    fn identical_matrices_score_one() {
        let m = matrix(&[&[0.0, 1.0, 2.0], &[1.0, 0.0, 3.0], &[2.0, 3.0, 0.0]]);
        assert_eq!(retrieval_accuracy(&m, &m, 1), 1.0);
        assert_eq!(retrieval_accuracy(&m, &m, 2), 1.0);
    }

    #[test]
    fn disjoint_top1_scores_zero() {
        let reference = matrix(&[&[0.0, 1.0, 5.0], &[1.0, 0.0, 5.0], &[1.0, 5.0, 0.0]]);
        // approx inverts every preference
        let approx = matrix(&[&[0.0, 5.0, 1.0], &[5.0, 0.0, 1.0], &[5.0, 1.0, 0.0]]);
        assert_eq!(retrieval_accuracy(&reference, &approx, 1), 0.0);
        // top-2 of 2 others is always both → overlap complete
        assert_eq!(retrieval_accuracy(&reference, &approx, 2), 1.0);
    }

    #[test]
    fn partial_overlap_is_fractional() {
        let reference = matrix(&[
            &[0.0, 1.0, 2.0, 9.0],
            &[1.0, 0.0, 2.0, 9.0],
            &[1.0, 2.0, 0.0, 9.0],
            &[1.0, 2.0, 9.0, 0.0],
        ]);
        // approx swaps the 2nd/3rd neighbour for query 0 only
        let approx = matrix(&[
            &[0.0, 1.0, 9.0, 2.0],
            &[1.0, 0.0, 2.0, 9.0],
            &[1.0, 2.0, 0.0, 9.0],
            &[1.0, 2.0, 9.0, 0.0],
        ]);
        let acc = retrieval_accuracy(&reference, &approx, 2);
        // query 0: overlap {1} of {1,2} = 0.5; others: 1.0
        assert!((acc - (0.5 + 3.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "top-3 needs")]
    fn k_too_large_panics() {
        let m = matrix(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let _ = retrieval_accuracy(&m, &m, 3);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn k_zero_panics() {
        let m = matrix(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let _ = retrieval_accuracy(&m, &m, 0);
    }

    #[test]
    fn approx_equal_to_reference_scores_one_for_every_valid_k() {
        // approx == reference ⇒ accuracy 1.0 regardless of k — including
        // matrices containing distance ties
        let m = matrix(&[
            &[0.0, 2.0, 2.0, 5.0, 1.0],
            &[2.0, 0.0, 3.0, 3.0, 4.0],
            &[2.0, 3.0, 0.0, 1.0, 1.0],
            &[5.0, 3.0, 1.0, 0.0, 2.0],
            &[1.0, 4.0, 1.0, 2.0, 0.0],
        ]);
        let approx = m.clone();
        for k in 1..5 {
            assert_eq!(
                retrieval_accuracy(&m, &approx, k),
                1.0,
                "self-accuracy must be perfect at k={k}"
            );
        }
    }

    #[test]
    fn ties_are_broken_by_index_consistently_on_both_sides() {
        // query 0 sees candidates 1 and 2 at the same distance; the
        // stable tie-break keeps the lower index in both rankings, so
        // top-1 overlaps even though the tie could have gone either way
        let reference = matrix(&[&[0.0, 1.0, 1.0], &[1.0, 0.0, 2.0], &[1.0, 2.0, 0.0]]);
        let approx = matrix(&[&[0.0, 3.0, 3.0], &[3.0, 0.0, 4.0], &[3.0, 4.0, 0.0]]);
        // scaled distances: same induced (tie-broken) orderings everywhere
        assert_eq!(retrieval_accuracy(&reference, &approx, 1), 1.0);
        assert_eq!(retrieval_accuracy(&reference, &approx, 2), 1.0);
    }

    #[test]
    fn tie_resolution_mismatch_costs_exactly_the_swapped_slot() {
        // reference: query 0 ties candidates 1, 2 → stable top-1 is {1};
        // approx strictly prefers candidate 2, so top-1 misses, while
        // top-2 (both candidates) still overlaps fully
        let reference = matrix(&[&[0.0, 1.0, 1.0], &[1.0, 0.0, 5.0], &[1.0, 5.0, 0.0]]);
        let approx = matrix(&[&[0.0, 2.0, 1.0], &[1.0, 0.0, 5.0], &[1.0, 5.0, 0.0]]);
        let acc1 = retrieval_accuracy(&reference, &approx, 1);
        // queries 1 and 2 agree (1/1 each); query 0 misses (0/1)
        assert!((acc1 - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(retrieval_accuracy(&reference, &approx, 2), 1.0);
    }

    #[test]
    fn k1_and_larger_k_measure_different_things() {
        // approx gets every 1-NN right but scrambles the deeper ranks
        let reference = matrix(&[
            &[0.0, 1.0, 2.0, 3.0],
            &[1.0, 0.0, 2.0, 3.0],
            &[2.0, 1.0, 0.0, 3.0],
            &[3.0, 1.0, 2.0, 0.0],
        ]);
        let approx = matrix(&[
            &[0.0, 1.0, 9.0, 3.0],
            &[1.0, 0.0, 9.0, 3.0],
            &[9.0, 1.0, 0.0, 3.0],
            &[9.0, 1.0, 3.0, 0.0],
        ]);
        assert_eq!(retrieval_accuracy(&reference, &approx, 1), 1.0);
        let acc2 = retrieval_accuracy(&reference, &approx, 2);
        assert!(acc2 < 1.0, "rank-2 disagreements must show at k=2");
        // top-3 of 3 others is always all of them → back to perfect
        assert_eq!(retrieval_accuracy(&reference, &approx, 3), 1.0);
    }
}
