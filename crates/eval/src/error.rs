//! Distance-error metrics (paper §4.2):
//! `err_dist = avg_{X,Y} (Δ*(X,Y) − Δ_DTW(X,Y)) / Δ_DTW(X,Y)`,
//! plus the per-class breakdown of Figure 15.

use crate::distmat::DistanceMatrix;

/// Pairs whose reference distance is below this floor are skipped — the
/// relative error of a (near-)zero optimal distance is undefined.
const REF_FLOOR: f64 = 1e-12;

/// Mean relative distance error over all ordered pairs `(i ≠ j)`.
/// Constrained distances upper-bound the optimum, so the result is ≥ 0
/// (up to floating-point noise).
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn distance_error(reference: &DistanceMatrix, approx: &DistanceMatrix) -> f64 {
    assert_eq!(reference.n(), approx.n(), "matrix dimensions must match");
    let n = reference.n();
    let mut acc = 0.0;
    let mut count = 0usize;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let r = reference.get(i, j);
            if r < REF_FLOOR {
                continue;
            }
            acc += (approx.get(i, j) - r) / r;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        acc / count as f64
    }
}

/// Mean relative distance error restricted to pairs within the same class
/// — one value per class label, ascending (the paper's Figure 15 view:
/// "time series in a given class are more likely to be similar to each
/// other … achieving high accuracy within the same class is likely to be
/// more difficult").
///
/// # Panics
///
/// Panics on dimension/label-length mismatch.
pub fn intra_class_errors(
    reference: &DistanceMatrix,
    approx: &DistanceMatrix,
    labels: &[u32],
) -> Vec<(u32, f64)> {
    assert_eq!(reference.n(), approx.n(), "matrix dimensions must match");
    assert_eq!(reference.n(), labels.len(), "one label per series required");
    use std::collections::BTreeMap;
    let mut acc: BTreeMap<u32, (f64, usize)> = BTreeMap::new();
    let n = reference.n();
    for i in 0..n {
        for j in 0..n {
            if i == j || labels[i] != labels[j] {
                continue;
            }
            let r = reference.get(i, j);
            if r < REF_FLOOR {
                continue;
            }
            let e = (approx.get(i, j) - r) / r;
            let entry = acc.entry(labels[i]).or_insert((0.0, 0));
            entry.0 += e;
            entry.1 += 1;
        }
    }
    acc.into_iter()
        .map(|(label, (sum, count))| (label, if count == 0 { 0.0 } else { sum / count as f64 }))
        .collect()
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

    #[test]
    fn zero_error_for_identical_matrices() {
        let m = matrix(&[&[0.0, 2.0], &[2.0, 0.0]]);
        assert_eq!(distance_error(&m, &m), 0.0);
    }

    #[test]
    fn uniform_inflation_yields_that_relative_error() {
        let reference = matrix(&[&[0.0, 2.0, 4.0], &[2.0, 0.0, 8.0], &[4.0, 8.0, 0.0]]);
        let approx = matrix(&[&[0.0, 3.0, 6.0], &[3.0, 0.0, 12.0], &[6.0, 12.0, 0.0]]);
        // every off-diagonal pair inflated by 50%
        assert!((distance_error(&reference, &approx) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_reference_pairs_are_skipped() {
        let reference = matrix(&[&[0.0, 0.0, 4.0], &[0.0, 0.0, 4.0], &[4.0, 4.0, 0.0]]);
        let approx = matrix(&[&[0.0, 9.0, 6.0], &[9.0, 0.0, 6.0], &[6.0, 6.0, 0.0]]);
        // pairs (0,1)/(1,0) skipped; remaining error = 0.5
        assert!((distance_error(&reference, &approx) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn intra_class_split() {
        let reference = matrix(&[
            &[0.0, 2.0, 10.0, 10.0],
            &[2.0, 0.0, 10.0, 10.0],
            &[10.0, 10.0, 0.0, 4.0],
            &[10.0, 10.0, 4.0, 0.0],
        ]);
        // class 0 pairs inflated 100%, class 1 pairs inflated 25%
        let approx = matrix(&[
            &[0.0, 4.0, 10.0, 10.0],
            &[4.0, 0.0, 10.0, 10.0],
            &[10.0, 10.0, 0.0, 5.0],
            &[10.0, 10.0, 5.0, 0.0],
        ]);
        let labels = [7, 7, 9, 9];
        let split = intra_class_errors(&reference, &approx, &labels);
        assert_eq!(split.len(), 2);
        assert_eq!(split[0].0, 7);
        assert!((split[0].1 - 1.0).abs() < 1e-12);
        assert_eq!(split[1].0, 9);
        assert!((split[1].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_class_pairs_handled() {
        // each series is its own class: no intra-class pairs at all
        let m = matrix(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let split = intra_class_errors(&m, &m, &[1, 2]);
        assert!(split.is_empty());
    }
}
