//! Pair scoring: `µ_align`, `µ_sim`, `µ_comb` (paper §3.2.2, step 1).
//!
//! The scores read scalar feature quantities (scope lengths, centres,
//! amplitudes) and the pair's descriptor distance as the dominant-pair
//! search computed it, so a side prepared for matching needs no copy of
//! its descriptors here.

/// Alignment score: prefers pairs of *large* features whose centres sit
/// *close* in time —
/// `µ_align = ((scope(f_i) + scope(f_j)) / 2) / (1 + |center(f_i) − center(f_j)|)`.
pub fn mu_align(scope_i: f64, center_i: f64, scope_j: f64, center_j: f64) -> f64 {
    let scopes = (scope_i + scope_j) / 2.0;
    scopes / (1.0 + (center_i - center_j).abs())
}

/// Descriptor similarity: the paper speaks of a descriptor "matching
/// score"; we define it as `1 / (1 + ‖d_i − d_j‖₂)` so that *higher is more
/// similar* and the score is bounded in `(0, 1]` (see DESIGN.md §5).
/// `desc_distance` is the pair's `‖d_i − d_j‖₂`.
pub fn descriptor_similarity(desc_distance: f64) -> f64 {
    1.0 / (1.0 + desc_distance)
}

/// Percentage amplitude difference of the two features' scope means,
/// clamped to `[0, 1]`:
/// `Δ_amp = |a_i − a_j| / max(|a_i|, |a_j|)` (0 when both are ~zero).
pub fn delta_amp(amplitude_i: f64, amplitude_j: f64) -> f64 {
    let denom = amplitude_i.abs().max(amplitude_j.abs());
    if denom < 1e-12 {
        return 0.0;
    }
    ((amplitude_i - amplitude_j).abs() / denom).min(1.0)
}

/// Similarity score of a pair with descriptor distance `desc_distance`,
/// given the minimum descriptor similarity among all matched pairs:
/// `µ_sim = (µ_desc / µ_desc,min) × (1 − Δ_amp)`.
pub fn mu_sim(desc_distance: f64, amplitude_i: f64, amplitude_j: f64, mu_desc_min: f64) -> f64 {
    let mu_desc = descriptor_similarity(desc_distance);
    let denom = if mu_desc_min > 0.0 { mu_desc_min } else { 1.0 };
    (mu_desc / denom) * (1.0 - delta_amp(amplitude_i, amplitude_j))
}

/// F-measure combination of two already-normalised scores (both in
/// `[0, 1]`): `2ab / (a + b)`, 0 when both are 0 — "requires both alignment
/// and similarity scores to be high for a high combined score".
pub fn f_measure(a: f64, b: f64) -> f64 {
    if a + b <= 0.0 {
        0.0
    } else {
        2.0 * a * b / (a + b)
    }
}

/// Computes `µ_comb` for every pair: raw `µ_align`/`µ_sim` are first
/// normalised by their maxima over the pair set (the paper's `ns` scores),
/// then combined with the F-measure. Returns one score per input pair.
pub fn combined_scores(pairs: &[(f64, f64)]) -> Vec<f64> {
    let max_a = pairs.iter().map(|p| p.0).fold(0.0f64, f64::max);
    let max_s = pairs.iter().map(|p| p.1).fold(0.0f64, f64::max);
    pairs
        .iter()
        .map(|&(a, s)| {
            let na = if max_a > 0.0 { a / max_a } else { 0.0 };
            let ns = if max_s > 0.0 { s / max_s } else { 0.0 };
            f_measure(na, ns)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mu_align_prefers_close_large_pairs() {
        let big_close = mu_align(20.0, 100.0, 20.0, 102.0);
        let small_far = mu_align(4.0, 100.0, 4.0, 160.0);
        assert!(big_close > small_far);
    }

    #[test]
    fn mu_align_exact_value() {
        // ((8+12)/2) / (1 + 4) = 10 / 5 = 2
        assert!((mu_align(8.0, 10.0, 12.0, 14.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn descriptor_similarity_bounds() {
        assert_eq!(descriptor_similarity(0.0), 1.0);
        // ‖(1, 0) − (0, 9)‖₂ = √82
        let s = descriptor_similarity(82f64.sqrt());
        assert!(s > 0.0 && s < 0.2);
    }

    #[test]
    fn delta_amp_behaviour() {
        assert_eq!(delta_amp(1.0, 1.0), 0.0);
        assert!((delta_amp(1.0, 2.0) - 0.5).abs() < 1e-12);
        assert_eq!(delta_amp(0.0, 0.0), 0.0);
        // opposite signs saturate at 1
        assert_eq!(delta_amp(2.0, -3.0), 1.0);
    }

    #[test]
    fn mu_sim_scales_by_minimum_and_amp() {
        // identical descriptors, identical amplitude, min = own similarity
        assert!((mu_sim(0.0, 1.0, 1.0, 1.0) - 1.0).abs() < 1e-12);
        // halved amplitude ratio halves the score
        assert!((mu_sim(0.0, 1.0, 2.0, 1.0) - 0.5).abs() < 1e-12);
        // degenerate min falls back to 1.0 divisor
        assert!(mu_sim(0.0, 1.0, 1.0, 0.0).is_finite());
    }

    #[test]
    fn f_measure_requires_both_high() {
        assert_eq!(f_measure(0.0, 1.0), 0.0);
        assert_eq!(f_measure(1.0, 1.0), 1.0);
        assert!((f_measure(0.5, 1.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(f_measure(0.0, 0.0), 0.0);
    }

    #[test]
    fn combined_scores_normalise_by_max() {
        let scores = combined_scores(&[(2.0, 4.0), (1.0, 4.0), (2.0, 2.0)]);
        // pair 0: (1.0, 1.0) -> 1.0
        assert!((scores[0] - 1.0).abs() < 1e-12);
        // pair 1: (0.5, 1.0) -> 2/3
        assert!((scores[1] - 2.0 / 3.0).abs() < 1e-12);
        // pair 2: (1.0, 0.5) -> 2/3
        assert!((scores[2] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn combined_scores_handle_empty_and_zero() {
        assert!(combined_scores(&[]).is_empty());
        let s = combined_scores(&[(0.0, 0.0)]);
        assert_eq!(s[0], 0.0);
    }
}
