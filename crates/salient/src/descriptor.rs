//! Temporal feature descriptors (paper §3.1.2, step 2).
//!
//! The 1D reduction of SIFT's descriptor: superimpose `2a` cells along time
//! around the keypoint, at the keypoint's own octave resolution; for each
//! cell accumulate a 2-bin gradient histogram — total magnitude of positive
//! slopes and total magnitude of negative slopes (the only two
//! "orientations" a 1D gradient has). Magnitudes are Gaussian-weighted by
//! distance from the keypoint so the descriptor changes smoothly as the
//! window shifts. Total length is `2a × 2 = bins`.

use crate::config::DescriptorConfig;
use crate::keypoint::Keypoint;
use sdtw_scalespace::gradient::central_gradient;
use sdtw_scalespace::kernel::GaussianKernel;
use sdtw_scalespace::Pyramid;

/// Builds the descriptor for one keypoint from the pyramid it was detected
/// in. Returns `bins` values (non-negative; unit-L2 when
/// `amplitude_invariant`).
///
/// Sampling happens on the Gaussian level matching the keypoint's DoG level
/// in the keypoint's octave — so a fixed `bins` covers wider original-time
/// ranges for coarser keypoints, which is exactly the multi-scale context
/// behaviour Figure 6 of the paper illustrates.
///
/// This prepares the sample layout and the gradient for one keypoint;
/// [`crate::SalientExtractor`] prepares the layout once per configuration
/// and each gradient once per call.
pub fn build_descriptor(
    pyramid: &Pyramid,
    keypoint: &Keypoint,
    config: &DescriptorConfig,
) -> Vec<f64> {
    let octave = &pyramid.octaves()[keypoint.octave];
    // The DoG level l was computed from gaussians[l] and gaussians[l+1];
    // sample gradients on the lower one (σ matching the reported scale).
    let smoothed = &octave.gaussians[keypoint.level.min(octave.gaussians.len() - 1)].values;
    DescriptorSampler::new(config).describe(&central_gradient(smoothed), keypoint.octave_position)
}

/// The configuration-only part of descriptor building: where each sample
/// sits relative to the keypoint and its Gaussian weight.
///
/// `2a` cells of `samples_per_cell` samples each, `T` samples in all, are
/// laid out around the keypoint's octave position `c`; sample `k` sits at
/// `c − T/2 + k + 1/2`, is read from the gradient at that position
/// rounded half away from zero (clamped to the series), and is weighted
/// by `exp(−x² / 2σ_w²)` with `x = k + 1/2 − T/2` and `σ_w` half the
/// descriptor's half-span (SIFT's choice). Positions and offsets are
/// exact multiples of `1/2`, so the weight of sample `k` does not depend
/// on `c`, and the rounded position is the integer `c + k + 1 − ⌈T/2⌉`
/// wherever it is not negative (negative positions clamp to index 0
/// either way).
#[derive(Debug, Clone)]
pub(crate) struct DescriptorSampler {
    config: DescriptorConfig,
    /// Weight of each of the `T` samples, in sampling order.
    weights: Vec<f64>,
    /// Index of sample 0 relative to the keypoint, before clamping.
    first_offset: isize,
}

impl DescriptorSampler {
    /// Prepares the sample layout of `config` (assumed validated).
    pub(crate) fn new(config: &DescriptorConfig) -> Self {
        let samples = config.cells() * config.samples_per_cell;
        let half_span = samples as f64 / 2.0;
        // Gaussian weighting window: σ_w = half the descriptor span (SIFT
        // uses one half of the descriptor window width).
        let weight_sigma = half_span.max(1.0) / 2.0;
        let weights = (0..samples)
            .map(|k| GaussianKernel::continuous_weight(weight_sigma, (k as f64 + 0.5) - half_span))
            .collect();
        Self {
            config: config.clone(),
            weights,
            first_offset: 1 - samples.div_ceil(2) as isize,
        }
    }

    /// The descriptor of the keypoint at octave position `centre`, read
    /// from `gradient`: the central-difference gradient of the keypoint's
    /// Gaussian level.
    pub(crate) fn describe(&self, gradient: &[f64], centre: usize) -> Vec<f64> {
        let mut desc = vec![0.0; self.config.bins];
        if let Some(last) = gradient.len().checked_sub(1) {
            let width = self.config.samples_per_cell;
            let first = centre as isize + self.first_offset;
            let cells = self
                .weights
                .chunks_exact(width)
                .zip(desc.chunks_exact_mut(2));
            for (c, (weights, histogram)) in cells.enumerate() {
                for (s, &w) in weights.iter().enumerate() {
                    // boundary cells re-read the edge samples
                    let idx = (first + (c * width + s) as isize).clamp(0, last as isize);
                    let g = gradient[idx as usize];
                    let mag = g.abs() * w;
                    if g >= 0.0 {
                        histogram[0] += mag;
                    } else {
                        histogram[1] += mag;
                    }
                }
            }
        }
        if self.config.amplitude_invariant {
            normalize(&mut desc, self.config.clamp);
        }
        desc
    }
}

/// L2-normalises in place; optionally clamps components and renormalises
/// (SIFT's robustness step). A zero vector is left unchanged.
fn normalize(desc: &mut [f64], clamp: Option<f64>) {
    let norm = |d: &[f64]| d.iter().map(|v| v * v).sum::<f64>().sqrt();
    let n0 = norm(desc);
    if n0 == 0.0 {
        return;
    }
    for v in desc.iter_mut() {
        *v /= n0;
    }
    if let Some(c) = clamp {
        let mut clipped = false;
        for v in desc.iter_mut() {
            if *v > c {
                *v = c;
                clipped = true;
            }
        }
        if clipped {
            let n1 = norm(desc);
            if n1 > 0.0 {
                for v in desc.iter_mut() {
                    *v /= n1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SalientConfig;
    use crate::detect::detect_keypoints;

    use sdtw_tseries::TimeSeries;

    fn bump(n: usize, centre: f64, width: f64, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let d = (i as f64 - centre) / width;
                amp * (-d * d / 2.0).exp()
            })
            .collect()
    }

    fn strongest_peak_descriptor(values: Vec<f64>, cfg: &SalientConfig) -> (Keypoint, Vec<f64>) {
        strongest_descriptor_near(values, cfg, None)
    }

    /// Strongest keypoint (optionally restricted to ±12 samples of a known
    /// feature centre, so tests compare like-for-like keypoints).
    fn strongest_descriptor_near(
        values: Vec<f64>,
        cfg: &SalientConfig,
        near: Option<usize>,
    ) -> (Keypoint, Vec<f64>) {
        let ts = TimeSeries::new(values).unwrap();
        let pyr = Pyramid::build(&ts, &cfg.pyramid).unwrap();
        let kps = detect_keypoints(&pyr, cfg, ts.max() - ts.min());
        let kp = kps
            .into_iter()
            .filter(|k| near.is_none_or(|c| (k.position as i64 - c as i64).unsigned_abs() <= 12))
            .max_by(|a, b| {
                a.response
                    .abs()
                    .partial_cmp(&b.response.abs())
                    .expect("finite")
            })
            .expect("keypoints exist");
        let d = build_descriptor(&pyr, &kp, &cfg.descriptor);
        (kp, d)
    }

    #[test]
    fn descriptor_has_configured_length() {
        for bins in [4usize, 8, 16, 32, 64, 128] {
            let cfg = SalientConfig::default().with_descriptor_bins(bins);
            let (_, d) = strongest_peak_descriptor(bump(256, 128.0, 8.0, 1.0), &cfg);
            assert_eq!(d.len(), bins);
        }
    }

    #[test]
    fn descriptor_is_unit_norm_when_invariant() {
        let cfg = SalientConfig::default();
        let (_, d) = strongest_peak_descriptor(bump(256, 128.0, 8.0, 1.0), &cfg);
        let norm: f64 = d.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9, "norm = {norm}");
        assert!(d.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn amplitude_invariance_on_and_off() {
        let cfg_on = SalientConfig::default();
        let mut cfg_off = SalientConfig::default();
        cfg_off.descriptor.amplitude_invariant = false;

        let (_, d1_on) = strongest_peak_descriptor(bump(256, 128.0, 8.0, 1.0), &cfg_on);
        let (_, d2_on) = strongest_peak_descriptor(bump(256, 128.0, 8.0, 3.0), &cfg_on);
        let dist_on: f64 = d1_on
            .iter()
            .zip(&d2_on)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(dist_on < 0.05, "normalised descriptors differ: {dist_on}");

        let (_, d1_off) = strongest_peak_descriptor(bump(256, 128.0, 8.0, 1.0), &cfg_off);
        let (_, d2_off) = strongest_peak_descriptor(bump(256, 128.0, 8.0, 3.0), &cfg_off);
        let dist_off: f64 = d1_off
            .iter()
            .zip(&d2_off)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(
            dist_off > dist_on * 5.0,
            "raw descriptors should diverge: {dist_off} vs {dist_on}"
        );
    }

    #[test]
    fn shift_invariance_of_descriptor() {
        // the same feature at a different position produces (nearly) the
        // same descriptor (comparing the dominant keypoint *of the bump*,
        // not the globally strongest one, which may be a side lobe)
        let cfg = SalientConfig::default();
        let (_, d1) = strongest_descriptor_near(bump(256, 80.0, 8.0, 1.0), &cfg, Some(80));
        let (_, d2) = strongest_descriptor_near(bump(256, 150.0, 8.0, 1.0), &cfg, Some(150));
        let dist: f64 = d1
            .iter()
            .zip(&d2)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(dist < 0.1, "shifted descriptors differ by {dist}");
    }

    #[test]
    fn different_shapes_have_different_descriptors() {
        let cfg = SalientConfig::default();
        let (_, d_bump) = strongest_peak_descriptor(bump(256, 128.0, 8.0, 1.0), &cfg);
        // a ramp feature: rising sawtooth has asymmetric slopes
        let ramp: Vec<f64> = (0..256)
            .map(|i| {
                let d = i as f64 - 128.0;
                if (-24.0..0.0).contains(&d) {
                    1.0 + d / 24.0
                } else if (0.0..4.0).contains(&d) {
                    1.0 - d / 4.0
                } else {
                    0.0
                }
            })
            .collect();
        let (_, d_ramp) = strongest_peak_descriptor(ramp, &cfg);
        let dist: f64 = d_bump
            .iter()
            .zip(&d_ramp)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 0.15, "distinct shapes too close: {dist}");
    }

    #[test]
    fn clamp_reduces_dominance_and_keeps_unit_norm() {
        // SIFT semantics: one clamp + renormalise pass. The dominant
        // component may still exceed the clamp after renormalisation, but
        // the *relative* weight of the small components must grow.
        let mut unclamped = vec![10.0, 0.1, 0.1, 0.1];
        normalize(&mut unclamped, None);
        let mut clamped = vec![10.0, 0.1, 0.1, 0.1];
        normalize(&mut clamped, Some(0.2));
        let norm: f64 = clamped.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
        assert!(clamped[1] > unclamped[1] * 3.0, "small components lifted");
        assert!(clamped[0] < unclamped[0], "dominant component reduced");
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut d = vec![0.0; 8];
        normalize(&mut d, Some(0.2));
        assert!(d.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn descriptor_near_boundary_does_not_panic() {
        let cfg = SalientConfig::default();
        let ts = TimeSeries::new(bump(64, 3.0, 2.0, 1.0)).unwrap();
        let pyr = Pyramid::build(&ts, &cfg.pyramid).unwrap();
        let kps = detect_keypoints(&pyr, &cfg, ts.max() - ts.min());
        for kp in &kps {
            let d = build_descriptor(&pyr, kp, &cfg.descriptor);
            assert_eq!(d.len(), cfg.descriptor.bins);
            assert!(d.iter().all(|v| v.is_finite()));
        }
    }
}
