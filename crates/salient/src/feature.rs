//! Salient features: keypoint + scope + amplitude + descriptor, and the
//! top-level extraction entry point.

use crate::config::SalientConfig;
use crate::descriptor::DescriptorSampler;
use crate::detect::detect_keypoints;
use crate::keypoint::{Keypoint, ScaleClass};
use sdtw_scalespace::gradient::central_gradient;
use sdtw_scalespace::ScaleSpace;
use sdtw_tseries::{TimeSeries, TsError};
use serde::{Deserialize, Serialize};

/// A fully described salient feature of one time series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SalientFeature {
    /// The underlying keypoint `⟨x, σ⟩`.
    pub keypoint: Keypoint,
    /// Scope start (inclusive, clamped to the series).
    pub scope_start: usize,
    /// Scope end (inclusive, clamped to the series).
    pub scope_end: usize,
    /// Unclamped scope length `2·(scope_sigmas·σ)+1` — the `scope(f)`
    /// quantity of the matcher's alignment score.
    pub scope_len: f64,
    /// Mean raw series value within the scope — the feature "amplitude"
    /// used by the matcher's `τ_a` bound and `Δ_amp`.
    pub amplitude: f64,
    /// The `2a × 2` gradient descriptor.
    pub descriptor: Vec<f64>,
}

impl SalientFeature {
    /// Centre position (samples) — `center(f)` in the paper's scoring.
    pub fn center(&self) -> f64 {
        self.keypoint.position as f64
    }

    /// Scale class (fine/medium/rough) of the underlying keypoint.
    pub fn scale_class(&self) -> ScaleClass {
        self.keypoint.scale_class()
    }
}

/// The features of one series plus the context needed to interpret them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureSet {
    /// Length of the series the features were extracted from.
    pub series_len: usize,
    /// The features, sorted by position.
    pub features: Vec<SalientFeature>,
}

impl FeatureSet {
    /// Number of features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when no features were found.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Counts features per scale class (fine, medium, rough) — the Table 2
    /// reporting primitive.
    pub fn count_by_scale(&self) -> [usize; 3] {
        let mut counts = [0usize; 3];
        for f in &self.features {
            match f.scale_class() {
                ScaleClass::Fine => counts[0] += 1,
                ScaleClass::Medium => counts[1] += 1,
                ScaleClass::Rough => counts[2] += 1,
            }
        }
        counts
    }
}

/// Salient-feature extraction prepared for one [`SalientConfig`] (paper
/// §3.1.2 end-to-end: pyramid → ε-relaxed detection → contrast filter →
/// descriptors → scopes and amplitudes).
///
/// Construction validates the configuration and computes everything that
/// depends on it alone: the base and level Gaussian kernels of the
/// pyramid ([`ScaleSpace`]) and the descriptor's per-sample weights.
/// [`SalientExtractor::extract`] then pays only for the series. It is
/// immutable, so one extractor serves any number of threads; an engine
/// builds one and shares it.
#[derive(Debug, Clone)]
pub struct SalientExtractor {
    config: SalientConfig,
    scale_space: ScaleSpace,
    sampler: DescriptorSampler,
}

impl SalientExtractor {
    /// Validates `config` and prepares its kernels and tables.
    ///
    /// # Errors
    ///
    /// Configuration validation failures.
    pub fn new(config: SalientConfig) -> Result<Self, TsError> {
        config.validate()?;
        Ok(Self {
            scale_space: ScaleSpace::new(&config.pyramid)?,
            sampler: DescriptorSampler::new(&config.descriptor),
            config,
        })
    }

    /// The configuration the extractor was prepared for.
    pub fn config(&self) -> &SalientConfig {
        &self.config
    }

    /// Extracts the salient features of a series, sorted by position.
    pub fn extract(&self, ts: &TimeSeries) -> Vec<SalientFeature> {
        let pyramid = self.scale_space.build(ts);
        let keypoints = detect_keypoints(&pyramid, &self.config, ts.max() - ts.min());
        let n = ts.len();
        // one gradient per (octave, Gaussian level), computed on first use
        let levels = self.config.pyramid.levels_per_octave + 3;
        let mut gradients: Vec<Option<Vec<f64>>> = vec![None; pyramid.octaves().len() * levels];
        keypoints
            .into_iter()
            .map(|kp| {
                let (scope_start, scope_end) = kp.scope_bounds(self.config.scope_sigmas, n);
                let scope_len = kp.scope_len(self.config.scope_sigmas);
                let amplitude = ts.window_mean(scope_start, scope_end + 1);
                // The DoG level l was computed from gaussians[l] and
                // gaussians[l+1]; sample gradients on the lower one (σ
                // matching the reported scale).
                let octave = &pyramid.octaves()[kp.octave];
                let level = kp.level.min(octave.gaussians.len() - 1);
                let gradient = gradients[kp.octave * levels + level]
                    .get_or_insert_with(|| central_gradient(&octave.gaussians[level].values));
                let descriptor = self.sampler.describe(gradient, kp.octave_position);
                SalientFeature {
                    keypoint: kp,
                    scope_start,
                    scope_end,
                    scope_len,
                    amplitude,
                    descriptor,
                }
            })
            .collect()
    }
}

/// Extracts the salient features of a series: [`SalientExtractor::new`]
/// followed by [`SalientExtractor::extract`]. Extracting many series
/// under one configuration, build the extractor once instead.
///
/// # Errors
///
/// Propagates configuration validation failures.
pub fn extract_features(
    ts: &TimeSeries,
    config: &SalientConfig,
) -> Result<Vec<SalientFeature>, TsError> {
    Ok(SalientExtractor::new(config.clone())?.extract(ts))
}

/// Extracts features and wraps them in a [`FeatureSet`].
///
/// # Errors
///
/// Propagates configuration validation failures.
pub fn extract_feature_set(ts: &TimeSeries, config: &SalientConfig) -> Result<FeatureSet, TsError> {
    Ok(FeatureSet {
        series_len: ts.len(),
        features: extract_features(ts, config)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_bumps(n: usize) -> TimeSeries {
        TimeSeries::new(
            (0..n)
                .map(|i| {
                    let d1 = (i as f64 - 60.0) / 6.0;
                    let d2 = (i as f64 - 180.0) / 14.0;
                    (-d1 * d1 / 2.0).exp() + 0.8 * (-d2 * d2 / 2.0).exp()
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn extraction_finds_both_bumps() {
        let ts = two_bumps(256);
        let feats = extract_features(&ts, &SalientConfig::default()).unwrap();
        assert!(feats.iter().any(|f| (f.center() - 60.0).abs() <= 8.0));
        assert!(feats.iter().any(|f| (f.center() - 180.0).abs() <= 16.0));
    }

    #[test]
    fn scopes_are_clamped_and_ordered() {
        let ts = two_bumps(256);
        let feats = extract_features(&ts, &SalientConfig::default()).unwrap();
        for f in &feats {
            assert!(f.scope_start <= f.scope_end);
            assert!(f.scope_end < 256);
            assert!(f.scope_len >= 1.0);
            assert!(f.amplitude.is_finite());
            assert_eq!(f.descriptor.len(), 64);
        }
        for w in feats.windows(2) {
            assert!(w[0].keypoint.position <= w[1].keypoint.position);
        }
    }

    #[test]
    fn amplitude_reflects_local_level() {
        let ts = two_bumps(256);
        let feats = extract_features(&ts, &SalientConfig::default()).unwrap();
        // a feature on the taller bump has higher amplitude than the
        // series mean
        let tall = feats
            .iter()
            .filter(|f| (f.center() - 60.0).abs() <= 6.0)
            .max_by(|a, b| a.amplitude.partial_cmp(&b.amplitude).expect("finite"))
            .expect("feature near tall bump");
        assert!(tall.amplitude > ts.mean());
    }

    #[test]
    fn feature_set_counts_by_scale() {
        let ts = two_bumps(256);
        let cfg = SalientConfig::default();
        let set = extract_feature_set(&ts, &cfg).unwrap();
        let counts = set.count_by_scale();
        assert_eq!(counts.iter().sum::<usize>(), set.len());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let ts = two_bumps(64);
        let cfg = SalientConfig {
            epsilon: 2.0,
            ..Default::default()
        };
        assert!(extract_features(&ts, &cfg).is_err());
    }

    #[test]
    fn busy_series_yields_more_fine_features_than_smooth() {
        let busy = TimeSeries::new(
            (0..256)
                .map(|i| (i as f64 / 3.0).sin() + 0.5 * (i as f64 / 7.0).cos())
                .collect(),
        )
        .unwrap();
        let smooth = TimeSeries::new((0..256).map(|i| (i as f64 / 60.0).sin()).collect()).unwrap();
        // strict extremality isolates the scale-attribution claim from the
        // ε-relaxed plateau acceptance (which admits near-extremal runs on
        // smooth series by design)
        let cfg = SalientConfig {
            epsilon: 0.0,
            ..Default::default()
        };
        let b = extract_feature_set(&busy, &cfg).unwrap();
        let s = extract_feature_set(&smooth, &cfg).unwrap();
        let b_counts = b.count_by_scale();
        let s_counts = s.count_by_scale();
        assert!(
            b_counts[0] > s_counts[0],
            "busy fine {} <= smooth fine {}",
            b_counts[0],
            s_counts[0]
        );
    }

    #[test]
    fn serde_round_trip_of_feature_set() {
        let ts = two_bumps(128);
        let cfg = SalientConfig::default();
        let set = extract_feature_set(&ts, &cfg).unwrap();
        let json = serde_json::to_string(&set).unwrap();
        let back: FeatureSet = serde_json::from_str(&json).unwrap();
        // JSON float formatting is not guaranteed bit-exact; compare
        // structure exactly and floats approximately.
        assert_eq!(set.series_len, back.series_len);
        assert_eq!(set.len(), back.len());
        for (a, b) in set.features.iter().zip(&back.features) {
            assert_eq!(a.keypoint.position, b.keypoint.position);
            assert_eq!(a.keypoint.polarity, b.keypoint.polarity);
            assert_eq!((a.scope_start, a.scope_end), (b.scope_start, b.scope_end));
            assert!((a.amplitude - b.amplitude).abs() < 1e-9);
            for (x, y) in a.descriptor.iter().zip(&b.descriptor) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }
}
