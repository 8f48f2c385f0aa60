//! Configuration of the salient feature detector and descriptor.

use sdtw_scalespace::PyramidConfig;
use sdtw_tseries::TsError;
use serde::{Deserialize, Serialize};

/// Descriptor extraction parameters (paper §3.1.2, step 2 and §4.4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DescriptorConfig {
    /// Total descriptor length (`2a × 2` in the paper's notation). Must be
    /// even and in `4..=MAX_BINS`. The paper's experiments default to 64
    /// and sweep 4…128 in Figure 18.
    pub bins: usize,
    /// Samples per histogram cell, measured at the keypoint's octave
    /// resolution (the analogue of SIFT's 4-pixel cells). Longer
    /// descriptors therefore cover wider temporal context — exactly the
    /// trade-off Figure 18 studies. Must be in
    /// `1..=MAX_SAMPLES_PER_CELL`.
    pub samples_per_cell: usize,
    /// Normalise descriptors to unit L2 norm, making them invariant to
    /// amplitude scaling. One of the paper's independently controllable
    /// invariances.
    pub amplitude_invariant: bool,
    /// After normalisation, clamp each component to this value and
    /// renormalise (SIFT's robustness trick against single dominant
    /// gradients). Ignored when `amplitude_invariant` is false.
    pub clamp: Option<f64>,
}

/// Largest accepted [`DescriptorConfig::bins`]. The paper sweeps 4–128.
pub const MAX_BINS: usize = 1024;

/// Largest accepted [`DescriptorConfig::samples_per_cell`].
pub const MAX_SAMPLES_PER_CELL: usize = 64;

impl Default for DescriptorConfig {
    fn default() -> Self {
        Self {
            bins: 64,
            samples_per_cell: 4,
            amplitude_invariant: true,
            clamp: Some(0.2),
        }
    }
}

impl DescriptorConfig {
    /// Number of cells (`2a`).
    pub fn cells(&self) -> usize {
        self.bins / 2
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`TsError::InvalidParameter`] for odd bin counts or ones outside
    /// `4..=MAX_BINS`, a cell width outside `1..=MAX_SAMPLES_PER_CELL`,
    /// or a non-positive clamp.
    pub fn validate(&self) -> Result<(), TsError> {
        if !(4..=MAX_BINS).contains(&self.bins) || !self.bins.is_multiple_of(2) {
            return Err(TsError::InvalidParameter {
                name: "bins",
                reason: format!("must be even and in 4..={MAX_BINS}, got {}", self.bins),
            });
        }
        if !(1..=MAX_SAMPLES_PER_CELL).contains(&self.samples_per_cell) {
            return Err(TsError::InvalidParameter {
                name: "samples_per_cell",
                reason: format!(
                    "must be in 1..={MAX_SAMPLES_PER_CELL}, got {}",
                    self.samples_per_cell
                ),
            });
        }
        if let Some(c) = self.clamp {
            if !c.is_finite() || c <= 0.0 {
                return Err(TsError::InvalidParameter {
                    name: "clamp",
                    reason: format!("must be finite and > 0, got {c}"),
                });
            }
        }
        Ok(())
    }
}

/// Full configuration of salient feature extraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SalientConfig {
    /// Scale-space pyramid parameters (octaves, levels, base σ).
    pub pyramid: PyramidConfig,
    /// The ε of the relaxed extremum test: accept a candidate whose
    /// response is ≥ `(1 − ε)×` every neighbour's. The paper's experiments
    /// use 0.96% (0.0096).
    pub epsilon: f64,
    /// Minimum |DoG response| for a keypoint, as a fraction of the series'
    /// value range — the low-contrast filter of SIFT step 2.
    pub contrast_threshold: f64,
    /// Scope radius in units of σ. The paper fixes 3 ("3 standard
    /// deviations would cover ~99.73% of the original time points").
    pub scope_sigmas: f64,
    /// Descriptor parameters.
    pub descriptor: DescriptorConfig,
}

impl Default for SalientConfig {
    fn default() -> Self {
        Self {
            pyramid: PyramidConfig::default(),
            epsilon: 0.0096,
            contrast_threshold: 1e-3,
            scope_sigmas: 3.0,
            descriptor: DescriptorConfig::default(),
        }
    }
}

impl SalientConfig {
    /// Validates the configuration (including the nested pyramid and
    /// descriptor configs).
    ///
    /// # Errors
    ///
    /// [`TsError::InvalidParameter`] on any out-of-domain field.
    pub fn validate(&self) -> Result<(), TsError> {
        self.pyramid.validate()?;
        self.descriptor.validate()?;
        if !(0.0..1.0).contains(&self.epsilon) {
            return Err(TsError::InvalidParameter {
                name: "epsilon",
                reason: format!("must be in [0, 1), got {}", self.epsilon),
            });
        }
        if !self.contrast_threshold.is_finite() || self.contrast_threshold < 0.0 {
            return Err(TsError::InvalidParameter {
                name: "contrast_threshold",
                reason: format!("must be finite and >= 0, got {}", self.contrast_threshold),
            });
        }
        if !self.scope_sigmas.is_finite() || self.scope_sigmas <= 0.0 {
            return Err(TsError::InvalidParameter {
                name: "scope_sigmas",
                reason: format!("must be finite and > 0, got {}", self.scope_sigmas),
            });
        }
        Ok(())
    }

    /// Convenience: the default configuration with a different descriptor
    /// length (the Figure 18 sweep knob).
    #[must_use]
    pub fn with_descriptor_bins(mut self, bins: usize) -> Self {
        self.descriptor.bins = bins;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SalientConfig::default().validate().unwrap();
    }

    #[test]
    fn default_descriptor_is_papers_64_bins() {
        let cfg = SalientConfig::default();
        assert_eq!(cfg.descriptor.bins, 64);
        assert_eq!(cfg.descriptor.cells(), 32);
        assert!((cfg.epsilon - 0.0096).abs() < 1e-12);
        assert_eq!(cfg.scope_sigmas, 3.0);
    }

    #[test]
    fn descriptor_rejects_bad_bins() {
        for bins in [0, 2, 3, 5, 7] {
            let cfg = DescriptorConfig {
                bins,
                ..Default::default()
            };
            assert!(cfg.validate().is_err(), "bins={bins} should be rejected");
        }
        let cfg = DescriptorConfig {
            bins: 4,
            ..Default::default()
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn descriptor_rejects_zero_cell_width_and_bad_clamp() {
        let cfg = DescriptorConfig {
            samples_per_cell: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = DescriptorConfig {
            clamp: Some(0.0),
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = DescriptorConfig {
            clamp: None,
            ..Default::default()
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn descriptor_caps_name_the_field() {
        let cases = [
            ("bins", MAX_BINS + 2, 4),
            ("bins", 1 << 40, 4),
            ("samples_per_cell", 64, MAX_SAMPLES_PER_CELL + 1),
            ("samples_per_cell", 64, 1 << 32),
        ];
        for (field, bins, samples_per_cell) in cases {
            let cfg = DescriptorConfig {
                bins,
                samples_per_cell,
                ..Default::default()
            };
            match cfg.validate() {
                Err(TsError::InvalidParameter { name, .. }) => assert_eq!(name, field),
                other => panic!("{field}: expected InvalidParameter, got {other:?}"),
            }
        }
        DescriptorConfig {
            bins: MAX_BINS,
            samples_per_cell: MAX_SAMPLES_PER_CELL,
            ..Default::default()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn salient_rejects_bad_epsilon_and_thresholds() {
        let cfg = SalientConfig {
            epsilon: 1.0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = SalientConfig {
            epsilon: -0.1,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = SalientConfig {
            contrast_threshold: f64::NAN,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = SalientConfig {
            scope_sigmas: 0.0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn with_descriptor_bins_builder() {
        let cfg = SalientConfig::default().with_descriptor_bins(8);
        assert_eq!(cfg.descriptor.bins, 8);
        cfg.validate().unwrap();
    }

    #[test]
    fn serde_round_trip() {
        let cfg = SalientConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SalientConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
