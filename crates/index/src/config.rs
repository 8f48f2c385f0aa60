//! Index configuration.

use sdtw::{ConstraintPolicy, SDtwConfig};
pub use sdtw_dtw::cascade::DEFAULT_PAA_WIDTH;
use sdtw_tseries::TsError;
use serde::{Deserialize, Serialize};

/// Configuration of a [`crate::SdtwIndex`].
///
/// The nested [`SDtwConfig`] decides the *distance the index answers in*:
/// a `FixedCoreFixedWidth` (Sakoe-Chiba) or `FullGrid` policy gives the
/// classic exact-banded-DTW index, an adaptive policy gives the paper's
/// sDTW distance with per-pair salient-feature bands (planned from the
/// descriptors cached in the index at build time). Whatever the mode,
/// query results are identical — ids and distances — to brute-forcing the
/// same engine over the corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexConfig {
    /// The engine configuration queries are answered under.
    pub sdtw: SDtwConfig,
    /// Z-normalise every corpus entry at build time and every query at
    /// query time (the UCR convention; makes LB_Kim's extremum terms and
    /// the envelope tubes comparable across offsets/scales).
    pub z_normalize: bool,
    /// Envelope window radius as a fraction of the series length
    /// (`radius = ceil(frac · len)`). The LB_Keogh stages only fire on
    /// pairs whose (sanitised) band stays inside this window — larger
    /// values keep the bounds applicable to wider bands but loosen them.
    pub lb_radius_frac: f64,
    /// Segment width of the coarse PAA pre-filter stage, slotted between
    /// LB_Kim and LB_Keogh in the query cascade (same convention as
    /// `sdtw_stream`): each entry carries a
    /// [`sdtw_dtw::cascade::CoarseEnvelope`] built from its LB_Keogh
    /// envelope, screened in `O(len / width)` metric evaluations before
    /// the `O(len)` fine bound runs. Values below 2 disable the stage
    /// (and the per-entry coarse artefact) entirely.
    pub paa_width: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            sdtw: SDtwConfig::default(),
            z_normalize: false,
            lb_radius_frac: 0.1,
            paa_width: DEFAULT_PAA_WIDTH,
        }
    }
}

impl IndexConfig {
    /// Exact banded-DTW mode: a Sakoe-Chiba band of the given total width
    /// fraction, with the envelope window sized to dominate the band (so
    /// every cascade stage is applicable on equal-length corpora).
    pub fn exact_banded(width_frac: f64) -> Self {
        Self {
            sdtw: SDtwConfig {
                policy: ConstraintPolicy::FixedCoreFixedWidth { width_frac },
                ..SDtwConfig::default()
            },
            z_normalize: false,
            // the band's half-width is width_frac/2 of M (+1 for the
            // sanitiser's corner bridging); leave comfortable headroom
            lb_radius_frac: width_frac,
            paa_width: DEFAULT_PAA_WIDTH,
        }
    }

    /// sDTW-band mode: the paper's `ac2,aw` adaptive constraints, planned
    /// per pair from the salient descriptors cached in the index.
    pub fn sdtw_bands() -> Self {
        Self::default()
    }

    /// Validates the nested engine configuration and the index's own
    /// parameters.
    ///
    /// # Errors
    ///
    /// The first [`TsError::InvalidParameter`] found.
    pub fn validate(&self) -> Result<(), TsError> {
        self.sdtw.validate()?;
        if !self.lb_radius_frac.is_finite() || self.lb_radius_frac < 0.0 {
            return Err(TsError::InvalidParameter {
                name: "lb_radius_frac",
                reason: format!(
                    "envelope radius fraction must be finite and >= 0, got {}",
                    self.lb_radius_frac
                ),
            });
        }
        Ok(())
    }

    /// Envelope radius for a series of the given length, clamped to
    /// `len` (a radius covering the whole series is already the loosest
    /// envelope; larger values would only risk index overflow).
    pub fn radius_for(&self, len: usize) -> usize {
        ((self.lb_radius_frac * len as f64).ceil() as usize).min(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates_and_radii_scale_with_length() {
        let c = IndexConfig::default();
        c.validate().unwrap();
        assert_eq!(c.radius_for(100), 10);
        assert_eq!(c.radius_for(0), 0);
        assert_eq!(c.radius_for(101), 11, "ceil, not floor");
        // absurd fractions clamp to the series length, never overflow
        let wide = IndexConfig {
            lb_radius_frac: 1e18,
            ..IndexConfig::default()
        };
        wide.validate().unwrap();
        assert_eq!(wide.radius_for(32), 32);
    }

    #[test]
    fn exact_banded_mode_uses_a_sakoe_policy() {
        let c = IndexConfig::exact_banded(0.2);
        c.validate().unwrap();
        assert!(matches!(
            c.sdtw.policy,
            ConstraintPolicy::FixedCoreFixedWidth { .. }
        ));
        assert!(!c.sdtw.policy.needs_alignment());
        assert!(IndexConfig::sdtw_bands().sdtw.policy.needs_alignment());
    }

    #[test]
    fn invalid_radius_fraction_rejected() {
        let mut c = IndexConfig {
            lb_radius_frac: -0.5,
            ..IndexConfig::default()
        };
        assert!(c.validate().is_err());
        c.lb_radius_frac = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn invalid_engine_config_rejected() {
        let mut c = IndexConfig::exact_banded(0.0);
        assert!(c.validate().is_err(), "zero-width Sakoe band is invalid");
        c.sdtw.policy = ConstraintPolicy::FullGrid;
        c.validate().unwrap();
    }

    #[test]
    fn config_roundtrips_through_serde() {
        let c = IndexConfig {
            z_normalize: true,
            lb_radius_frac: 0.25,
            paa_width: 4,
            ..IndexConfig::default()
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: IndexConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
