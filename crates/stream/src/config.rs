//! Subsequence-search configuration.

use sdtw::{ConstraintPolicy, SDtwConfig};
use sdtw_dtw::cascade::DEFAULT_PAA_WIDTH;
use sdtw_tseries::TsError;
use serde::{Deserialize, Serialize};

/// Configuration of a [`crate::SubseqMatcher`].
///
/// The nested [`SDtwConfig`] decides the *distance windows are scored in*
/// — a `FixedCoreFixedWidth` (Sakoe-Chiba) policy gives the classic
/// UCR-suite subsequence search, an adaptive policy plans a per-window
/// sDTW band from salient descriptors (the query's descriptors are cached
/// once at matcher construction). Whatever the mode, results are
/// identical — offsets and bit-identical distances — to brute-forcing the
/// same engine over every window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// The engine configuration windows are scored under.
    pub sdtw: SDtwConfig,
    /// Z-normalise the query once and every window with its own
    /// mean/deviation (the UCR convention; makes matches invariant to the
    /// local offset and scale of the stream). Without it windows are
    /// compared raw.
    pub z_normalize: bool,
    /// Envelope window radius as a fraction of the query length
    /// (`radius = ceil(frac · len)`). The LB_Keogh stage only fires when
    /// the (sanitised) band stays inside this window — larger values keep
    /// the bound applicable to wider bands but loosen it.
    pub lb_radius_frac: f64,
    /// Minimum offset distance between two reported matches, as a
    /// fraction of the query length (`exclusion = max(1, ceil(frac ·
    /// len))`); matches closer than that are considered the same
    /// occurrence and only the best survives. The matrix-profile
    /// convention is 0.5.
    pub exclusion_frac: f64,
    /// Segment width of the coarse PAA pre-filter stage (the
    /// `sdtw_dtw::cascade` `Paa` stage: window segment means against the
    /// PAA-compressed query envelope, admissible under the same
    /// conditions as LB_Keogh but `width`× fewer metric evaluations).
    /// Values below 2 disable the stage — width 1 *is* the fine
    /// LB_Keogh.
    pub paa_width: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            sdtw: SDtwConfig::default(),
            z_normalize: true,
            lb_radius_frac: 0.1,
            exclusion_frac: 0.5,
            paa_width: DEFAULT_PAA_WIDTH,
        }
    }
}

impl StreamConfig {
    /// Classic UCR-style search: a Sakoe-Chiba band of the given total
    /// width fraction, z-normalised windows, and the envelope radius
    /// sized to dominate the band so every cascade stage applies.
    pub fn exact_banded(width_frac: f64) -> Self {
        Self {
            sdtw: SDtwConfig {
                policy: ConstraintPolicy::FixedCoreFixedWidth { width_frac },
                ..SDtwConfig::default()
            },
            z_normalize: true,
            // the band's half-width is width_frac/2 of the query length
            // (+1 for the sanitiser's corner bridging); leave headroom
            lb_radius_frac: width_frac,
            exclusion_frac: 0.5,
            paa_width: DEFAULT_PAA_WIDTH,
        }
    }

    /// sDTW-band mode: the paper's `ac2,aw` adaptive constraints, planned
    /// per window against the query's cached salient descriptors.
    pub fn sdtw_bands() -> Self {
        Self::default()
    }

    /// Validates the nested engine configuration and the matcher's own
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
        if !self.exclusion_frac.is_finite() || self.exclusion_frac < 0.0 {
            return Err(TsError::InvalidParameter {
                name: "exclusion_frac",
                reason: format!(
                    "exclusion fraction must be finite and >= 0, got {}",
                    self.exclusion_frac
                ),
            });
        }
        Ok(())
    }

    /// Envelope radius for a query of the given length, clamped to `len`
    /// (a radius covering the whole series is already the loosest
    /// envelope; larger values would only risk index overflow).
    pub fn radius_for(&self, len: usize) -> usize {
        ((self.lb_radius_frac * len as f64).ceil() as usize).min(len)
    }

    /// Exclusion distance for a query of the given length (at least 1, so
    /// two matches never share an offset).
    pub fn exclusion_for(&self, len: usize) -> usize {
        ((self.exclusion_frac * len as f64).ceil() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates_and_derives_sizes() {
        let c = StreamConfig::default();
        c.validate().unwrap();
        assert_eq!(c.radius_for(100), 10);
        assert_eq!(c.exclusion_for(100), 50);
        assert_eq!(c.exclusion_for(1), 1, "exclusion is never zero");
        // absurd fractions clamp to the series length, never overflow
        let wide = StreamConfig {
            lb_radius_frac: 1e18,
            ..StreamConfig::default()
        };
        wide.validate().unwrap();
        assert_eq!(wide.radius_for(32), 32);
    }

    #[test]
    fn exact_banded_mode_uses_a_sakoe_policy_with_headroom() {
        let c = StreamConfig::exact_banded(0.2);
        c.validate().unwrap();
        assert!(matches!(
            c.sdtw.policy,
            ConstraintPolicy::FixedCoreFixedWidth { .. }
        ));
        assert!(!c.sdtw.policy.needs_alignment());
        assert!(StreamConfig::sdtw_bands().sdtw.policy.needs_alignment());
        assert_eq!(c.radius_for(64), 13);
    }

    #[test]
    fn invalid_fractions_rejected() {
        let mut c = StreamConfig {
            lb_radius_frac: -0.1,
            ..StreamConfig::default()
        };
        assert!(c.validate().is_err());
        c.lb_radius_frac = 0.1;
        c.exclusion_frac = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_roundtrips_through_serde() {
        let c = StreamConfig {
            z_normalize: false,
            lb_radius_frac: 0.25,
            exclusion_frac: 1.0,
            ..StreamConfig::default()
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: StreamConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
