//! The octave/level Gaussian scale-space pyramid with
//! difference-of-Gaussian (DoG) stacks.
//!
//! Construction follows the paper's §3.1.2 (which in turn follows Lowe's
//! SIFT): the series is reduced into `o` octaves, each octave corresponding
//! to a doubling of the smoothing rate; each octave is divided into `s`
//! levels by repeatedly convolving with Gaussians with parameter `κ`
//! (`κ^s = 2`); adjacent smoothed levels are subtracted to produce DoG
//! series, which the detector (in `sdtw-salient`) scans for ε-relaxed
//! extrema. After the `s` levels of an octave are processed, the series
//! corresponding to the doubled σ is downsampled by picking every second
//! sample to form the base of the next octave.
//!
//! Per octave we build `s + 3` smoothed levels (yielding `s + 2` DoG
//! levels), so that extrema detection can compare the `s` interior DoG
//! levels with a full up-scale and down-scale neighbour — the standard SIFT
//! arrangement.

use crate::convolve::{convolve_reflect_into, downsample_half};
use crate::kernel::GaussianKernel;
use sdtw_tseries::{TimeSeries, TsError};
use serde::{Deserialize, Serialize};

/// Configuration of the scale-space pyramid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PyramidConfig {
    /// Number of octaves. `None` uses the paper's default
    /// `o = ⌊log2 N⌋ − 6`, clamped to at least 1 and capped so every octave
    /// keeps at least [`PyramidConfig::min_octave_len`] samples.
    pub octaves: Option<usize>,
    /// Levels per octave (`s` in the paper; default 2, so `κ = √2`).
    pub levels_per_octave: usize,
    /// Base smoothing σ of the first level of each octave, in samples of
    /// that octave's resolution (SIFT's conventional 1.6).
    pub base_sigma: f64,
    /// Octaves stop when the downsampled series would fall below this
    /// length (extrema detection needs room for neighbours).
    pub min_octave_len: usize,
}

/// Largest accepted [`PyramidConfig::octaves`]: a series would need more
/// than `2^64` samples to fill more octaves.
pub const MAX_OCTAVES: usize = 64;

/// Largest accepted [`PyramidConfig::levels_per_octave`]. Every octave
/// convolves `s + 2` times, so `s` bounds the work per sample.
pub const MAX_LEVELS_PER_OCTAVE: usize = 16;

/// Largest accepted [`PyramidConfig::base_sigma`], in samples. The kernel
/// radii grow with it, and the kernels are allocated up front.
pub const MAX_BASE_SIGMA: f64 = 64.0;

impl Default for PyramidConfig {
    fn default() -> Self {
        Self {
            octaves: None,
            levels_per_octave: 2,
            base_sigma: 1.6,
            min_octave_len: 8,
        }
    }
}

impl PyramidConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`TsError::InvalidParameter`] for a level count outside
    /// `1..=MAX_LEVELS_PER_OCTAVE`, a base sigma outside
    /// `(0, MAX_BASE_SIGMA]`, a `min_octave_len` smaller than 3 (extrema
    /// need two neighbours), or an octave count outside `1..=MAX_OCTAVES`.
    pub fn validate(&self) -> Result<(), TsError> {
        if !(1..=MAX_LEVELS_PER_OCTAVE).contains(&self.levels_per_octave) {
            return Err(TsError::InvalidParameter {
                name: "levels_per_octave",
                reason: format!(
                    "must be in 1..={MAX_LEVELS_PER_OCTAVE}, got {}",
                    self.levels_per_octave
                ),
            });
        }
        if !(self.base_sigma > 0.0 && self.base_sigma <= MAX_BASE_SIGMA) {
            return Err(TsError::InvalidParameter {
                name: "base_sigma",
                reason: format!("must be in (0, {MAX_BASE_SIGMA}], got {}", self.base_sigma),
            });
        }
        if self.min_octave_len < 3 {
            return Err(TsError::InvalidParameter {
                name: "min_octave_len",
                reason: "must be at least 3".into(),
            });
        }
        if let Some(octaves) = self.octaves {
            if !(1..=MAX_OCTAVES).contains(&octaves) {
                return Err(TsError::InvalidParameter {
                    name: "octaves",
                    reason: format!("must be in 1..={MAX_OCTAVES} when given, got {octaves}"),
                });
            }
        }
        Ok(())
    }

    /// The paper's default octave count for a series of length `n`:
    /// `⌊log2 n⌋ − 6`, clamped to `[1, ∞)`.
    pub fn paper_octaves(n: usize) -> usize {
        if n < 2 {
            return 1;
        }
        let log2 = (usize::BITS - 1 - n.leading_zeros()) as isize; // floor(log2 n)
        (log2 - 6).max(1) as usize
    }

    /// Octave count actually used when `octaves` is `None`:
    /// `max(paper_octaves(n), 4)`. For the paper's series lengths
    /// (150–275) the literal formula yields 1–2 octaves, whose scale range
    /// (σ ≲ 4.5 samples) cannot represent the *rough*-scale features the
    /// paper reports in Table 2 (scopes ≥ 15% of the series). Four octaves
    /// cover σ up to ≈ 25 samples (scopes up to the full series length for
    /// these datasets); the cap from `min_octave_len` still applies.
    /// Recorded as a deliberate deviation in DESIGN.md.
    pub fn auto_octaves(n: usize) -> usize {
        Self::paper_octaves(n).max(4)
    }

    /// The per-level scale multiplier `κ` with `κ^s = 2`.
    pub fn kappa(&self) -> f64 {
        2f64.powf(1.0 / self.levels_per_octave as f64)
    }
}

/// One smoothed level of an octave.
#[derive(Debug, Clone, PartialEq)]
pub struct Level {
    /// Smoothing σ in the octave's own resolution.
    pub sigma_octave: f64,
    /// Smoothing σ expressed in original-series samples (σ_octave · 2^o).
    pub sigma_absolute: f64,
    /// The smoothed samples at this octave's resolution.
    pub values: Vec<f64>,
}

/// One octave: its Gaussian levels and DoG stack.
#[derive(Debug, Clone, PartialEq)]
pub struct Octave {
    /// Octave index (0 = original resolution).
    pub index: usize,
    /// Downsampling factor relative to the input (2^index).
    pub factor: usize,
    /// `s + 3` Gaussian-smoothed levels (ascending σ).
    pub gaussians: Vec<Level>,
    /// `s + 2` DoG levels; `dog[l] = gaussians[l+1] - gaussians[l]`,
    /// attributed the σ of `gaussians[l]`.
    pub dog: Vec<Level>,
}

impl Octave {
    /// Number of samples at this octave's resolution.
    pub fn len(&self) -> usize {
        self.gaussians.first().map_or(0, |l| l.values.len())
    }

    /// Whether the octave carries no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maps an index at this octave's resolution back to the original
    /// series resolution.
    #[inline]
    pub fn to_original_index(&self, i: usize) -> usize {
        i * self.factor
    }
}

/// A fully built scale-space pyramid.
#[derive(Debug, Clone, PartialEq)]
pub struct Pyramid {
    octaves: Vec<Octave>,
    config: PyramidConfig,
    input_len: usize,
}

/// A [`PyramidConfig`] validated once, with every Gaussian kernel its
/// pyramids convolve with: the base kernel and the `s + 2` incremental
/// level kernels. Those depend on the configuration alone, not on the
/// octave or the series, so one `ScaleSpace` builds any number of
/// pyramids.
#[derive(Debug, Clone)]
pub struct ScaleSpace {
    config: PyramidConfig,
    base_kernel: GaussianKernel,
    /// For each level `l ≥ 1` of an octave, at `levels[l - 1]`: its σ in
    /// the octave's own resolution, and the kernel that smooths level
    /// `l − 1` into it.
    levels: Vec<(f64, GaussianKernel)>,
}

impl ScaleSpace {
    /// Validates `config` and builds its kernels.
    ///
    /// # Errors
    ///
    /// Configuration validation errors.
    pub fn new(config: &PyramidConfig) -> Result<Self, TsError> {
        config.validate()?;
        let kappa = config.kappa();
        // Gaussian levels: level l has sigma base_sigma * kappa^l in
        // octave resolution. Level 0 is the octave's base; level l>0 is
        // obtained by incrementally smoothing level l-1 with the sigma
        // difference (Gaussian semigroup: σ_inc² = σ_l² − σ_{l-1}²).
        let levels = (1..(config.levels_per_octave + 3))
            .map(|l| {
                let sigma_prev = config.base_sigma * kappa.powi(l as i32 - 1);
                let sigma_this = config.base_sigma * kappa.powi(l as i32);
                let sigma_inc = (sigma_this * sigma_this - sigma_prev * sigma_prev).sqrt();
                Ok((sigma_this, GaussianKernel::new(sigma_inc)?))
            })
            .collect::<Result<_, TsError>>()?;
        Ok(Self {
            config: config.clone(),
            base_kernel: GaussianKernel::new(config.base_sigma)?,
            levels,
        })
    }

    /// Builds the pyramid for a series.
    pub fn build(&self, ts: &TimeSeries) -> Pyramid {
        let config = &self.config;
        let n = ts.len();
        let requested = config
            .octaves
            .unwrap_or_else(|| PyramidConfig::auto_octaves(n));
        let s = config.levels_per_octave;

        let mut octaves = Vec::with_capacity(requested);
        let mut padded = Vec::new();
        // base of octave 0: the input smoothed to base_sigma
        let mut base = Vec::with_capacity(n);
        convolve_reflect_into(ts.values(), &self.base_kernel, &mut padded, &mut base);
        let mut factor = 1usize;

        for index in 0..requested {
            if base.len() < config.min_octave_len {
                break;
            }
            let len = base.len();
            let mut gaussians: Vec<Level> = Vec::with_capacity(s + 3);
            gaussians.push(Level {
                sigma_octave: config.base_sigma,
                sigma_absolute: config.base_sigma * factor as f64,
                values: base,
            });
            for l in 1..(s + 3) {
                let (sigma_this, kernel) = &self.levels[l - 1];
                let mut values = Vec::with_capacity(len);
                convolve_reflect_into(&gaussians[l - 1].values, kernel, &mut padded, &mut values);
                gaussians.push(Level {
                    sigma_octave: *sigma_this,
                    sigma_absolute: sigma_this * factor as f64,
                    values,
                });
            }
            // DoG stack
            let mut dog = Vec::with_capacity(s + 2);
            for l in 0..(s + 2) {
                let values = gaussians[l + 1]
                    .values
                    .iter()
                    .zip(&gaussians[l].values)
                    .map(|(hi, lo)| hi - lo)
                    .collect();
                dog.push(Level {
                    sigma_octave: gaussians[l].sigma_octave,
                    sigma_absolute: gaussians[l].sigma_absolute,
                    values,
                });
            }
            // Next octave: downsample the level with doubled sigma
            // (gaussians[s] has sigma base*kappa^s = 2*base).
            let next_base = downsample_half(&gaussians[s].values);
            octaves.push(Octave {
                index,
                factor,
                gaussians,
                dog,
            });
            base = next_base;
            factor *= 2;
        }

        Pyramid {
            octaves,
            config: config.clone(),
            input_len: n,
        }
    }
}

impl Pyramid {
    /// Builds the pyramid for a series: [`ScaleSpace::new`] followed by
    /// [`ScaleSpace::build`]. Build a [`ScaleSpace`] once to make many
    /// pyramids under one configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn build(ts: &TimeSeries, config: &PyramidConfig) -> Result<Self, TsError> {
        Ok(ScaleSpace::new(config)?.build(ts))
    }

    /// The octaves, finest first.
    pub fn octaves(&self) -> &[Octave] {
        &self.octaves
    }

    /// The configuration used to build this pyramid.
    pub fn config(&self) -> &PyramidConfig {
        &self.config
    }

    /// Length of the input series.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Total number of DoG sample positions across all octaves and levels —
    /// the size of the detector's search space (used in work accounting).
    pub fn dog_cells(&self) -> usize {
        self.octaves
            .iter()
            .map(|o| o.dog.iter().map(|l| l.values.len()).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(n: usize, period: f64) -> TimeSeries {
        TimeSeries::new(
            (0..n)
                .map(|i| (i as f64 * std::f64::consts::TAU / period).sin())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn paper_octave_formula() {
        assert_eq!(PyramidConfig::paper_octaves(150), 1); // floor(log2 150)=7
        assert_eq!(PyramidConfig::paper_octaves(275), 2); // floor(log2 275)=8
        assert_eq!(PyramidConfig::paper_octaves(270), 2);
        assert_eq!(PyramidConfig::paper_octaves(1 << 10), 4);
        assert_eq!(PyramidConfig::paper_octaves(1), 1);
        assert_eq!(PyramidConfig::paper_octaves(0), 1);
    }

    #[test]
    fn auto_octaves_guarantees_scale_coverage() {
        assert_eq!(PyramidConfig::auto_octaves(150), 4);
        assert_eq!(PyramidConfig::auto_octaves(275), 4);
        assert_eq!(PyramidConfig::auto_octaves(1 << 10), 4);
        assert_eq!(PyramidConfig::auto_octaves(1 << 12), 6);
    }

    #[test]
    fn kappa_satisfies_doubling() {
        let cfg = PyramidConfig {
            levels_per_octave: 2,
            ..Default::default()
        };
        assert!((cfg.kappa().powi(2) - 2.0).abs() < 1e-12);
        let cfg3 = PyramidConfig {
            levels_per_octave: 3,
            ..Default::default()
        };
        assert!((cfg3.kappa().powi(3) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let cfg = PyramidConfig {
            levels_per_octave: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = PyramidConfig {
            base_sigma: 0.0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = PyramidConfig {
            min_octave_len: 2,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = PyramidConfig {
            octaves: Some(0),
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_caps_name_the_field() {
        let cases = [
            (
                "octaves",
                PyramidConfig {
                    octaves: Some(MAX_OCTAVES + 1),
                    ..Default::default()
                },
            ),
            (
                "octaves",
                PyramidConfig {
                    octaves: Some(1 << 40),
                    ..Default::default()
                },
            ),
            (
                "levels_per_octave",
                PyramidConfig {
                    levels_per_octave: 50_000_000,
                    ..Default::default()
                },
            ),
            (
                "base_sigma",
                PyramidConfig {
                    base_sigma: 1e12,
                    ..Default::default()
                },
            ),
            (
                "base_sigma",
                PyramidConfig {
                    base_sigma: f64::INFINITY,
                    ..Default::default()
                },
            ),
        ];
        for (field, cfg) in cases {
            match cfg.validate() {
                Err(TsError::InvalidParameter { name, .. }) => assert_eq!(name, field),
                other => panic!("{field}: expected InvalidParameter, got {other:?}"),
            }
        }
        let widest = PyramidConfig {
            octaves: Some(MAX_OCTAVES),
            levels_per_octave: MAX_LEVELS_PER_OCTAVE,
            base_sigma: MAX_BASE_SIGMA,
            ..Default::default()
        };
        let pyr = Pyramid::build(&sine(64, 16.0), &widest).unwrap();
        assert_eq!(pyr.octaves().len(), 4, "64, 32, 16 and 8 samples");
    }

    #[test]
    fn builds_requested_octave_structure() {
        let ts = sine(256, 40.0);
        let cfg = PyramidConfig {
            octaves: Some(3),
            ..Default::default()
        };
        let pyr = Pyramid::build(&ts, &cfg).unwrap();
        assert_eq!(pyr.octaves().len(), 3);
        let s = cfg.levels_per_octave;
        for (i, oct) in pyr.octaves().iter().enumerate() {
            assert_eq!(oct.index, i);
            assert_eq!(oct.factor, 1 << i);
            assert_eq!(oct.gaussians.len(), s + 3);
            assert_eq!(oct.dog.len(), s + 2);
            for l in &oct.dog {
                assert_eq!(l.values.len(), oct.len());
            }
        }
        // resolutions halve
        assert_eq!(pyr.octaves()[1].len(), 128);
        assert_eq!(pyr.octaves()[2].len(), 64);
    }

    #[test]
    fn octave_count_capped_by_min_len() {
        let ts = sine(32, 8.0);
        let cfg = PyramidConfig {
            octaves: Some(10),
            min_octave_len: 8,
            ..Default::default()
        };
        let pyr = Pyramid::build(&ts, &cfg).unwrap();
        // 32 -> 16 -> 8 -> (4 < 8 stops)
        assert_eq!(pyr.octaves().len(), 3);
    }

    #[test]
    fn sigma_increases_within_octave_and_absolute_across_octaves() {
        let ts = sine(256, 32.0);
        let pyr = Pyramid::build(
            &ts,
            &PyramidConfig {
                octaves: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        for oct in pyr.octaves() {
            for w in oct.gaussians.windows(2) {
                assert!(w[1].sigma_octave > w[0].sigma_octave);
                assert!(w[1].sigma_absolute > w[0].sigma_absolute);
            }
        }
        let o0 = &pyr.octaves()[0];
        let o1 = &pyr.octaves()[1];
        // octave 1 level 0 has the absolute sigma of octave 0's doubled base
        assert!(o1.gaussians[0].sigma_absolute > o0.gaussians[0].sigma_absolute);
    }

    #[test]
    fn dog_of_constant_series_is_zero() {
        let ts = TimeSeries::new(vec![4.2; 64]).unwrap();
        let pyr = Pyramid::build(&ts, &PyramidConfig::default()).unwrap();
        for oct in pyr.octaves() {
            for level in &oct.dog {
                for &v in &level.values {
                    assert!(v.abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn dog_responds_to_a_bump() {
        // A Gaussian bump produces non-trivial DoG response near its centre.
        let n = 128;
        let ts = TimeSeries::new(
            (0..n)
                .map(|i| {
                    let d = i as f64 - 64.0;
                    (-d * d / (2.0 * 25.0)).exp()
                })
                .collect(),
        )
        .unwrap();
        let pyr = Pyramid::build(&ts, &PyramidConfig::default()).unwrap();
        let dog = &pyr.octaves()[0].dog[1];
        let peak_region: f64 = dog.values[56..72].iter().map(|v| v.abs()).sum();
        let tail_region: f64 = dog.values[0..16].iter().map(|v| v.abs()).sum();
        assert!(peak_region > tail_region * 5.0);
    }

    #[test]
    fn to_original_index_scales_by_factor() {
        let ts = sine(128, 16.0);
        let pyr = Pyramid::build(
            &ts,
            &PyramidConfig {
                octaves: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(pyr.octaves()[1].to_original_index(5), 10);
    }

    #[test]
    fn dog_cells_counts_search_space() {
        let ts = sine(64, 16.0);
        let cfg = PyramidConfig {
            octaves: Some(2),
            levels_per_octave: 2,
            ..Default::default()
        };
        let pyr = Pyramid::build(&ts, &cfg).unwrap();
        // octave0: 64 samples * 4 dog levels; octave1: 32 * 4
        assert_eq!(pyr.dog_cells(), 64 * 4 + 32 * 4);
    }

    #[test]
    fn short_series_still_builds_one_octave() {
        let ts = sine(9, 4.0);
        let pyr = Pyramid::build(&ts, &PyramidConfig::default()).unwrap();
        assert_eq!(pyr.octaves().len(), 1);
    }
}
