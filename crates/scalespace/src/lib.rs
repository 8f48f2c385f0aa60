//! # sdtw-scalespace — 1D Gaussian scale-space substrate
//!
//! The sDTW salient-feature detector (paper §3.1.2, step 1) searches for
//! points of interest `⟨x, σ⟩` across multiple scales of the given time
//! series. This crate builds the machinery behind that search:
//!
//! * [`kernel::GaussianKernel`] — sampled, normalised Gaussian kernels
//!   `G(x, σ)`;
//! * [`convolve`] — reflective-padding convolution (`L(i, σ) = G(i, σ) ∗ X(i)`);
//! * [`pyramid`] — the octave/level scale-space: the series is incrementally
//!   reduced into `o` octaves (each a doubling of the smoothing rate), each
//!   octave divided into `s` levels by repeated convolution with parameter
//!   `κ` where `κ^s = 2`, and adjacent levels subtracted to obtain
//!   difference-of-Gaussian (DoG) series `D(i, σ) = L(i, κσ) − L(i, σ)`.
//!   [`ScaleSpace`] builds a configuration's kernels once, for any number
//!   of pyramids;
//! * [`gradient`] — central-difference gradients of smoothed series, used by
//!   descriptor extraction.
//!
//! The paper's defaults (`o = ⌊log2 N⌋ − 6` octaves, `s = 2` levels) are the
//! defaults of [`pyramid::PyramidConfig`].
//!
//! # Example
//!
//! ```
//! use sdtw_tseries::TimeSeries;
//! use sdtw_scalespace::pyramid::{Pyramid, PyramidConfig};
//!
//! let ts = TimeSeries::new((0..256).map(|i| (i as f64 / 20.0).sin()).collect()).unwrap();
//! let pyr = Pyramid::build(&ts, &PyramidConfig::default()).unwrap();
//! assert!(!pyr.octaves().is_empty());
//! // every octave halves the resolution of the previous one
//! for w in pyr.octaves().windows(2) {
//!     assert!(w[1].len() <= w[0].len());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convolve;
pub mod gradient;
pub mod kernel;
pub mod pyramid;

pub use kernel::GaussianKernel;
pub use pyramid::{Pyramid, PyramidConfig, ScaleSpace};
