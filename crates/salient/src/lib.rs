//! # sdtw-salient — 1D SIFT-like salient features for time series
//!
//! Implements step 1 of sDTW (paper §3.1): locate robust salient features
//! on a time series via a scale-invariant analysis and equip each with a
//! temporal descriptor usable for cross-series alignment.
//!
//! Pipeline:
//!
//! 1. build the Gaussian scale-space pyramid and its DoG stacks
//!    (`sdtw-scalespace`);
//! 2. [`detect`] — scan the interior DoG levels for **ε-relaxed extrema**:
//!    a point is accepted when its response is at least `(1 − ε)×` that of
//!    every space/scale neighbour. The paper deliberately relaxes strict
//!    SIFT extremality so that "features that are similar in scale and time
//!    may \[not\] prune each other"; both maxima (peaks) and minima (dips)
//!    are detected. Low-contrast candidates are filtered;
//! 3. [`descriptor`] — build a `2a × 2` gradient descriptor around each
//!    keypoint at its own scale: `2a` cells along time, each holding a
//!    2-bin histogram (total positive-slope magnitude, total negative-slope
//!    magnitude), Gaussian-weighted by distance from the keypoint. This is
//!    the 1D reduction of SIFT's `2a × 2b × c` layout (paper Figure 5(b));
//! 4. [`feature`] — bundle keypoint + descriptor + scope + amplitude into
//!    [`feature::SalientFeature`]. [`SalientExtractor`] runs the pipeline
//!    with everything that depends only on the configuration (kernels,
//!    descriptor weights) prepared once; [`feature::extract_features`]
//!    is one extractor used once.
//!
//! Every invariance can be "independently controlled" (paper §3.1.2):
//! amplitude normalisation of descriptors is a config switch, and the
//! matcher (in `sdtw-align`) applies the amplitude/scale bounds.
//!
//! # Example
//!
//! ```
//! use sdtw_tseries::TimeSeries;
//! use sdtw_salient::{SalientConfig, feature::extract_features};
//!
//! // A clean bump produces at least one salient feature near its centre.
//! let ts = TimeSeries::new(
//!     (0..128).map(|i| { let d = (i as f64 - 64.0) / 8.0; (-d * d / 2.0).exp() }).collect(),
//! ).unwrap();
//! let feats = extract_features(&ts, &SalientConfig::default()).unwrap();
//! assert!(!feats.is_empty());
//! assert!(feats.iter().any(|f| (f.keypoint.position as i64 - 64).abs() <= 8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod descriptor;
pub mod detect;
pub mod feature;
pub mod keypoint;

pub use config::{DescriptorConfig, SalientConfig};
pub use feature::{extract_features, FeatureSet, SalientExtractor, SalientFeature};
pub use keypoint::{Keypoint, Polarity, ScaleClass};
