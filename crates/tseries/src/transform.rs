//! Series transformations: normalisation, smoothing, resampling,
//! differencing.
//!
//! All transformations return *new* series (see the immutability note on
//! [`TimeSeries`]). Labels and identifiers are preserved so that transformed
//! corpora keep their class structure.

use crate::error::TsError;
use crate::series::TimeSeries;

/// Re-attaches label/id from `src` onto freshly built `values`.
fn rebuild(src: &TimeSeries, values: Vec<f64>) -> TimeSeries {
    let mut out = TimeSeries::new(values).expect("transform produced invalid series");
    if let Some(l) = src.label() {
        out = out.labeled(l);
    }
    if let Some(id) = src.id() {
        out = out.identified(id);
    }
    out
}

/// `2^-600`, the exact power of two [`z_normalize_values`] scales samples
/// by when their moments overflow (biased exponent `1023 - 600`, zero
/// mantissa).
const RESCALE: f64 = f64::from_bits((1023 - 600) << 52);

/// Z-normalises a series: subtract the mean, divide by the population
/// standard deviation. A constant series (σ = 0) maps to all-zeros rather
/// than dividing by zero — the convention used by the UCR suite.
pub fn z_normalize(ts: &TimeSeries) -> TimeSeries {
    let mut values = Vec::new();
    z_normalize_values(ts.values(), &mut values);
    rebuild(ts, values)
}

/// [`z_normalize`] over a raw sample slice, writing into a reusable
/// buffer (cleared first). This is the **one** implementation of the
/// normalisation — [`z_normalize`] delegates here, so callers that
/// normalise windows of a larger buffer (subsequence search) are
/// bit-identical to the series path by construction: same left-to-right
/// summation order for the mean, same population-σ formula, same σ = 0
/// all-zeros convention.
///
/// Finite samples near `f64::MAX` overflow the sum or the squared
/// deviations. When the mean or the variance is not finite, the samples
/// are scaled by `2^-600` and normalised again: the scaling is exact and
/// the normalisation scale-invariant, and every sample below `2^1024`
/// scales below `2^424`, so neither sum can overflow for any series
/// shorter than `2^170` samples. Inputs whose moments are finite never
/// take that path and keep their bits.
pub fn z_normalize_values(src: &[f64], out: &mut Vec<f64>) {
    out.clear();
    if src.is_empty() {
        return;
    }
    let n = src.len() as f64;
    let mean = src.iter().sum::<f64>() / n;
    let var = src
        .iter()
        .map(|v| {
            let d = v - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    if !(mean.is_finite() && var.is_finite()) && src.iter().all(|v| v.is_finite()) {
        let scaled: Vec<f64> = src.iter().map(|v| v * RESCALE).collect();
        return z_normalize_values(&scaled, out);
    }
    let sd = var.sqrt();
    if sd == 0.0 {
        out.resize(src.len(), 0.0);
    } else {
        out.extend(src.iter().map(|v| (v - mean) / sd));
    }
}

/// Min-max scales a series into `[0, 1]`. A constant series maps to all
/// `0.5` (centre of the target range).
pub fn min_max_scale(ts: &TimeSeries) -> TimeSeries {
    let min = ts.min();
    let max = ts.max();
    let range = max - min;
    let values = if range == 0.0 {
        vec![0.5; ts.len()]
    } else {
        ts.values().iter().map(|v| (v - min) / range).collect()
    };
    rebuild(ts, values)
}

/// Centred moving-average smoothing with an odd window of size
/// `2*radius + 1`; boundaries use the available (truncated) window.
///
/// Kept distinct from Gaussian smoothing (which lives in `sdtw-scalespace`)
/// because dataset generators want a cheap, kernel-free smoother.
pub fn moving_average(ts: &TimeSeries, radius: usize) -> TimeSeries {
    if radius == 0 {
        return ts.clone();
    }
    let v = ts.values();
    let n = v.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(radius);
        let hi = (i + radius + 1).min(n);
        let sum: f64 = v[lo..hi].iter().sum();
        out.push(sum / (hi - lo) as f64);
    }
    rebuild(ts, out)
}

/// Linearly resamples a series to `target_len` samples.
///
/// Index `i` of the output reads position `i * (n-1) / (target_len-1)` of
/// the input (endpoints preserved). `target_len == 1` returns the first
/// sample.
///
/// # Errors
///
/// [`TsError::InvalidLength`] when `target_len == 0`.
pub fn resample(ts: &TimeSeries, target_len: usize) -> Result<TimeSeries, TsError> {
    if target_len == 0 {
        return Err(TsError::InvalidLength {
            requested: 0,
            reason: "resample target must be positive",
        });
    }
    let v = ts.values();
    let n = v.len();
    if target_len == 1 {
        return Ok(rebuild(ts, vec![v[0]]));
    }
    if n == 1 {
        return Ok(rebuild(ts, vec![v[0]; target_len]));
    }
    let mut out = Vec::with_capacity(target_len);
    let scale = (n - 1) as f64 / (target_len - 1) as f64;
    for i in 0..target_len {
        let pos = i as f64 * scale;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        let frac = pos - lo as f64;
        out.push(v[lo] * (1.0 - frac) + v[hi] * frac);
    }
    Ok(rebuild(ts, out))
}

/// First differences: output length `n-1`, `out[i] = v[i+1] - v[i]`.
///
/// # Errors
///
/// [`TsError::InvalidLength`] when the input has a single sample.
pub fn difference(ts: &TimeSeries) -> Result<TimeSeries, TsError> {
    let v = ts.values();
    if v.len() < 2 {
        return Err(TsError::InvalidLength {
            requested: v.len(),
            reason: "differencing needs at least two samples",
        });
    }
    let out = v.windows(2).map(|w| w[1] - w[0]).collect();
    Ok(rebuild(ts, out))
}

/// Piecewise aggregate approximation (PAA): reduces a series to `segments`
/// values, each the mean of one of `segments` equal (fractional) chunks of
/// the input. The classic reduced representation for time-series indexing;
/// the coarse levels of multi-resolution DTW are built from repeated
/// 2-segment-per-step PAA.
///
/// # Errors
///
/// [`TsError::InvalidLength`] when `segments == 0` or exceeds the input
/// length.
pub fn paa(ts: &TimeSeries, segments: usize) -> Result<TimeSeries, TsError> {
    let v = ts.values();
    let n = v.len();
    if segments == 0 || segments > n {
        return Err(TsError::InvalidLength {
            requested: segments,
            reason: "PAA segment count must be in [1, len]",
        });
    }
    // fractional chunking: sample i contributes to segment floor(i*seg/n),
    // weighting boundary samples by their fractional overlap
    let mut sums = vec![0.0; segments];
    let mut weights = vec![0.0; segments];
    let scale = segments as f64 / n as f64;
    for (i, &x) in v.iter().enumerate() {
        let start = i as f64 * scale;
        let end = (i + 1) as f64 * scale;
        let first = start.floor() as usize;
        let last = ((end - 1e-12).floor() as usize).min(segments - 1);
        if first == last {
            sums[first] += x * (end - start);
            weights[first] += end - start;
        } else {
            // the sample straddles a segment boundary
            let boundary = (first + 1) as f64;
            sums[first] += x * (boundary - start);
            weights[first] += boundary - start;
            sums[last] += x * (end - boundary);
            weights[last] += end - boundary;
        }
    }
    let out = sums
        .iter()
        .zip(&weights)
        .map(|(s, w)| if *w > 0.0 { s / w } else { 0.0 })
        .collect();
    Ok(rebuild(ts, out))
}

/// Fixed-width PAA over a raw sample slice, writing segment means into a
/// reusable buffer (cleared first): segment `j` covers samples
/// `[j·width, min((j+1)·width, len))`, so every segment has exactly
/// `width` samples except a possibly shorter tail. Unlike [`paa`]'s
/// fractional chunking, the integer segmentation keeps per-segment
/// weights whole — the property the cascade's coarse (PAA) lower bound
/// needs for its admissibility argument (each segment's bound term is
/// multiplied by its exact sample count; see `sdtw_dtw::cascade`).
///
/// # Panics
///
/// Panics when `width == 0` (programmer error).
pub fn paa_fixed_values(src: &[f64], width: usize, out: &mut Vec<f64>) {
    assert!(width > 0, "PAA segment width must be positive");
    out.clear();
    let mut j = 0;
    while j < src.len() {
        let hi = (j + width).min(src.len());
        let seg = &src[j..hi];
        out.push(seg.iter().sum::<f64>() / seg.len() as f64);
        j = hi;
    }
}

/// Adds a constant offset to every sample.
pub fn offset(ts: &TimeSeries, delta: f64) -> TimeSeries {
    rebuild(ts, ts.values().iter().map(|v| v + delta).collect())
}

/// Multiplies every sample by a constant gain.
pub fn scale_amplitude(ts: &TimeSeries, gain: f64) -> TimeSeries {
    rebuild(ts, ts.values().iter().map(|v| v * gain).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: &[f64]) -> TimeSeries {
        TimeSeries::new(v.to_vec()).unwrap()
    }

    #[test]
    fn z_normalize_zero_mean_unit_var() {
        let z = z_normalize(&ts(&[1.0, 2.0, 3.0, 4.0, 5.0]));
        assert!(z.mean().abs() < 1e-12);
        assert!((z.std_dev() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn z_normalize_rescales_samples_whose_moments_overflow() {
        assert_eq!(RESCALE, 2f64.powi(-600));
        // the sum of the samples overflows, then only the squared
        // deviations: both used to come out NaN or all zeros
        for (big, tail) in [(1.7e308, -1.7e308), (1e200, -1e200)] {
            let mut values = vec![big; 59];
            values.push(tail);
            let z = z_normalize(&TimeSeries::new(values.clone()).unwrap());
            // any other exact power-of-two scaling gives the same bits
            let scaled: Vec<f64> = values.iter().map(|v| v * 2f64.powi(-700)).collect();
            let expected = z_normalize(&TimeSeries::new(scaled).unwrap());
            assert_eq!(z.values(), expected.values(), "{big}");
            assert!(z.values().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn z_normalize_constant_series() {
        let z = z_normalize(&ts(&[7.0; 5]));
        assert!(z.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn min_max_hits_bounds() {
        let m = min_max_scale(&ts(&[2.0, 4.0, 6.0]));
        assert_eq!(m.values(), &[0.0, 0.5, 1.0]);
        let c = min_max_scale(&ts(&[3.0; 4]));
        assert!(c.values().iter().all(|&v| v == 0.5));
    }

    #[test]
    fn moving_average_radius_zero_is_identity() {
        let a = ts(&[1.0, 5.0, 9.0]);
        assert_eq!(moving_average(&a, 0), a);
    }

    #[test]
    fn moving_average_smooths_and_preserves_constant() {
        let a = moving_average(&ts(&[0.0, 10.0, 0.0]), 1);
        // centre = mean(0,10,0) = 10/3; edges use truncated windows
        assert!((a.at(1) - 10.0 / 3.0).abs() < 1e-12);
        assert!((a.at(0) - 5.0).abs() < 1e-12);
        let c = moving_average(&ts(&[4.0; 6]), 2);
        assert!(c.values().iter().all(|&v| (v - 4.0).abs() < 1e-12));
    }

    #[test]
    fn resample_preserves_endpoints() {
        let a = ts(&[0.0, 1.0, 2.0, 3.0]);
        let r = resample(&a, 7).unwrap();
        assert_eq!(r.len(), 7);
        assert!((r.at(0) - 0.0).abs() < 1e-12);
        assert!((r.at(6) - 3.0).abs() < 1e-12);
        // linear input stays linear under linear interpolation
        for i in 0..7 {
            assert!((r.at(i) - i as f64 * 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn resample_degenerate_cases() {
        let a = ts(&[5.0]);
        assert_eq!(resample(&a, 4).unwrap().values(), &[5.0; 4]);
        let b = ts(&[1.0, 2.0]);
        assert_eq!(resample(&b, 1).unwrap().values(), &[1.0]);
        assert!(resample(&b, 0).is_err());
    }

    #[test]
    fn resample_identity_when_lengths_match() {
        let a = ts(&[0.3, 1.7, -2.0, 0.0, 9.5]);
        let r = resample(&a, 5).unwrap();
        for i in 0..5 {
            assert!((r.at(i) - a.at(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn difference_basics() {
        let d = difference(&ts(&[1.0, 4.0, 2.0])).unwrap();
        assert_eq!(d.values(), &[3.0, -2.0]);
        assert!(difference(&ts(&[1.0])).is_err());
    }

    #[test]
    fn paa_even_division_takes_chunk_means() {
        let a = ts(&[1.0, 3.0, 5.0, 7.0, 9.0, 11.0]);
        let p = paa(&a, 3).unwrap();
        assert_eq!(p.values(), &[2.0, 6.0, 10.0]);
    }

    #[test]
    fn paa_identity_when_segments_equal_len() {
        let a = ts(&[0.5, 1.5, -2.0]);
        let p = paa(&a, 3).unwrap();
        for (x, y) in a.values().iter().zip(p.values()) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn paa_single_segment_is_the_mean() {
        let a = ts(&[2.0, 4.0, 9.0]);
        let p = paa(&a, 1).unwrap();
        assert!((p.at(0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn paa_fractional_chunks_preserve_mean() {
        // 5 samples into 2 segments: chunk boundary splits sample 2
        let a = ts(&[1.0, 1.0, 4.0, 7.0, 7.0]);
        let p = paa(&a, 2).unwrap();
        // weighted global mean must be preserved
        let global = a.mean();
        let paa_mean = (p.at(0) + p.at(1)) / 2.0;
        assert!((global - paa_mean).abs() < 1e-9, "{global} vs {paa_mean}");
    }

    #[test]
    fn paa_rejects_bad_segment_counts() {
        let a = ts(&[1.0, 2.0]);
        assert!(paa(&a, 0).is_err());
        assert!(paa(&a, 3).is_err());
    }

    #[test]
    fn paa_fixed_values_takes_integer_segment_means() {
        let mut out = Vec::new();
        paa_fixed_values(&[1.0, 3.0, 5.0, 7.0, 10.0], 2, &mut out);
        assert_eq!(out, vec![2.0, 6.0, 10.0], "tail keeps its own mean");
        paa_fixed_values(&[4.0, 8.0], 8, &mut out);
        assert_eq!(out, vec![6.0], "oversized width is one segment");
        paa_fixed_values(&[], 3, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn paa_fixed_values_rejects_zero_width() {
        paa_fixed_values(&[1.0], 0, &mut Vec::new());
    }

    #[test]
    fn offset_and_gain() {
        let a = ts(&[1.0, 2.0]);
        assert_eq!(offset(&a, 1.5).values(), &[2.5, 3.5]);
        assert_eq!(scale_amplitude(&a, 2.0).values(), &[2.0, 4.0]);
    }

    #[test]
    fn transforms_preserve_label_and_id() {
        let a = TimeSeries::with_label(vec![1.0, 2.0, 3.0], 4)
            .unwrap()
            .identified(99);
        for t in [
            z_normalize(&a),
            min_max_scale(&a),
            moving_average(&a, 1),
            resample(&a, 6).unwrap(),
            difference(&a).unwrap(),
            paa(&a, 2).unwrap(),
            offset(&a, 1.0),
            scale_amplitude(&a, 3.0),
        ] {
            assert_eq!(t.label(), Some(4));
            assert_eq!(t.id(), Some(99));
        }
    }
}
