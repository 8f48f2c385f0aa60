//! Reflective-padding convolution.

use crate::kernel::GaussianKernel;
use sdtw_tseries::{TimeSeries, TsError};

/// Maps an out-of-range index into `[0, n)` by reflecting at the
/// boundaries (half-sample symmetric: `-1 → 0`, `n → n-1`), iterating until
/// in range. Reflection avoids the edge darkening that zero padding causes,
/// which matters because the detector must not hallucinate boundary
/// extrema.
#[inline]
fn reflect(mut idx: isize, n: usize) -> usize {
    let n = n as isize;
    debug_assert!(n > 0);
    loop {
        if idx < 0 {
            idx = -idx - 1;
        } else if idx >= n {
            idx = 2 * n - idx - 1;
        } else {
            return idx as usize;
        }
    }
}

/// Outputs computed together by [`convolve_reflect_into`]: one pass over
/// the kernel taps feeds this many independent accumulators.
const BLOCK: usize = 8;

/// Convolves raw samples with a Gaussian kernel under reflective padding.
pub fn convolve_reflect(values: &[f64], kernel: &GaussianKernel) -> Vec<f64> {
    let mut out = Vec::with_capacity(values.len());
    convolve_reflect_into(values, kernel, &mut Vec::new(), &mut out);
    out
}

/// [`convolve_reflect`] into caller-owned buffers: `padded` is scratch
/// for the reflect-padded input, `out` is overwritten with the result.
///
/// Output `i` is `Σ_j padded[i + j] · w[j]`, summed in tap order `j`,
/// where `padded[t] = values[reflect(t − r)]`. Blocks of [`BLOCK`]
/// outputs share each tap's pass, so their additions run as independent
/// chains, yet every output keeps its own multiply-then-add order. The
/// seed differs by output: an output whose window fits inside the
/// series starts from the additive identity of `Iterator::sum` (`-0.0`),
/// one whose window is reflected starts from `+0.0`. The two differ only
/// on an all-`-0.0` window, and both are kept so the result is the same
/// bit for bit as a per-output `sum` on the interior and a `+0.0`-seeded
/// loop at the boundaries.
pub(crate) fn convolve_reflect_into(
    values: &[f64],
    kernel: &GaussianKernel,
    padded: &mut Vec<f64>,
    out: &mut Vec<f64>,
) {
    out.clear();
    let n = values.len();
    if n == 0 {
        return;
    }
    let r = kernel.radius();
    let w = kernel.weights();
    padded.clear();
    padded.extend((0..n + 2 * r).map(|t| values[reflect(t as isize - r as isize, n)]));
    let interior_seed: f64 = std::iter::empty::<f64>().sum();
    let seed = |i: usize| {
        if i >= r && i + r < n {
            interior_seed
        } else {
            0.0
        }
    };
    let mut start = 0;
    while start + BLOCK <= n {
        let mut acc: [f64; BLOCK] = std::array::from_fn(|l| seed(start + l));
        for (taps, &k) in padded[start..].windows(BLOCK).zip(w) {
            for (a, &v) in acc.iter_mut().zip(taps) {
                *a += v * k;
            }
        }
        out.extend_from_slice(&acc);
        start += BLOCK;
    }
    for i in start..n {
        let mut acc = seed(i);
        for (&v, &k) in padded[i..].iter().zip(w) {
            acc += v * k;
        }
        out.push(acc);
    }
}

/// Gaussian-smooths a [`TimeSeries`], returning the smoothed series
/// (`L(·, σ)` in the paper's notation). Labels/ids are preserved.
///
/// # Errors
///
/// Propagates [`TsError::InvalidParameter`] for invalid `sigma`.
pub fn gaussian_smooth(ts: &TimeSeries, sigma: f64) -> Result<TimeSeries, TsError> {
    let kernel = GaussianKernel::new(sigma)?;
    let out = convolve_reflect(ts.values(), &kernel);
    let mut res = TimeSeries::new(out).expect("convolution of finite input is finite");
    if let Some(l) = ts.label() {
        res = res.labeled(l);
    }
    if let Some(id) = ts.id() {
        res = res.identified(id);
    }
    Ok(res)
}

/// Downsamples by keeping every second sample (SIFT-style octave
/// reduction: "we downsample the series corresponding to the doubling of σ
/// by picking every second pixel").
pub fn downsample_half(values: &[f64]) -> Vec<f64> {
    values.iter().step_by(2).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reflect_maps_into_range() {
        assert_eq!(reflect(-1, 5), 0);
        assert_eq!(reflect(-2, 5), 1);
        assert_eq!(reflect(5, 5), 4);
        assert_eq!(reflect(6, 5), 3);
        assert_eq!(reflect(2, 5), 2);
        // deep reflection (window much larger than series): half-sample
        // pattern for n=3 extends as … 0 0 1 2 2 1 0 | 0 1 2 | 2 1 0 0 …
        assert_eq!(reflect(-7, 3), 0);
        assert_eq!(reflect(9, 3), 2);
    }

    #[test]
    fn constant_series_is_fixed_point() {
        let k = GaussianKernel::new(2.0).unwrap();
        let out = convolve_reflect(&[5.0; 20], &k);
        for v in out {
            assert!((v - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn convolution_is_linear() {
        let k = GaussianKernel::new(1.3).unwrap();
        let a: Vec<f64> = (0..30).map(|i| (i as f64 / 3.0).sin()).collect();
        let b: Vec<f64> = (0..30).map(|i| (i as f64 / 5.0).cos()).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let ca = convolve_reflect(&a, &k);
        let cb = convolve_reflect(&b, &k);
        let csum = convolve_reflect(&sum, &k);
        for i in 0..30 {
            assert!((csum[i] - (ca[i] + cb[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn smoothing_reduces_roughness() {
        let v: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let k = GaussianKernel::new(2.0).unwrap();
        let out = convolve_reflect(&v, &k);
        let rough_in: f64 = v.windows(2).map(|w| (w[1] - w[0]).abs()).sum();
        let rough_out: f64 = out.windows(2).map(|w| (w[1] - w[0]).abs()).sum();
        assert!(rough_out < rough_in * 0.2);
    }

    #[test]
    fn preserves_mean_approximately() {
        // reflection padding conserves mass for symmetric kernels up to
        // boundary effects; on a long series the drift must be tiny
        let v: Vec<f64> = (0..200).map(|i| ((i * 7) % 13) as f64).collect();
        let k = GaussianKernel::new(3.0).unwrap();
        let out = convolve_reflect(&v, &k);
        let m_in = v.iter().sum::<f64>() / v.len() as f64;
        let m_out = out.iter().sum::<f64>() / out.len() as f64;
        assert!((m_in - m_out).abs() < 0.15, "in={m_in} out={m_out}");
    }

    #[test]
    fn short_series_and_len_one() {
        let k = GaussianKernel::new(4.0).unwrap(); // radius 12 >> len
        let out = convolve_reflect(&[1.0, 2.0], &k);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|v| v.is_finite() && *v >= 1.0 && *v <= 2.0));
        let single = convolve_reflect(&[3.0], &k);
        assert!((single[0] - 3.0).abs() < 1e-12);
        let empty = convolve_reflect(&[], &k);
        assert!(empty.is_empty());
    }

    #[test]
    fn gaussian_smooth_preserves_metadata() {
        let ts = TimeSeries::with_label(vec![1.0, 2.0, 3.0], 2)
            .unwrap()
            .identified(5);
        let sm = gaussian_smooth(&ts, 1.0).unwrap();
        assert_eq!(sm.label(), Some(2));
        assert_eq!(sm.id(), Some(5));
        assert_eq!(sm.len(), 3);
        assert!(gaussian_smooth(&ts, -1.0).is_err());
    }

    #[test]
    fn downsample_keeps_even_indices() {
        assert_eq!(
            downsample_half(&[0.0, 1.0, 2.0, 3.0, 4.0]),
            &[0.0, 2.0, 4.0]
        );
        assert_eq!(downsample_half(&[7.0]), &[7.0]);
        assert!(downsample_half(&[]).is_empty());
    }
}
