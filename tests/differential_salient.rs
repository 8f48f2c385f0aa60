//! Differential grid for salient extraction: the prepared extractor
//! (`SalientExtractor`, `ScaleSpace`, the blocked reflective convolution,
//! the per-config descriptor table) against a verbatim copy of the
//! straightforward pipeline it replaced, kept here as the reference.
//!
//! The bar is bit identity: every pyramid sample, every keypoint σ and
//! response, every scope, amplitude and descriptor value compared via
//! `to_bits`, on lengths 1–300 (kernel radii far beyond the octave
//! length, and block tails shorter than one block), raw, z-normalised and
//! constant series (`-0.0` included), under configurations that move
//! every table the extractor prepares.

mod common;

use common::TestRng;
use sdtw_suite::salient::{DescriptorConfig, SalientConfig, SalientExtractor, SalientFeature};
use sdtw_suite::scalespace::convolve::convolve_reflect;
use sdtw_suite::scalespace::{GaussianKernel, Pyramid, PyramidConfig};
use sdtw_suite::tseries::transform::z_normalize;
use sdtw_suite::tseries::TimeSeries;

/// The extraction pipeline before preparation: kernels rebuilt per
/// octave, one reflect loop per tap at the boundaries, a gradient and a
/// weight `exp` per descriptor sample and keypoint, and a neighbour `Vec`
/// filled per detection candidate.
mod reference {
    use sdtw_suite::salient::{Keypoint, Polarity, SalientConfig, SalientFeature};
    use sdtw_suite::scalespace::{GaussianKernel, PyramidConfig};
    use sdtw_suite::tseries::TimeSeries;

    pub struct Level {
        pub sigma_octave: f64,
        pub sigma_absolute: f64,
        pub values: Vec<f64>,
    }

    pub struct Octave {
        pub index: usize,
        pub factor: usize,
        pub gaussians: Vec<Level>,
        pub dog: Vec<Level>,
    }

    fn reflect(mut idx: isize, n: usize) -> usize {
        let n = n as isize;
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

    pub fn convolve_reflect(values: &[f64], kernel: &GaussianKernel) -> Vec<f64> {
        let n = values.len();
        if n == 0 {
            return Vec::new();
        }
        let r = kernel.radius() as isize;
        let w = kernel.weights();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let i_isize = i as isize;
            let acc = if i_isize - r >= 0 && i_isize + r < n as isize {
                let base = (i_isize - r) as usize;
                let window = &values[base..base + w.len()];
                window.iter().zip(w.iter()).map(|(v, k)| v * k).sum()
            } else {
                let mut acc = 0.0;
                for (j, &k) in w.iter().enumerate() {
                    let src = reflect(i_isize - r + j as isize, n);
                    acc += values[src] * k;
                }
                acc
            };
            out.push(acc);
        }
        out
    }

    pub fn pyramid(ts: &TimeSeries, config: &PyramidConfig) -> Vec<Octave> {
        config.validate().unwrap();
        let n = ts.len();
        let requested = config
            .octaves
            .unwrap_or_else(|| PyramidConfig::auto_octaves(n));
        let s = config.levels_per_octave;
        let kappa = config.kappa();
        let mut octaves = Vec::with_capacity(requested);
        let base_kernel = GaussianKernel::new(config.base_sigma).unwrap();
        let mut base = convolve_reflect(ts.values(), &base_kernel);
        let mut factor = 1usize;
        for index in 0..requested {
            if base.len() < config.min_octave_len {
                break;
            }
            let mut gaussians: Vec<Level> = Vec::with_capacity(s + 3);
            gaussians.push(Level {
                sigma_octave: config.base_sigma,
                sigma_absolute: config.base_sigma * factor as f64,
                values: base.clone(),
            });
            for l in 1..(s + 3) {
                let sigma_prev = config.base_sigma * kappa.powi(l as i32 - 1);
                let sigma_this = config.base_sigma * kappa.powi(l as i32);
                let sigma_inc = (sigma_this * sigma_this - sigma_prev * sigma_prev).sqrt();
                let kernel = GaussianKernel::new(sigma_inc).unwrap();
                let values = convolve_reflect(&gaussians[l - 1].values, &kernel);
                gaussians.push(Level {
                    sigma_octave: sigma_this,
                    sigma_absolute: sigma_this * factor as f64,
                    values,
                });
            }
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
            let next_base: Vec<f64> = gaussians[s].values.iter().step_by(2).copied().collect();
            octaves.push(Octave {
                index,
                factor,
                gaussians,
                dog,
            });
            base = next_base;
            factor *= 2;
        }
        octaves
    }

    fn central_gradient(values: &[f64]) -> Vec<f64> {
        let n = values.len();
        match n {
            0 => Vec::new(),
            1 => vec![0.0],
            _ => {
                let mut out = Vec::with_capacity(n);
                out.push(values[1] - values[0]);
                for i in 1..n - 1 {
                    out.push((values[i + 1] - values[i - 1]) * 0.5);
                }
                out.push(values[n - 1] - values[n - 2]);
                out
            }
        }
    }

    fn dominates_max(v: f64, neighbours: &[f64], eps: f64) -> bool {
        neighbours.iter().all(|&u| v >= (1.0 - eps) * u)
    }

    fn dominates_min(v: f64, neighbours: &[f64], eps: f64) -> bool {
        neighbours.iter().all(|&u| -v >= (1.0 - eps) * -u)
    }

    fn detect_keypoints(
        octaves: &[Octave],
        config: &SalientConfig,
        value_range: f64,
    ) -> Vec<Keypoint> {
        if value_range <= 0.0 {
            return Vec::new();
        }
        let min_response = (config.contrast_threshold * value_range).max(1e-9 * value_range);
        let mut out = Vec::new();
        for octave in octaves {
            let dog = &octave.dog;
            if dog.len() < 3 {
                continue;
            }
            let len = octave.gaussians[0].values.len();
            if len < 3 {
                continue;
            }
            let mut neighbours: Vec<f64> = Vec::with_capacity(8);
            for l in 0..dog.len() {
                let below = l.checked_sub(1).map(|b| &dog[b].values);
                let here = &dog[l].values;
                let above = dog.get(l + 1).map(|a| &a.values);
                for i in 1..len - 1 {
                    let v = here[i];
                    if v.abs() < min_response {
                        continue;
                    }
                    neighbours.clear();
                    neighbours.extend_from_slice(&[here[i - 1], here[i + 1]]);
                    for stack in [below, above].into_iter().flatten() {
                        neighbours.extend_from_slice(&[stack[i - 1], stack[i], stack[i + 1]]);
                    }
                    let polarity = if v > 0.0 && dominates_max(v, &neighbours, config.epsilon) {
                        Some(Polarity::Dip)
                    } else if v < 0.0 && dominates_min(v, &neighbours, config.epsilon) {
                        Some(Polarity::Peak)
                    } else {
                        None
                    };
                    if let Some(polarity) = polarity {
                        out.push(Keypoint {
                            position: i * octave.factor,
                            octave_position: i,
                            octave: octave.index,
                            level: l,
                            sigma: dog[l].sigma_absolute,
                            response: v,
                            polarity,
                        });
                    }
                }
            }
        }
        out.sort_by(|a, b| {
            a.position
                .cmp(&b.position)
                .then(a.sigma.partial_cmp(&b.sigma).expect("finite sigma"))
        });
        dedupe_cross_octave(out)
    }

    fn dedupe_cross_octave(kps: Vec<Keypoint>) -> Vec<Keypoint> {
        let mut out: Vec<Keypoint> = Vec::with_capacity(kps.len());
        for kp in kps {
            let mut duplicate = false;
            for prev in out.iter_mut().rev() {
                let pos_diff = kp.position.saturating_sub(prev.position);
                let pos_tol = 1usize << kp.octave.max(prev.octave);
                if pos_diff > 64 {
                    break;
                }
                if pos_diff > pos_tol || prev.polarity != kp.polarity {
                    continue;
                }
                let ratio = if kp.sigma > prev.sigma {
                    kp.sigma / prev.sigma
                } else {
                    prev.sigma / kp.sigma
                };
                if ratio < 1.01 {
                    let better = (kp.octave, std::cmp::Reverse(kp.response.abs().to_bits()))
                        < (
                            prev.octave,
                            std::cmp::Reverse(prev.response.abs().to_bits()),
                        );
                    if better {
                        *prev = kp.clone();
                    }
                    duplicate = true;
                    break;
                }
            }
            if !duplicate {
                out.push(kp);
            }
        }
        out.sort_by(|a, b| {
            a.position
                .cmp(&b.position)
                .then(a.sigma.partial_cmp(&b.sigma).expect("finite sigma"))
        });
        out
    }

    fn build_descriptor(
        octaves: &[Octave],
        keypoint: &Keypoint,
        config: &SalientConfig,
    ) -> Vec<f64> {
        let config = &config.descriptor;
        let octave = &octaves[keypoint.octave];
        let smoothed = &octave.gaussians[keypoint.level.min(octave.gaussians.len() - 1)].values;
        let grad = central_gradient(smoothed);
        let n = grad.len();
        let cells = config.cells();
        let width = config.samples_per_cell;
        let half_span = (cells * width) as f64 / 2.0;
        let weight_sigma = half_span.max(1.0) / 2.0;
        let centre = keypoint.octave_position as f64;
        let mut desc = vec![0.0; config.bins];
        for c in 0..cells {
            let cell_start = centre - half_span + (c * width) as f64;
            for s in 0..width {
                let pos = cell_start + s as f64 + 0.5;
                let idx = pos.round().clamp(0.0, (n.max(1) - 1) as f64) as usize;
                let g = if n == 0 { 0.0 } else { grad[idx] };
                let w = GaussianKernel::continuous_weight(weight_sigma, pos - centre);
                let mag = g.abs() * w;
                if g >= 0.0 {
                    desc[2 * c] += mag;
                } else {
                    desc[2 * c + 1] += mag;
                }
            }
        }
        if config.amplitude_invariant {
            normalize(&mut desc, config.clamp);
        }
        desc
    }

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

    pub fn extract_features(ts: &TimeSeries, config: &SalientConfig) -> Vec<SalientFeature> {
        config.validate().unwrap();
        let octaves = pyramid(ts, &config.pyramid);
        let keypoints = detect_keypoints(&octaves, config, ts.max() - ts.min());
        let n = ts.len();
        keypoints
            .into_iter()
            .map(|kp| {
                let (scope_start, scope_end) = kp.scope_bounds(config.scope_sigmas, n);
                let scope_len = kp.scope_len(config.scope_sigmas);
                let amplitude = ts.window_mean(scope_start, scope_end + 1);
                let descriptor = build_descriptor(&octaves, &kp, config);
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

/// Longest series of the grid.
const MAX_LEN: usize = 300;

/// The configurations of the grid: the default, and one move of every
/// table the extractor prepares.
fn configs() -> Vec<(&'static str, SalientConfig)> {
    let base = SalientConfig::default();
    vec![
        ("default", base.clone()),
        ("bins-8", base.clone().with_descriptor_bins(8)),
        (
            // 3 cells × 3 samples: an odd sample count puts every
            // descriptor position on an integer
            "odd-samples",
            SalientConfig {
                descriptor: DescriptorConfig {
                    bins: 6,
                    samples_per_cell: 3,
                    ..DescriptorConfig::default()
                },
                ..base.clone()
            },
        ),
        (
            "eps-0",
            SalientConfig {
                epsilon: 0.0,
                ..base.clone()
            },
        ),
        (
            "levels-3",
            SalientConfig {
                pyramid: PyramidConfig {
                    levels_per_octave: 3,
                    ..PyramidConfig::default()
                },
                ..base.clone()
            },
        ),
        (
            "octaves-6",
            SalientConfig {
                pyramid: PyramidConfig {
                    octaves: Some(6),
                    min_octave_len: 3,
                    ..PyramidConfig::default()
                },
                ..base.clone()
            },
        ),
    ]
}

/// A seeded structured series: a few bumps and a slow wave over noise.
fn raw_series(rng: &mut TestRng, n: usize) -> TimeSeries {
    let mut values: Vec<f64> = (0..n).map(|_| rng.f64_in(-0.05, 0.05)).collect();
    let period = rng.f64_in(8.0, 60.0);
    for (i, v) in values.iter_mut().enumerate() {
        *v += 0.4 * (i as f64 / period).sin();
    }
    for _ in 0..rng.usize_in(1, 5) {
        let centre = rng.f64_in(0.0, n as f64);
        let width = rng.f64_in(1.0, 12.0);
        let amp = rng.f64_in(-2.0, 2.0);
        for (i, v) in values.iter_mut().enumerate() {
            let d = (i as f64 - centre) / width;
            *v += amp * (-d * d / 2.0).exp();
        }
    }
    TimeSeries::new(values).unwrap()
}

/// Raw, z-normalised and constant series of length `n` (the constant
/// alternates between a positive value and `-0.0`, where the sign of
/// zero outputs is the trap).
fn series_of_len(rng: &mut TestRng, n: usize) -> [TimeSeries; 3] {
    let raw = raw_series(rng, n);
    let z = z_normalize(&raw);
    let constant = if n.is_multiple_of(2) { 2.5 } else { -0.0 };
    [raw, z, TimeSeries::new(vec![constant; n]).unwrap()]
}

fn assert_features_identical(got: &[SalientFeature], want: &[SalientFeature], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: feature count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let (gk, wk) = (&g.keypoint, &w.keypoint);
        assert_eq!(
            (
                gk.position,
                gk.octave_position,
                gk.octave,
                gk.level,
                gk.polarity
            ),
            (
                wk.position,
                wk.octave_position,
                wk.octave,
                wk.level,
                wk.polarity
            ),
            "{what}: feature {i} keypoint"
        );
        assert_eq!(
            gk.sigma.to_bits(),
            wk.sigma.to_bits(),
            "{what}: feature {i} sigma"
        );
        assert_eq!(
            gk.response.to_bits(),
            wk.response.to_bits(),
            "{what}: feature {i} response"
        );
        assert_eq!(
            (g.scope_start, g.scope_end, g.scope_len.to_bits()),
            (w.scope_start, w.scope_end, w.scope_len.to_bits()),
            "{what}: feature {i} scope"
        );
        assert_eq!(
            g.amplitude.to_bits(),
            w.amplitude.to_bits(),
            "{what}: feature {i} amplitude"
        );
        let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&g.descriptor),
            bits(&w.descriptor),
            "{what}: feature {i} descriptor"
        );
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn extraction_matches_the_reference_bitwise() {
    let mut rng = TestRng::new(0x05a1_1e47);
    let configs = configs();
    let extractors: Vec<SalientExtractor> = configs
        .iter()
        .map(|(_, c)| SalientExtractor::new(c.clone()).unwrap())
        .collect();
    let mut compared = 0usize;
    for n in 1..=MAX_LEN {
        for (kind, ts) in ["raw", "znorm", "constant"]
            .into_iter()
            .zip(series_of_len(&mut rng, n))
        {
            for ((name, config), extractor) in configs.iter().zip(&extractors) {
                let want = reference::extract_features(&ts, config);
                let what = format!("n={n} {kind} {name}");
                assert_features_identical(&extractor.extract(&ts), &want, &what);
                compared += want.len();
            }
        }
    }
    assert!(
        compared > 10_000,
        "the grid must exercise many features, got {compared}"
    );
}

#[test]
fn pyramids_match_the_reference_bitwise() {
    let mut rng = TestRng::new(0x9e7a);
    let pyramid_configs: Vec<PyramidConfig> =
        configs().into_iter().map(|(_, c)| c.pyramid).collect();
    for n in 1..=MAX_LEN {
        for ts in series_of_len(&mut rng, n) {
            for config in &pyramid_configs {
                let got = Pyramid::build(&ts, config).unwrap();
                let want = reference::pyramid(&ts, config);
                assert_eq!(got.octaves().len(), want.len(), "n={n} {config:?}");
                for (g, w) in got.octaves().iter().zip(&want) {
                    assert_eq!((g.index, g.factor), (w.index, w.factor), "n={n}");
                    let levels = g.gaussians.iter().zip(&w.gaussians);
                    for (gl, wl) in levels.chain(g.dog.iter().zip(&w.dog)) {
                        assert_eq!(gl.sigma_octave.to_bits(), wl.sigma_octave.to_bits());
                        assert_eq!(gl.sigma_absolute.to_bits(), wl.sigma_absolute.to_bits());
                        assert_eq!(bits(&gl.values), bits(&wl.values), "n={n} {config:?}");
                    }
                    assert_eq!(g.gaussians.len(), w.gaussians.len());
                    assert_eq!(g.dog.len(), w.dog.len());
                }
            }
        }
    }
}

#[test]
fn convolution_matches_the_reference_bitwise() {
    let mut rng = TestRng::new(0xc0_4e);
    // radius 1 (a near-delta) up to radius 39, far beyond short inputs
    let kernels: Vec<GaussianKernel> = [0.05, 0.7, 1.6, 2.3, 4.5, 12.8]
        .into_iter()
        .map(|s| GaussianKernel::new(s).unwrap())
        .collect();
    for n in 0..=80usize {
        let random: Vec<f64> = (0..n).map(|_| rng.f64_in(-3.0, 3.0)).collect();
        // signed zeros: all -0.0, and -0.0 with +0.0 islands
        let neg_zero = vec![-0.0; n];
        let mixed_zero: Vec<f64> = (0..n)
            .map(|i| if i % 5 == 0 { 0.0 } else { -0.0 })
            .collect();
        let constant = vec![1.25; n];
        for values in [&random, &neg_zero, &mixed_zero, &constant] {
            for kernel in &kernels {
                assert_eq!(
                    bits(&convolve_reflect(values, kernel)),
                    bits(&reference::convolve_reflect(values, kernel)),
                    "n={n} radius={}",
                    kernel.radius()
                );
            }
        }
    }
}
