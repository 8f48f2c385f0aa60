//! ε-relaxed scale-space extremum detection (paper §3.1.2, step 1).
//!
//! Classic SIFT keeps a DoG sample only when it strictly dominates all its
//! space/scale neighbours. The paper argues that for DTW-band construction
//! over-pruning is harmful — nearby features "may prune each other" — and
//! instead accepts `⟨x, σ⟩` when its response is at least `(1 − ε)×` each
//! neighbour's. We run that relaxed test for maxima on the DoG stack and,
//! symmetrically, for minima (dips matter as much as peaks in 1D), then
//! drop low-contrast candidates.

use crate::config::SalientConfig;
use crate::keypoint::{Keypoint, Polarity};
use sdtw_scalespace::Pyramid;

/// Relaxed dominance test for a maximum: `v` must be ≥ `(1−ε)·u` for every
/// neighbour `u`. Negative neighbours are automatically dominated (the test
/// is on signed responses, exactly as stated in the paper).
#[inline]
fn dominates_max(v: f64, neighbours: &[f64], eps: f64) -> bool {
    neighbours.iter().all(|&u| v >= (1.0 - eps) * u)
}

/// Relaxed dominance test for a minimum: mirror image of `dominates_max`.
#[inline]
fn dominates_min(v: f64, neighbours: &[f64], eps: f64) -> bool {
    neighbours.iter().all(|&u| -v >= (1.0 - eps) * -u)
}

/// Scans the pyramid's DoG stacks and returns all accepted keypoints,
/// sorted by original-resolution position (ties: ascending σ).
///
/// `value_range` is the input series' `max − min`; the contrast threshold
/// is expressed relative to it so detection is insensitive to absolute
/// amplitude units.
pub fn detect_keypoints(
    pyramid: &Pyramid,
    config: &SalientConfig,
    value_range: f64,
) -> Vec<Keypoint> {
    if value_range <= 0.0 {
        // a constant series has no structure; without this early-out the
        // DoG's ~1e-16 floating-point residue would read as "features"
        return Vec::new();
    }
    // floor the threshold at well above f64 rounding noise in the DoG
    let min_response = (config.contrast_threshold * value_range).max(1e-9 * value_range);
    let mut out = Vec::new();
    for octave in pyramid.octaves() {
        let dog = &octave.dog;
        if dog.len() < 3 {
            continue;
        }
        let len = octave.len();
        if len < 3 {
            continue;
        }
        // Every DoG level is scanned. Interior levels compare against both
        // scale neighbours; the stack-boundary levels compare one-sided.
        // (Strict SIFT skips boundary levels; the paper's whole point is
        // to under-prune keypoints, and skipping them would blind the
        // matcher to half the computed scale range at s = 2.)
        // up to 2 same-level and 2 × 3 adjacent-level neighbours
        let mut buf = [0.0f64; 8];
        for l in 0..dog.len() {
            let below = l.checked_sub(1).map(|b| &dog[b].values);
            let here = &dog[l].values;
            let above = dog.get(l + 1).map(|a| &a.values);
            for i in 1..len - 1 {
                let v = here[i];
                if v.abs() < min_response {
                    continue;
                }
                buf[0] = here[i - 1];
                buf[1] = here[i + 1];
                let mut count = 2;
                for stack in [below, above].into_iter().flatten() {
                    buf[count..count + 3].copy_from_slice(&stack[i - 1..=i + 1]);
                    count += 3;
                }
                let neighbours = &buf[..count];
                // DoG maxima mark locally depressed series regions (Dip),
                // DoG minima mark elevated ones (Peak) — see `Polarity`.
                let polarity = if v > 0.0 && dominates_max(v, neighbours, config.epsilon) {
                    Some(Polarity::Dip)
                } else if v < 0.0 && dominates_min(v, neighbours, config.epsilon) {
                    Some(Polarity::Peak)
                } else {
                    None
                };
                if let Some(polarity) = polarity {
                    out.push(Keypoint {
                        position: octave.to_original_index(i),
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

/// Removes cross-octave duplicate keypoints. With `κ^s = 2`, DoG level `l`
/// of octave `o+1` carries the same absolute σ as level `l+s` of octave
/// `o`, so scanning every level detects the same `⟨x, σ⟩` twice at two
/// resolutions. Descriptors sampled at different resolutions cover
/// different temporal spans, so duplicate attributions would make matching
/// ambiguous; we keep the finer-octave (better-localised) one, breaking
/// ties by |response|. Input must be position-sorted; output is too.
fn dedupe_cross_octave(kps: Vec<Keypoint>) -> Vec<Keypoint> {
    let mut out: Vec<Keypoint> = Vec::with_capacity(kps.len());
    for kp in kps {
        let mut duplicate = false;
        for prev in out.iter_mut().rev() {
            let pos_diff = kp.position.saturating_sub(prev.position);
            // coarse-octave positions are quantised by the octave factor
            let pos_tol = 1usize << kp.octave.max(prev.octave);
            if pos_diff > 64 {
                break; // sorted input: nothing earlier can collide
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
                let better = (kp.octave, std::cmp::Reverse(ordered(kp.response.abs())))
                    < (prev.octave, std::cmp::Reverse(ordered(prev.response.abs())));
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

/// Total order on finite non-negative floats (for tuple comparisons).
#[inline]
fn ordered(v: f64) -> u64 {
    debug_assert!(v.is_finite() && v >= 0.0);
    v.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    use sdtw_tseries::TimeSeries;

    fn bump_series(n: usize, centre: f64, width: f64, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let d = (i as f64 - centre) / width;
                amp * (-d * d / 2.0).exp()
            })
            .collect()
    }

    fn detect(ts: &TimeSeries, cfg: &SalientConfig) -> Vec<Keypoint> {
        let pyr = Pyramid::build(ts, &cfg.pyramid).unwrap();
        detect_keypoints(&pyr, cfg, ts.max() - ts.min())
    }

    #[test]
    fn dominance_tests_handle_signs() {
        assert!(dominates_max(1.0, &[0.9, -5.0, 0.99], 0.02));
        assert!(!dominates_max(1.0, &[1.1], 0.02));
        assert!(dominates_max(1.0, &[1.01], 0.02)); // within epsilon
        assert!(dominates_min(-1.0, &[-0.9, 5.0], 0.02));
        assert!(!dominates_min(-1.0, &[-1.2], 0.02));
    }

    #[test]
    fn epsilon_zero_is_strict_extremality() {
        assert!(!dominates_max(1.0, &[1.0000001], 0.0));
        assert!(dominates_max(1.0, &[1.0], 0.0));
    }

    #[test]
    fn constant_series_has_no_keypoints() {
        let ts = TimeSeries::new(vec![3.0; 200]).unwrap();
        assert!(detect(&ts, &SalientConfig::default()).is_empty());
    }

    #[test]
    fn single_bump_detected_near_centre() {
        let ts = TimeSeries::new(bump_series(128, 64.0, 6.0, 1.0)).unwrap();
        let kps = detect(&ts, &SalientConfig::default());
        assert!(!kps.is_empty());
        let nearest = kps
            .iter()
            .map(|k| (k.position as i64 - 64).unsigned_abs())
            .min()
            .unwrap();
        assert!(nearest <= 6, "closest keypoint {nearest} samples away");
        // the bump is a peak: at least one Peak-polarity keypoint near it
        assert!(kps
            .iter()
            .any(|k| k.polarity == Polarity::Peak && (k.position as i64 - 64).abs() <= 8));
    }

    #[test]
    fn dip_detected_with_dip_polarity() {
        let mut v = vec![1.0; 128];
        for (i, b) in bump_series(128, 40.0, 5.0, 0.8).into_iter().enumerate() {
            v[i] -= b;
        }
        let ts = TimeSeries::new(v).unwrap();
        let kps = detect(&ts, &SalientConfig::default());
        assert!(kps
            .iter()
            .any(|k| k.polarity == Polarity::Dip && (k.position as i64 - 40).abs() <= 8));
    }

    #[test]
    fn wider_bump_yields_larger_scale() {
        let narrow = TimeSeries::new(bump_series(256, 128.0, 3.0, 1.0)).unwrap();
        let wide = TimeSeries::new(bump_series(256, 128.0, 20.0, 1.0)).unwrap();
        let cfg = SalientConfig::default();
        let kn = detect(&narrow, &cfg);
        let kw = detect(&wide, &cfg);
        let best_sigma = |kps: &[Keypoint]| -> f64 {
            kps.iter()
                .filter(|k| (k.position as i64 - 128).abs() <= 15 && k.polarity == Polarity::Peak)
                .max_by(|a, b| {
                    a.response
                        .abs()
                        .partial_cmp(&b.response.abs())
                        .expect("finite")
                })
                .map(|k| k.sigma)
                .unwrap_or(0.0)
        };
        let sn = best_sigma(&kn);
        let sw = best_sigma(&kw);
        assert!(sn > 0.0 && sw > 0.0);
        assert!(sw > sn, "wide bump sigma {sw} should exceed narrow {sn}");
    }

    #[test]
    fn relaxed_epsilon_accepts_more_keypoints_than_strict() {
        // noisy multi-feature series
        let v: Vec<f64> = (0..256)
            .map(|i| {
                let t = i as f64;
                (t / 9.0).sin() + 0.4 * (t / 23.0).cos() + 0.2 * (t / 3.0).sin()
            })
            .collect();
        let ts = TimeSeries::new(v).unwrap();
        let strict = SalientConfig {
            epsilon: 0.0,
            ..Default::default()
        };
        let relaxed = SalientConfig {
            epsilon: 0.1,
            ..Default::default()
        };
        let ks = detect(&ts, &strict).len();
        let kr = detect(&ts, &relaxed).len();
        assert!(kr > ks, "relaxed {kr} should exceed strict {ks}");
    }

    #[test]
    fn contrast_threshold_filters_noise() {
        let v: Vec<f64> = (0..256)
            .map(|i| {
                let t = i as f64;
                // dominant slow wave + tiny ripple
                (t / 40.0).sin() + 0.001 * (t / 2.5).sin()
            })
            .collect();
        let ts = TimeSeries::new(v).unwrap();
        let lax = SalientConfig {
            contrast_threshold: 0.0,
            ..Default::default()
        };
        let tight = SalientConfig {
            contrast_threshold: 0.02,
            ..Default::default()
        };
        let n_lax = detect(&ts, &lax).len();
        let n_tight = detect(&ts, &tight).len();
        assert!(n_tight < n_lax, "tight {n_tight} vs lax {n_lax}");
    }

    #[test]
    fn keypoints_are_position_sorted() {
        let v: Vec<f64> = (0..300).map(|i| (i as f64 / 11.0).sin()).collect();
        let ts = TimeSeries::new(v).unwrap();
        let kps = detect(&ts, &SalientConfig::default());
        for w in kps.windows(2) {
            assert!(w[0].position <= w[1].position);
        }
    }

    #[test]
    fn shift_invariance_of_positions() {
        // shifting the pattern shifts keypoint positions accordingly
        let base = bump_series(256, 80.0, 8.0, 1.0);
        let shifted = bump_series(256, 140.0, 8.0, 1.0);
        let cfg = SalientConfig::default();
        let k0 = detect(&TimeSeries::new(base).unwrap(), &cfg);
        let k1 = detect(&TimeSeries::new(shifted).unwrap(), &cfg);
        let strongest = |kps: &[Keypoint]| {
            kps.iter()
                .filter(|k| k.polarity == Polarity::Peak)
                .max_by(|a, b| {
                    a.response
                        .abs()
                        .partial_cmp(&b.response.abs())
                        .expect("finite")
                })
                .map(|k| k.position as i64)
                .unwrap()
        };
        let d = strongest(&k1) - strongest(&k0);
        assert!((d - 60).abs() <= 6, "expected ~60-sample shift, got {d}");
    }

    #[test]
    fn short_series_do_not_panic() {
        for n in [1usize, 2, 3, 5, 8] {
            let ts = TimeSeries::new((0..n).map(|i| i as f64).collect()).unwrap();
            let _ = detect(&ts, &SalientConfig::default());
        }
    }
}
