//! Differential grid for feature matching: the prepared, lane-parallel
//! dominant-pair search (`PreparedFeatures`, `match_prepared`,
//! `match_onto_prepared`, and the `match_features` / `SDtw::plan_band`
//! wrappers over them) against a verbatim copy of the pair-by-pair search
//! it replaced, kept here as the reference.
//!
//! The bar is bit identity: every `MatchResult` field, distances and
//! scores compared via `to_bits`, the comparison count included, and the
//! planned band under both `BandSymmetry` modes. The reference plans its
//! bands with a verbatim copy of the per-row band builder too, which
//! `build_band` replaced with one walk over the cuts. Inputs cover features
//! extracted from every UCR analogue (raw and z-normalised), feature
//! counts around the lane width (0, 1, 7, 8, 9) and past 70, descriptor
//! lengths 4, 64 and 128, every screen switched on and off, duplicated
//! descriptors (the lowest candidate index must win the tie), scale
//! ratios exactly at `τ_s`, scales for which the `τ_s` screen is not
//! monotone, and NaN and infinite amplitudes under the `τ_a` screen.
//!
//! The group-norm screen drops pairs it proves too far to matter, so the
//! grid also holds its edges: distances a few ulps either side of
//! `max_desc_distance × τ_d` and of a row's running second best, on
//! descriptors for which the bound meets the distance; no ceiling;
//! configurations built without validation (`τ_d` at and below 1,
//! ceilings of zero, below zero or NaN); descriptors that are not
//! unit-norm, are signed, have odd lengths or tiny magnitudes; NaN and
//! infinite descriptor values behind far candidates; and one row scored
//! twice in one gathered batch.

mod common;

use common::TestRng;
use sdtw_suite::align::{
    match_features, match_onto_prepared, match_prepared, IntervalPartition, MatchConfig,
    MatchResult, MatchedPair, PreparedFeatures,
};
use sdtw_suite::core::constraint::build_band;
use sdtw_suite::core::{BandSymmetry, ConstraintPolicy, SDtw, SDtwConfig};
use sdtw_suite::datasets::UcrAnalog;
use sdtw_suite::dtw::Band;
use sdtw_suite::salient::{Keypoint, Polarity, SalientConfig, SalientExtractor, SalientFeature};
use sdtw_suite::tseries::metric::euclidean;
use sdtw_suite::tseries::transform::z_normalize;
use sdtw_suite::tseries::TimeSeries;

/// The matching pipeline before preparation: every feature of series 1
/// walks every feature of series 2, one `euclidean` per screened pair,
/// and scoring recomputes each raw pair's descriptor distance.
mod reference {
    use sdtw_suite::align::prune::prune_inconsistent;
    use sdtw_suite::align::scores::combined_scores;
    use sdtw_suite::align::{IntervalPartition, MatchConfig, MatchResult, MatchedPair};
    use sdtw_suite::core::{BandSymmetry, ConstraintPolicy, SDtw};
    use sdtw_suite::dtw::band::ColRange;
    use sdtw_suite::dtw::itakura::itakura_band;
    use sdtw_suite::dtw::sakoe::{diagonal_column, sakoe_chiba_band};
    use sdtw_suite::dtw::Band;
    use sdtw_suite::salient::SalientFeature;
    use sdtw_suite::tseries::metric::euclidean;

    fn mu_align(fi: &SalientFeature, fj: &SalientFeature) -> f64 {
        let scopes = (fi.scope_len + fj.scope_len) / 2.0;
        scopes / (1.0 + (fi.center() - fj.center()).abs())
    }

    fn descriptor_similarity(fi: &SalientFeature, fj: &SalientFeature) -> f64 {
        let dist = euclidean(&fi.descriptor, &fj.descriptor);
        1.0 / (1.0 + dist)
    }

    fn delta_amp(fi: &SalientFeature, fj: &SalientFeature) -> f64 {
        let denom = fi.amplitude.abs().max(fj.amplitude.abs());
        if denom < 1e-12 {
            return 0.0;
        }
        ((fi.amplitude - fj.amplitude).abs() / denom).min(1.0)
    }

    fn mu_sim(fi: &SalientFeature, fj: &SalientFeature, mu_desc_min: f64) -> f64 {
        let mu_desc = descriptor_similarity(fi, fj);
        let denom = if mu_desc_min > 0.0 { mu_desc_min } else { 1.0 };
        (mu_desc / denom) * (1.0 - delta_amp(fi, fj))
    }

    fn passes_screens(f1: &SalientFeature, f2: &SalientFeature, cfg: &MatchConfig) -> bool {
        if let Some(tau_a) = cfg.tau_a {
            if (f1.amplitude - f2.amplitude).abs() >= tau_a {
                return false;
            }
        }
        if let Some(tau_s) = cfg.tau_s {
            let (a, b) = (f1.keypoint.sigma, f2.keypoint.sigma);
            let ratio = if a > b { a / b } else { b / a };
            if ratio >= tau_s {
                return false;
            }
        }
        true
    }

    fn dominant_pairs(
        feats1: &[SalientFeature],
        feats2: &[SalientFeature],
        cfg: &MatchConfig,
    ) -> (Vec<MatchedPair>, usize) {
        let mut out = Vec::new();
        let mut comparisons = 0usize;
        for (i, f1) in feats1.iter().enumerate() {
            let mut best: Option<(usize, f64)> = None;
            let mut second_best = f64::INFINITY;
            for (j, f2) in feats2.iter().enumerate() {
                if !passes_screens(f1, f2, cfg) {
                    continue;
                }
                comparisons += 1;
                let d = euclidean(&f1.descriptor, &f2.descriptor);
                match best {
                    None => best = Some((j, d)),
                    Some((_, bd)) if d < bd => {
                        second_best = bd;
                        best = Some((j, d));
                    }
                    _ => second_best = second_best.min(d),
                }
            }
            if let Some((j, d)) = best {
                let small_enough = cfg.max_desc_distance.is_none_or(|max| d <= max);
                if small_enough && d * cfg.tau_d <= second_best {
                    out.push(MatchedPair {
                        idx1: i,
                        idx2: j,
                        desc_distance: d,
                        combined_score: 0.0,
                        scope1: (feats1[i].scope_start, feats1[i].scope_end),
                        scope2: (feats2[j].scope_start, feats2[j].scope_end),
                    });
                }
            }
        }
        (out, comparisons)
    }

    fn score_pairs(
        pairs: &mut [MatchedPair],
        feats1: &[SalientFeature],
        feats2: &[SalientFeature],
    ) {
        if pairs.is_empty() {
            return;
        }
        let mu_desc_min = pairs
            .iter()
            .map(|p| 1.0 / (1.0 + p.desc_distance))
            .fold(f64::INFINITY, f64::min);
        let raw: Vec<(f64, f64)> = pairs
            .iter()
            .map(|p| {
                let f1 = &feats1[p.idx1];
                let f2 = &feats2[p.idx2];
                (mu_align(f1, f2), mu_sim(f1, f2, mu_desc_min))
            })
            .collect();
        for (pair, score) in pairs.iter_mut().zip(combined_scores(&raw)) {
            pair.combined_score = score;
        }
    }

    pub fn match_features(
        feats1: &[SalientFeature],
        feats2: &[SalientFeature],
        n: usize,
        m: usize,
        cfg: &MatchConfig,
    ) -> MatchResult {
        let (mut raw_pairs, descriptor_comparisons) = dominant_pairs(feats1, feats2, cfg);
        score_pairs(&mut raw_pairs, feats1, feats2);
        let consistent_pairs = prune_inconsistent(&raw_pairs);
        let partition = IntervalPartition::from_pairs(&consistent_pairs, n, m);
        MatchResult {
            raw_pairs,
            consistent_pairs,
            partition,
            descriptor_comparisons,
        }
    }

    fn adaptive_candidate(i: usize, partition: &IntervalPartition) -> usize {
        let e = partition.interval_of_x(i);
        let (stx, endx) = partition.bounds_x(e);
        let (sty, endy) = partition.bounds_y(e);
        if endy == sty {
            return sty;
        }
        if endx == stx {
            return sty;
        }
        let frac = (i - stx) as f64 / (endx - stx) as f64;
        (sty as f64 + frac * (endy - sty) as f64).round() as usize
    }

    fn adaptive_width(
        candidate_j: usize,
        partition: &IntervalPartition,
        neighbor_radius: usize,
        min_width_frac: f64,
    ) -> f64 {
        let e = partition.interval_of_y(candidate_j);
        let w = if neighbor_radius == 0 {
            partition.width_y(e) as f64
        } else {
            partition.avg_width_y(e, neighbor_radius)
        };
        w.max(min_width_frac * partition.m() as f64)
    }

    /// The band builder, one interval search per row.
    pub fn build_band(
        policy: &ConstraintPolicy,
        partition: &IntervalPartition,
        n: usize,
        m: usize,
    ) -> Band {
        if policy.needs_alignment() {
            assert_eq!(partition.n(), n, "partition built for a different |X|");
            assert_eq!(partition.m(), m, "partition built for a different |Y|");
        }
        match *policy {
            ConstraintPolicy::FullGrid => Band::full(n, m),
            ConstraintPolicy::FixedCoreFixedWidth { width_frac } => {
                sakoe_chiba_band(n, m, width_frac)
            }
            ConstraintPolicy::Itakura { slope } => itakura_band(n, m, slope),
            ConstraintPolicy::FixedCoreAdaptiveWidth {
                min_width_frac,
                neighbor_radius,
            } => {
                let ranges = (0..n)
                    .map(|i| {
                        let c = diagonal_column(i, n, m);
                        let w = adaptive_width(c, partition, neighbor_radius, min_width_frac);
                        range_around(c, w, m)
                    })
                    .collect();
                Band::from_ranges(n, m, ranges).sanitize()
            }
            ConstraintPolicy::AdaptiveCoreFixedWidth { width_frac } => {
                let half = ((width_frac * m as f64) / 2.0).round().max(1.0) as usize;
                let ranges = (0..n)
                    .map(|i| {
                        let c = adaptive_candidate(i, partition).min(m - 1);
                        ColRange::new(c.saturating_sub(half), (c + half).min(m - 1))
                    })
                    .collect();
                Band::from_ranges(n, m, ranges).sanitize()
            }
            ConstraintPolicy::AdaptiveCoreAdaptiveWidth {
                min_width_frac,
                neighbor_radius,
            } => {
                let ranges = (0..n)
                    .map(|i| {
                        let c = adaptive_candidate(i, partition).min(m - 1);
                        let w = adaptive_width(c, partition, neighbor_radius, min_width_frac);
                        range_around(c, w, m)
                    })
                    .collect();
                Band::from_ranges(n, m, ranges).sanitize()
            }
        }
    }

    fn range_around(candidate: usize, width: f64, m: usize) -> ColRange {
        let half = (width / 2.0).ceil().max(1.0) as usize;
        ColRange::new(
            candidate.saturating_sub(half),
            (candidate + half).min(m - 1),
        )
    }

    /// `SDtw::plan_band` over the reference matcher (adaptive policies).
    pub fn plan_band(
        engine: &SDtw,
        fx: &[SalientFeature],
        fy: &[SalientFeature],
        n: usize,
        m: usize,
    ) -> (Band, MatchResult) {
        let config = engine.config();
        assert!(config.policy.needs_alignment());
        let forward = match_features(fx, fy, n, m, &config.matching);
        let band = build_band(&config.policy, &forward.partition, n, m);
        let band = match config.symmetry {
            BandSymmetry::Asymmetric => band,
            BandSymmetry::Union => {
                let backward = match_features(fy, fx, m, n, &config.matching);
                let back_band = build_band(&config.policy, &backward.partition, m, n);
                band.union(&back_band.transpose()).sanitize()
            }
        };
        (band, forward)
    }
}

fn assert_pairs_identical(got: &[MatchedPair], want: &[MatchedPair], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: pair count");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            (g.idx1, g.idx2),
            (w.idx1, w.idx2),
            "{ctx}: pair {k} indices"
        );
        assert_eq!(g.scope1, w.scope1, "{ctx}: pair {k} scope1");
        assert_eq!(g.scope2, w.scope2, "{ctx}: pair {k} scope2");
        assert_eq!(
            g.desc_distance.to_bits(),
            w.desc_distance.to_bits(),
            "{ctx}: pair {k} distance {} vs {}",
            g.desc_distance,
            w.desc_distance
        );
        assert_eq!(
            g.combined_score.to_bits(),
            w.combined_score.to_bits(),
            "{ctx}: pair {k} score {} vs {}",
            g.combined_score,
            w.combined_score
        );
    }
}

fn assert_identical(got: &MatchResult, want: &MatchResult, ctx: &str) {
    assert_eq!(
        got.descriptor_comparisons, want.descriptor_comparisons,
        "{ctx}: descriptor comparisons"
    );
    assert_pairs_identical(&got.raw_pairs, &want.raw_pairs, &format!("{ctx} raw"));
    assert_pairs_identical(
        &got.consistent_pairs,
        &want.consistent_pairs,
        &format!("{ctx} consistent"),
    );
    assert_eq!(got.partition, want.partition, "{ctx}: partition");
}

/// Every public matching entry point against the reference, both ways
/// round. Returns the reference result of `f1` against `f2`.
fn check_pair(
    f1: &[SalientFeature],
    f2: &[SalientFeature],
    n: usize,
    m: usize,
    cfg: &MatchConfig,
    ctx: &str,
) -> MatchResult {
    let want = reference::match_features(f1, f2, n, m, cfg);
    let p1 = PreparedFeatures::new(f1);
    let p2 = PreparedFeatures::new(f2);
    assert_eq!(p1.len(), f1.len(), "{ctx}");
    assert_identical(
        &match_features(f1, f2, n, m, cfg),
        &want,
        &format!("{ctx} match_features"),
    );
    assert_identical(
        &match_prepared(&p1, f2, n, m, cfg),
        &want,
        &format!("{ctx} match_prepared"),
    );
    assert_identical(
        &match_onto_prepared(f1, &p2, n, m, cfg),
        &want,
        &format!("{ctx} match_onto_prepared"),
    );
    let back = reference::match_features(f2, f1, m, n, cfg);
    assert_identical(
        &match_prepared(&p2, f1, m, n, cfg),
        &back,
        &format!("{ctx} backward match_prepared"),
    );
    assert_identical(
        &match_onto_prepared(f2, &p1, m, n, cfg),
        &back,
        &format!("{ctx} backward match_onto_prepared"),
    );
    want
}

/// The screen settings of the grid: the defaults, then each screen and
/// ceiling switched off or tightened.
fn match_configs() -> Vec<(&'static str, MatchConfig)> {
    let base = MatchConfig::default();
    vec![
        ("default", base.clone()),
        (
            "tau_a",
            MatchConfig {
                tau_a: Some(0.5),
                ..base.clone()
            },
        ),
        (
            "no_tau_s",
            MatchConfig {
                tau_s: None,
                ..base.clone()
            },
        ),
        (
            "no_ceiling",
            MatchConfig {
                max_desc_distance: None,
                ..base.clone()
            },
        ),
        (
            "tau_d_1",
            MatchConfig {
                tau_d: 1.0,
                ..base.clone()
            },
        ),
        (
            "open",
            MatchConfig {
                tau_a: None,
                tau_s: None,
                tau_d: 1.0,
                max_desc_distance: None,
            },
        ),
        (
            "tau_a_tight_tau_s",
            MatchConfig {
                tau_a: Some(0.2),
                tau_s: Some(1.5),
                tau_d: 1.0,
                max_desc_distance: None,
            },
        ),
    ]
}

/// Salient features of a few series of every UCR analogue, raw and
/// z-normalised, at one descriptor length.
fn extracted(bins: usize) -> Vec<(String, usize, Vec<SalientFeature>)> {
    let extractor =
        SalientExtractor::new(SalientConfig::default().with_descriptor_bins(bins)).unwrap();
    let mut out = Vec::new();
    for analog in UcrAnalog::ALL {
        let data = analog.generate(3);
        for (s, series) in data.series.iter().take(4).enumerate() {
            for znorm in [false, true] {
                let ts: TimeSeries = if znorm {
                    z_normalize(series)
                } else {
                    series.clone()
                };
                out.push((
                    format!("{} #{s} znorm={znorm} bins={bins}", data.name),
                    ts.len(),
                    extractor.extract(&ts),
                ));
            }
        }
    }
    out
}

#[test]
fn extracted_features_match_the_reference_bitwise() {
    for bins in [4, 64, 128] {
        let sets = extracted(bins);
        let mut largest = 0;
        // every third neighbouring pair: raw against z-normalised and
        // series against series, in every dataset
        for pair in sets.windows(2).step_by(3) {
            let (ctx1, n, f1) = &pair[0];
            let (ctx2, m, f2) = &pair[1];
            largest = largest.max(f1.len()).max(f2.len());
            for (label, cfg) in match_configs() {
                check_pair(f1, f2, *n, *m, &cfg, &format!("{ctx1} vs {ctx2} [{label}]"));
            }
        }
        assert!(
            largest >= 70,
            "bins={bins}: the grid must reach 70 features"
        );
    }
}

#[test]
fn feature_counts_around_the_lane_width_match_the_reference() {
    let sets = extracted(64);
    let (ctx, n, big) = sets
        .iter()
        .max_by_key(|(_, _, f)| f.len())
        .expect("features extracted");
    assert!(big.len() >= 70, "{ctx}: {} features", big.len());
    let (_, m, other) = &sets[sets.len() / 2];
    for k1 in [0, 1, 7, 8, 9, big.len()] {
        for k2 in [0, 1, 7, 8, 9, other.len()] {
            let (f1, f2) = (&big[..k1], &other[..k2.min(other.len())]);
            for (label, cfg) in match_configs() {
                check_pair(f1, f2, *n, *m, &cfg, &format!("{ctx} {k1}x{k2} [{label}]"));
            }
        }
    }
}

/// A synthetic feature: scope from σ (kept finite for any σ, as the
/// scores need), descriptor as given.
fn feature(position: usize, sigma: f64, amplitude: f64, descriptor: Vec<f64>) -> SalientFeature {
    let scope_sigma = sigma.abs().min(50.0);
    let half = (3.0 * scope_sigma) as usize;
    SalientFeature {
        keypoint: Keypoint {
            position,
            octave_position: position,
            octave: 0,
            level: 1,
            sigma,
            response: 0.5,
            polarity: Polarity::Peak,
        },
        scope_start: position.saturating_sub(half),
        scope_end: position + half,
        scope_len: 6.0 * scope_sigma + 1.0,
        amplitude,
        descriptor,
    }
}

/// Random features over a small set of scales, so exact scale ratios and
/// σ ties are common.
fn synthetic(rng: &mut TestRng, count: usize, bins: usize, sigmas: &[f64]) -> Vec<SalientFeature> {
    (0..count)
        .map(|k| {
            let sigma = sigmas[rng.usize_in(0, sigmas.len())];
            let descriptor = (0..bins).map(|_| rng.f64_in(-0.5, 0.5)).collect();
            feature(10 + 7 * k, sigma, rng.f64_in(-1.0, 1.0), descriptor)
        })
        .collect()
}

#[test]
fn scale_ratios_exactly_at_tau_s_match_the_reference() {
    // ratios of exactly 2 and 1.5 between these scales are exact in f64
    let sigmas = [0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0];
    let mut rng = TestRng::new(0x5ca1e);
    for round in 0..40 {
        let bins = [4, 64, 128][round % 3];
        let (k1, k2) = (rng.usize_in(0, 30), rng.usize_in(0, 30));
        let f1 = synthetic(&mut rng, k1, bins, &sigmas);
        let f2 = synthetic(&mut rng, k2, bins, &sigmas);
        for tau_s in [1.5, 2.0, 4.0] {
            for tau_a in [None, Some(0.6)] {
                let cfg = MatchConfig {
                    tau_a,
                    tau_s: Some(tau_s),
                    tau_d: 1.0,
                    max_desc_distance: None,
                };
                check_pair(
                    &f1,
                    &f2,
                    400,
                    400,
                    &cfg,
                    &format!("round {round} tau_s={tau_s} tau_a={tau_a:?}"),
                );
            }
        }
    }
}

#[test]
fn duplicated_descriptors_resolve_to_the_lowest_candidate() {
    let mut rng = TestRng::new(0xd0b1e);
    for bins in [4, 64, 128] {
        let f1 = synthetic(&mut rng, 11, bins, &[1.0, 2.0]);
        // every candidate twice: candidate 2k + 1 repeats candidate 2k
        let mut f2 = Vec::new();
        for (k, f) in f1.iter().enumerate() {
            let mut copy = f.clone();
            copy.keypoint.position = 5 + 20 * k;
            f2.push(copy.clone());
            copy.keypoint.position += 3;
            f2.push(copy);
        }
        for (label, cfg) in match_configs() {
            let ctx = format!("bins={bins} [{label}]");
            let want = check_pair(&f1, &f2, 400, 400, &cfg, &ctx);
            for p in &want.raw_pairs {
                assert_eq!(p.idx2 % 2, 0, "{ctx}: the lower duplicate wins");
            }
        }
        let open = MatchConfig {
            tau_a: None,
            tau_s: None,
            tau_d: 1.0,
            max_desc_distance: None,
        };
        let r = match_features(&f1, &f2, 400, 400, &open);
        assert!(
            r.raw_pairs.iter().any(|p| p.idx2 == 2 * p.idx1),
            "bins={bins}: ties are accepted at tau_d = 1"
        );
    }
}

#[test]
fn non_positive_and_non_finite_scales_match_the_reference() {
    // non-positive and non-finite scales, non-finite descriptor values
    // and amplitudes: the search screens every row one by one and the
    // comparisons keep the scalar semantics (NaN distances included)
    let mut rng = TestRng::new(0xbad5);
    let odd = [0.0, -1.0, -0.0, f64::INFINITY, f64::NAN, 1.0, 2.0];
    for round in 0..30 {
        let bins = [4, 64][round % 2];
        let (k1, k2) = (rng.usize_in(1, 20), rng.usize_in(1, 20));
        let mut f1 = synthetic(&mut rng, k1, bins, &odd);
        let mut f2 = synthetic(&mut rng, k2, bins, &[1.0, 2.0, 3.0]);
        if round % 3 == 0 {
            f2[0].keypoint.sigma = f64::NAN;
            f1[0].descriptor[0] = f64::NAN;
        }
        if round % 5 == 0 {
            f2[0].descriptor[bins - 1] = f64::INFINITY;
        }
        // amplitudes whose difference is NaN (the τ_a screen lets the
        // pair through) or infinite (it turns the pair away)
        let amplitudes = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        if round % 2 == 0 {
            f1[round % k1].amplitude = amplitudes[round % 3];
            f2[round % k2].amplitude = amplitudes[(round / 2) % 3];
        }
        for (label, cfg) in match_configs() {
            check_pair(
                &f1,
                &f2,
                400,
                400,
                &cfg,
                &format!("round {round} [{label}]"),
            );
        }
    }
}

#[test]
fn planned_bands_match_the_reference_under_both_symmetries() {
    for bins in [4, 64] {
        let sets = extracted(bins);
        for symmetry in [BandSymmetry::Asymmetric, BandSymmetry::Union] {
            for policy in [
                ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
                ConstraintPolicy::fixed_core_adaptive_width(),
            ] {
                let engine = SDtw::new(SDtwConfig {
                    salient: SalientConfig::default().with_descriptor_bins(bins),
                    policy,
                    symmetry,
                    ..SDtwConfig::default()
                })
                .unwrap();
                for pair in sets.windows(2).step_by(3) {
                    let (ctx1, n, fx) = &pair[0];
                    let (ctx2, m, fy) = &pair[1];
                    let ctx = format!("{ctx1} vs {ctx2} {symmetry:?} {}", policy.label());
                    let (want_band, want) = reference::plan_band(&engine, fx, fy, *n, *m);
                    let (band, got) = engine.plan_band(fx, fy, *n, *m);
                    assert_band(&band, &want_band, &ctx);
                    assert_identical(&got.expect("adaptive policy"), &want, &ctx);
                    let prepared = PreparedFeatures::new(fx);
                    let (band, got) = engine.plan_band_prepared(&prepared, fy, *n, *m);
                    assert_band(&band, &want_band, &format!("{ctx} prepared"));
                    assert_identical(&got.expect("adaptive policy"), &want, &ctx);
                }
            }
        }
    }
}

#[test]
fn band_builders_match_the_reference_on_random_partitions() {
    let policies = [
        ConstraintPolicy::fixed_core_adaptive_width(),
        ConstraintPolicy::FixedCoreAdaptiveWidth {
            min_width_frac: 0.0,
            neighbor_radius: 2,
        },
        ConstraintPolicy::adaptive_core_fixed_width(0.1),
        ConstraintPolicy::adaptive_core_adaptive_width(),
        ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
        ConstraintPolicy::AdaptiveCoreAdaptiveWidth {
            min_width_frac: 0.0,
            neighbor_radius: 3,
        },
        ConstraintPolicy::FullGrid,
        ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.1 },
        ConstraintPolicy::Itakura { slope: 2.0 },
    ];
    let mut rng = TestRng::new(0xba4d);
    for round in 0..300 {
        let (n, m) = (rng.usize_in(1, 160), rng.usize_in(1, 160));
        let cuts = rng.usize_in(0, 14);
        // sorted cuts with repeats (empty intervals), the series ends
        // included now and then
        let mut draw = |len: usize| -> Vec<usize> {
            let mut c: Vec<usize> = (0..cuts)
                .map(|_| match rng.usize_in(0, 8) {
                    0 => 0,
                    1 => len - 1,
                    _ => rng.usize_in(0, len),
                })
                .collect();
            c.sort_unstable();
            c
        };
        let (cuts_x, cuts_y) = (draw(n), draw(m));
        let partition = IntervalPartition::from_cuts(cuts_x, cuts_y, n, m);
        for policy in &policies {
            let ctx = format!("round {round} {n}x{m} {} cuts {}", cuts, policy.label());
            assert_band(
                &build_band(policy, &partition, n, m),
                &reference::build_band(policy, &partition, n, m),
                &ctx,
            );
        }
    }
}

fn assert_band(got: &Band, want: &Band, ctx: &str) {
    assert!(got == want, "{ctx}: bands differ");
}

/// `x` moved `ulps` representable values up (or down, when negative);
/// `x` positive and finite.
fn ulps_from(x: f64, ulps: i64) -> f64 {
    f64::from_bits(x.to_bits().wrapping_add_signed(ulps))
}

/// A `τ_d` for which `best · τ_d` rounds to exactly `target`, if a few
/// steps around `target / best` find one.
fn tau_d_hitting(best: f64, target: f64) -> Option<f64> {
    let mut t = target / best;
    for _ in 0..64 {
        let product = best * t;
        if product == target {
            return Some(t);
        }
        t = ulps_from(t, if product < target { 1 } else { -1 });
    }
    None
}

/// A non-negative descriptor of `bins` values, unit-norm or scaled by
/// `scale`.
fn random_descriptor(rng: &mut TestRng, bins: usize, scale: f64) -> Vec<f64> {
    let raw: Vec<f64> = (0..bins).map(|_| rng.f64_in(0.0, 1.0)).collect();
    let norm = euclidean(&raw, &vec![0.0; bins]);
    raw.iter().map(|v| v / norm * scale).collect()
}

/// `x` scaled by `c`: every coordinate group of `y` is parallel to `x`'s,
/// so a lower bound from group norms meets the distance, for any
/// grouping.
fn scaled(x: &[f64], c: f64) -> Vec<f64> {
    x.iter().map(|v| v * c).collect()
}

/// One σ for every synthetic feature below, so `τ_s` passes every pair.
const SIGMA: f64 = 2.0;

fn features(descriptors: Vec<Vec<f64>>) -> Vec<SalientFeature> {
    descriptors
        .into_iter()
        .enumerate()
        .map(|(k, d)| feature(10 + 5 * k, SIGMA, 0.0, d))
        .collect()
}

#[test]
fn distances_ulps_around_the_ceiling_times_tau_d_match_the_reference() {
    let mut rng = TestRng::new(0xce11);
    let mut flips = 0;
    for round in 0..200 {
        let bins = [64, 63, 4, 128, 1, 7][round % 6];
        let scale = [1.0, 1e-3, 1e3, 1e-160][round % 4];
        let x = random_descriptor(&mut rng, bins, scale);
        let c = rng.f64_in(0.2, 0.9);
        let y = scaled(&x, c);
        let d = euclidean(&x, &y);
        let f1 = features(vec![x.clone()]);
        let f2 = features(vec![y]);
        for k in -3..=3 {
            // the ceiling k ulps from the only candidate's distance, with
            // `τ_d` of 1 and, built without validation, below 1: the cap
            // is the ceiling either way
            let max = ulps_from(d, k);
            for tau_d in [1.0, 0.5] {
                let cfg = MatchConfig {
                    tau_a: None,
                    tau_s: Some(2.0),
                    tau_d,
                    max_desc_distance: Some(max),
                };
                let want = check_pair(&f1, &f2, 400, 400, &cfg, &format!("round {round} k={k}"));
                assert_eq!(
                    want.raw_pairs.len(),
                    usize::from(k >= 0),
                    "round {round} k={k}"
                );
            }
        }
        // the best candidate exactly at the ceiling, a blocker whose
        // distance lies k ulps either side of ceiling × τ_d: the pair is
        // emitted only when the blocker is no nearer than that product
        let best = scaled(&x, c);
        let blocker = scaled(&x, 1.0 - 1.2 * (1.0 - c));
        let (d0, d1) = (d, euclidean(&x, &blocker));
        let f2 = features(vec![best, blocker]);
        for k in -3..=3 {
            let Some(tau_d) = tau_d_hitting(d0, ulps_from(d1, k)) else {
                continue;
            };
            let cfg = MatchConfig {
                tau_a: None,
                tau_s: Some(2.0),
                tau_d,
                max_desc_distance: Some(d0),
            };
            let want = check_pair(
                &f1,
                &f2,
                400,
                400,
                &cfg,
                &format!("round {round} blocker k={k}"),
            );
            assert_eq!(
                want.raw_pairs.len(),
                usize::from(k <= 0),
                "round {round} blocker k={k}"
            );
            flips += 1;
        }
    }
    assert!(flips > 500, "only {flips} blocker cases found a τ_d");
}

#[test]
fn distances_ulps_around_a_running_second_best_match_the_reference() {
    let mut rng = TestRng::new(0x5ec0);
    let mut cases = 0;
    for round in 0..120 {
        let bins = [64, 65, 5, 128][round % 4];
        let scale = [1.0, 7.5, 0.01][round % 3];
        let x = random_descriptor(&mut rng, bins, scale);
        let (c0, c1) = (rng.f64_in(0.8, 0.95), rng.f64_in(0.5, 0.7));
        let (best, second) = (scaled(&x, c0), scaled(&x, c1));
        let (d0, s) = (euclidean(&x, &best), euclidean(&x, &second));
        // τ_d putting best × τ_d exactly on the second best
        let Some(tau_d) = tau_d_hitting(d0, s) else {
            continue;
        };
        // far candidates with x's group norms (its negation), which no
        // norm bound can drop: they fill the gathered batches, so the
        // probe is screened against a second best already in place
        let fillers = std::iter::repeat_n(scaled(&x, -1.0), 15);
        let mut descriptors = vec![best, second];
        descriptors.extend(fillers);
        for step in -12i64..=12 {
            let probe = scaled(&x, ulps_from(c1, step));
            let dp = euclidean(&x, &probe);
            let mut with_probe = descriptors.clone();
            with_probe.push(probe);
            let (f1, f2) = (features(vec![x.clone()]), features(with_probe));
            for max_desc_distance in [None, Some(2.0 * s)] {
                let cfg = MatchConfig {
                    tau_a: None,
                    tau_s: Some(2.0),
                    tau_d,
                    max_desc_distance,
                };
                let ctx = format!("round {round} step {step} {max_desc_distance:?}");
                let want = check_pair(&f1, &f2, 400, 400, &cfg, &ctx);
                assert_eq!(want.raw_pairs.len(), usize::from(dp >= s), "{ctx}");
            }
            cases += 1;
        }
    }
    assert!(cases > 1500, "only {cases} cases");
}

/// Configurations a caller can build without `MatchConfig::validate`:
/// `τ_d` at and below 1, ceilings of zero or below.
fn unvalidated_configs() -> Vec<(&'static str, MatchConfig)> {
    let base = MatchConfig::default();
    let with = |tau_d: f64, max_desc_distance: Option<f64>| MatchConfig {
        tau_d,
        max_desc_distance,
        ..base.clone()
    };
    vec![
        ("tau_d_1", with(1.0, Some(0.5))),
        ("tau_d_0.5", with(0.5, Some(0.5))),
        ("tau_d_0", with(0.0, Some(0.3))),
        ("tau_d_negative", with(-1.0, Some(0.5))),
        ("ceiling_0", with(1.2, Some(0.0))),
        ("ceiling_negative", with(0.5, Some(-0.5))),
        ("ceiling_nan", with(1.2, Some(f64::NAN))),
        ("tau_d_nan", with(f64::NAN, Some(0.5))),
    ]
}

#[test]
fn unnormalised_negative_and_odd_length_descriptors_match_the_reference() {
    let mut rng = TestRng::new(0x0dd5);
    for round in 0..60 {
        let bins = [1, 3, 5, 63, 65, 127, 64][round % 7];
        let scale = [1.0, 1e-3, 1e3, 0.7][round % 4];
        let (k1, k2) = (rng.usize_in(1, 24), rng.usize_in(1, 40));
        // half the sets are signed; the rest mix unit-norm descriptors
        // with near copies of series 1's, so some pairs are close
        let draw = |rng: &mut TestRng| -> Vec<f64> {
            if round % 2 == 0 {
                (0..bins).map(|_| rng.f64_in(-scale, scale)).collect()
            } else {
                random_descriptor(rng, bins, scale)
            }
        };
        let d1: Vec<Vec<f64>> = (0..k1).map(|_| draw(&mut rng)).collect();
        let d2: Vec<Vec<f64>> = (0..k2)
            .map(|k| {
                if k % 3 == 0 {
                    let c = rng.f64_in(0.6, 1.4);
                    scaled(&d1[k % k1], c)
                } else {
                    draw(&mut rng)
                }
            })
            .collect();
        let (f1, f2) = (features(d1), features(d2));
        let mut configs = match_configs();
        configs.extend(unvalidated_configs());
        configs.push((
            "scaled_ceiling",
            MatchConfig {
                max_desc_distance: Some(0.5 * scale),
                ..MatchConfig::default()
            },
        ));
        for (label, cfg) in configs {
            check_pair(
                &f1,
                &f2,
                400,
                400,
                &cfg,
                &format!("round {round} bins={bins} [{label}]"),
            );
        }
    }
}

#[test]
fn nan_and_infinite_descriptor_values_match_the_reference() {
    let mut rng = TestRng::new(0x7a7);
    for bins in [64, 7] {
        let x = random_descriptor(&mut rng, bins, 1.0);
        let far = scaled(&x, 3.0);
        let near = scaled(&x, 0.9);
        let mut nan = x.clone();
        nan[bins / 2] = f64::NAN;
        let mut inf = x.clone();
        inf[0] = f64::INFINITY;
        let mut neg_inf = x.clone();
        neg_inf[bins - 1] = f64::NEG_INFINITY;
        let rows = [x.clone(), inf.clone(), neg_inf.clone(), nan.clone()];
        // a NaN distance is a row's best only as its first candidate:
        // far candidates ahead of it keep the near one emitted
        let orders = [
            vec![far.clone(), far.clone(), nan.clone(), near.clone()],
            vec![nan.clone(), far.clone(), near.clone()],
            vec![far.clone(), inf.clone(), near.clone(), neg_inf.clone()],
            vec![
                inf.clone(),
                neg_inf.clone(),
                far.clone(),
                near.clone(),
                nan.clone(),
            ],
        ];
        for (o, candidates) in orders.iter().enumerate() {
            for r in 0..rows.len() {
                let f1 = features(rows[..=r].to_vec());
                let f2 = features(candidates.clone());
                let mut configs = match_configs();
                configs.extend(unvalidated_configs());
                for (label, cfg) in configs {
                    check_pair(
                        &f1,
                        &f2,
                        400,
                        400,
                        &cfg,
                        &format!("bins={bins} order {o} rows {r} [{label}]"),
                    );
                }
            }
        }
        let want = reference::match_features(
            &features(vec![x.clone()]),
            &features(orders[0].clone()),
            400,
            400,
            &MatchConfig::default(),
        );
        assert_eq!(
            want.raw_pairs.len(),
            1,
            "bins={bins}: the near candidate is emitted"
        );
    }
}

#[test]
fn one_row_scored_twice_in_one_gathered_batch_matches_the_reference() {
    let mut rng = TestRng::new(0xba7c);
    for bins in [64, 4, 9] {
        let x = random_descriptor(&mut rng, bins, 1.0);
        let y = scaled(&x, 0.9);
        let mut nan = y.clone();
        nan[0] = f64::NAN;
        // consecutive candidates at equal distance: the lower index wins;
        // a NaN ahead of a finite distance blocks the row
        for pair in [
            [y.clone(), y.clone()],
            [nan.clone(), y.clone()],
            [y.clone(), nan],
        ] {
            let f1 = features(vec![x.clone(), scaled(&x, 0.5)]);
            let f2 = features(pair.to_vec());
            let open = MatchConfig {
                tau_a: None,
                tau_s: None,
                tau_d: 1.0,
                max_desc_distance: None,
            };
            for (label, cfg) in [("open", open), ("default", MatchConfig::default())] {
                check_pair(&f1, &f2, 400, 400, &cfg, &format!("bins={bins} [{label}]"));
            }
        }
        let tie = reference::match_features(
            &features(vec![x.clone()]),
            &features(vec![y.clone(), y]),
            400,
            400,
            &MatchConfig {
                tau_d: 1.0,
                ..MatchConfig::default()
            },
        );
        assert_eq!(
            tie.raw_pairs[0].idx2, 0,
            "bins={bins}: the first of a tie wins"
        );
    }
}
