//! Probes: public calls timed on the workload's own seeded inputs, after
//! the timed phases, for layers the program's traces do not split.

use crate::workload::{request_line, Inputs, Kind, Spec};
use rand::Rng;
use sdtw_suite::datasets::gen::rng_for;
use sdtw_suite::prelude::{
    SDtw, SdtwIndex, ServeEngine, ServeRequest, ServeResponse, SubseqMatcher, TimeSeries,
};
use sdtw_suite::salient::{extract_features, SalientFeature};
use sdtw_suite::scalespace::Pyramid;
use sdtw_suite::tseries::transform::z_normalize;
use std::hint::black_box;
use std::time::Instant;

/// Each probe repeats its calls until they cover this much time.
const PROBE_MIN_S: f64 = 0.1;

/// Pairs sampled for the extraction and band-planning probes.
const PROBE_PAIRS: usize = 64;

/// Mean seconds per call of `f` over `items`, cycling until the calls
/// cover [`PROBE_MIN_S`].
fn per_call<T, R>(items: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || t0.elapsed().as_secs_f64() < PROBE_MIN_S {
        for item in items {
            black_box(f(black_box(item)));
        }
        calls += items.len();
    }
    t0.elapsed().as_secs_f64() / calls as f64
}

/// What the probes measured (0 where the workload's path does not run
/// the layer).
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `extract_features` per band-planned window, µs.
    pub extract_us: f64,
    /// Features per band-planned window.
    pub features_per_window: f64,
    /// `Pyramid::build` ÷ `extract_features` on the same windows.
    pub pyramid_share: f64,
    /// `SDtw::plan_band` per sampled pair, µs.
    pub plan_band_us: f64,
    /// The `extract_features` calls `SdtwIndex::build` makes, s.
    pub extract_corpus_s: f64,
    /// `SdtwIndex::coarse_screen` per pattern, µs.
    pub coarse_screen_us: f64,
    /// `SubseqMatcher::new` per distinct pattern, µs.
    pub matcher_new_us: f64,
    /// `ServeRequest::from_json_line` per request line, µs.
    pub decode_us: f64,
    /// `ServeResponse::to_json_line` per response, µs.
    pub encode_us: f64,
}

impl Probes {
    /// The share of band-plan time that is feature extraction: per
    /// serve window, band planning extracts the window's features and
    /// then plans; a kNN candidate's features come from the index.
    pub fn extract_frac(&self, spec: &Spec) -> f64 {
        match spec.kind {
            Kind::Serve if spec.aligns() => self.extract_us / (self.extract_us + self.plan_band_us),
            _ => 0.0,
        }
    }
}

/// `(pattern, band-planned series)` pairs: serve pairs a pattern with a
/// same-length corpus window (prepared as the matcher prepares it), kNN
/// pairs a query with a corpus entry.
fn sample_pairs(
    spec: &Spec,
    index: &SdtwIndex,
    inputs: &Inputs,
    seed: u64,
    z_norm: bool,
) -> Vec<(TimeSeries, TimeSeries)> {
    let prep = |v: Vec<f64>| {
        let ts = TimeSeries::new(v).expect("workload samples are finite");
        if z_norm {
            z_normalize(&ts)
        } else {
            ts
        }
    };
    let mut rng = rng_for(seed, 0x7072_6f62);
    (0..PROBE_PAIRS)
        .map(|_| {
            let p = &inputs.patterns[rng.gen_range(0..inputs.patterns.len())];
            let entry = index.entry_series(rng.gen_range(0..index.len())).values();
            let other = match spec.kind {
                Kind::Knn => entry.to_vec(),
                Kind::Serve => {
                    let at = rng.gen_range(0..=entry.len() - p.len());
                    entry[at..at + p.len()].to_vec()
                }
            };
            (prep(p.clone()), prep(other))
        })
        .collect()
}

/// Runs every probe that applies to the workload.
pub fn run(
    spec: &Spec,
    index: &SdtwIndex,
    serve: Option<(&ServeEngine, &[ServeResponse])>,
    inputs: &Inputs,
    seed: u64,
) -> Probes {
    let cfg = index.config();
    let mut out = Probes::default();
    let patterns: Vec<TimeSeries> = inputs
        .patterns
        .iter()
        .map(|p| TimeSeries::new(p.clone()).expect("workload samples are finite"))
        .collect();
    out.coarse_screen_us = 1e6 * per_call(&patterns, |q| index.coarse_screen(q));
    if spec.aligns() {
        let salient = &cfg.sdtw.salient;
        let engine = SDtw::new(cfg.sdtw.clone()).expect("the index validated this configuration");
        let pairs = sample_pairs(spec, index, inputs, seed, cfg.z_normalize);
        let features = |ts: &TimeSeries| -> Vec<SalientFeature> {
            extract_features(ts, salient).expect("the index extracted from these series")
        };
        let others: Vec<&TimeSeries> = pairs.iter().map(|(_, o)| o).collect();
        let extract = per_call(&others, |ts| features(ts));
        let pyramid = per_call(&others, |ts| {
            Pyramid::build(ts, &salient.pyramid).expect("extraction builds this pyramid")
        });
        out.extract_us = 1e6 * extract;
        out.pyramid_share = pyramid / extract;
        let planned: Vec<(Vec<SalientFeature>, Vec<SalientFeature>, usize, usize)> = pairs
            .iter()
            .map(|(q, o)| (features(q), features(o), q.len(), o.len()))
            .collect();
        out.features_per_window =
            planned.iter().map(|p| p.1.len()).sum::<usize>() as f64 / planned.len() as f64;
        out.plan_band_us =
            1e6 * per_call(&planned, |(fq, fo, n, m)| engine.plan_band(fq, fo, *n, *m));
        let t0 = Instant::now();
        for entry in index.entries() {
            black_box(features(&entry.series));
        }
        out.extract_corpus_s = t0.elapsed().as_secs_f64();
    }
    if let Some((engine, responses)) = serve {
        let cfg = engine.stream_config();
        out.matcher_new_us = 1e6
            * per_call(&patterns, |q| {
                SubseqMatcher::new(q, cfg.clone()).expect("the engine prepared these patterns")
            });
        let lines: Vec<String> = inputs
            .patterns
            .iter()
            .enumerate()
            .map(|(i, p)| request_line(0, i as u64, p, spec.k, false))
            .collect();
        out.decode_us = 1e6
            * per_call(&lines, |l| {
                ServeRequest::from_json_line(l).expect("generated lines parse")
            });
        out.encode_us = 1e6 * per_call(responses, ServeResponse::to_json_line);
    }
    out
}
