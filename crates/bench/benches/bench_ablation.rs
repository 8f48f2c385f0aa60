//! Ablation benchmarks for the design decisions DESIGN.md calls out:
//! ε-relaxed vs strict extrema, asymmetric vs union-symmetric bands, and
//! the cost of band sanitisation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdtw::{BandSymmetry, ConstraintPolicy, SDtw, SDtwConfig};
use sdtw_bench::dataset;
use sdtw_datasets::UcrAnalog;
use sdtw_dtw::band::{Band, ColRange};
use sdtw_salient::{extract_features, SalientConfig};
use std::hint::black_box;

fn bench_epsilon(c: &mut Criterion) {
    let ds = dataset(UcrAnalog::Trace);
    let ts = ds.series[0].clone();
    let mut group = c.benchmark_group("ablation_epsilon");
    for (label, eps) in [("strict", 0.0), ("paper", 0.0096), ("loose", 0.05)] {
        let cfg = SalientConfig {
            epsilon: eps,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(label), &eps, |b, _| {
            b.iter(|| black_box(extract_features(&ts, &cfg).unwrap().len()))
        });
    }
    group.finish();
}

fn bench_symmetry(c: &mut Criterion) {
    let ds = dataset(UcrAnalog::Trace);
    let x = ds.series[0].clone();
    let y = ds.series[1].clone();
    let mut group = c.benchmark_group("ablation_symmetry");
    for (label, symmetry) in [
        ("asymmetric", BandSymmetry::Asymmetric),
        ("union", BandSymmetry::Union),
    ] {
        let engine = SDtw::new(SDtwConfig {
            policy: ConstraintPolicy::adaptive_core_adaptive_width(),
            symmetry,
            ..SDtwConfig::default()
        })
        .unwrap();
        let fx = extract_features(&x, &engine.config().salient).unwrap();
        let fy = extract_features(&y, &engine.config().salient).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(label), &symmetry, |b, _| {
            b.iter(|| {
                black_box(
                    engine
                        .query(&x, &y)
                        .features(&fx, &fy)
                        .run()
                        .unwrap()
                        .expect("no cutoff")
                        .distance,
                )
            })
        });
    }
    group.finish();
}

fn bench_multires_combination(c: &mut Criterion) {
    // The paper (§2.1.4): sDTW "can naturally be implemented along with
    // reduced representation based solutions". Compare plain sDTW,
    // plain multi-resolution corridor, and their intersected band.
    use sdtw_dtw::engine::{dtw_run_options, DtwOptions, DtwScratch};
    use sdtw_dtw::multires::multires_band;
    let ds = dataset(UcrAnalog::Trace);
    let x = ds.series[0].clone();
    let y = ds.series[1].clone();
    let engine = SDtw::new(SDtwConfig {
        policy: ConstraintPolicy::adaptive_core_adaptive_width(),
        ..SDtwConfig::default()
    })
    .unwrap();
    let fx = extract_features(&x, &engine.config().salient).unwrap();
    let fy = extract_features(&y, &engine.config().salient).unwrap();
    let opts = DtwOptions::default();
    let (sdtw_band, _) = engine.plan_band(&fx, &fy, x.len(), y.len());
    let corridor = multires_band(&x, &y, 2, &opts);
    let combined = sdtw_band.intersect(&corridor).sanitize();

    let mut group = c.benchmark_group("ablation_multires_combination");
    for (label, band) in [
        ("sdtw_band", &sdtw_band),
        ("multires_corridor", &corridor),
        ("intersection", &combined),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &band, |b, band| {
            let mut scratch = DtwScratch::new();
            b.iter(|| {
                black_box(
                    dtw_run_options(x.values(), y.values(), band, &opts, None, &mut scratch)
                        .expect("no cutoff")
                        .distance,
                )
            })
        });
    }
    group.finish();
}

fn bench_sanitize(c: &mut Criterion) {
    // A deliberately gappy band on a large grid.
    let n = 1024;
    let ranges: Vec<ColRange> = (0..n)
        .map(|i| {
            let c = (i * 7919) % n;
            ColRange::new(c, (c + 5).min(n - 1))
        })
        .collect();
    let band = Band::from_ranges(n, n, ranges);
    c.bench_function("ablation_band_sanitize_1024", |b| {
        b.iter(|| black_box(band.sanitize().area()))
    });
}

criterion_group!(
    benches,
    bench_epsilon,
    bench_symmetry,
    bench_multires_combination,
    bench_sanitize
);
criterion_main!(benches);
