//! Shared helpers for the deterministic property-test harness.
//!
//! The repository deliberately avoids a property-testing framework
//! dependency: cases are driven by an explicit SplitMix64 stream, so every
//! run — locally and in CI — exercises exactly the same inputs, and a
//! failing case is reproducible from its printed seed alone.

// Each integration-test binary compiles this module independently and
// uses a subset of the helpers.
#![allow(dead_code)]

use sdtw_suite::dtw::engine::{
    dtw_run_options, dtw_run_windows, DtwOptions, DtwResult, DtwScratch,
};
use sdtw_suite::dtw::{AmercedKernel, Band, DtwKernel, KernelChoice, StandardKernel};

/// Tiny deterministic generator (SplitMix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
        }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi);
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// A finite random series of length `[2, 40)` with values in `[-10, 10)` —
/// the same distribution the previous proptest strategy drew from.
pub fn random_series(rng: &mut TestRng) -> sdtw_suite::tseries::TimeSeries {
    let n = rng.usize_in(2, 40);
    let values: Vec<f64> = (0..n).map(|_| rng.f64_in(-10.0, 10.0)).collect();
    sdtw_suite::tseries::TimeSeries::new(values).expect("bounded values are finite")
}

/// A structured random series: 1–5 Gaussian bumps over a flat base, length
/// `[48, 200)` — what the salient-layer properties run on.
pub fn structured_series(rng: &mut TestRng) -> sdtw_suite::tseries::TimeSeries {
    let n = rng.usize_in(48, 200);
    let bumps = rng.usize_in(1, 6);
    let mut values = vec![0.0; n];
    for _ in 0..bumps {
        let centre = rng.f64_in(0.05, 0.95) * (n - 1) as f64;
        let width = (rng.f64_in(0.01, 0.08) * n as f64).max(1.0);
        let amp = rng.f64_in(-1.0, 1.0);
        for (i, v) in values.iter_mut().enumerate() {
            let d = (i as f64 - centre) / width;
            *v += amp * (-d * d / 2.0).exp();
        }
    }
    sdtw_suite::tseries::TimeSeries::new(values).expect("finite")
}

/// The kernel `opts` selects, built as `dtw_run_options` builds it.
fn kernel_of(opts: &DtwOptions) -> Box<dyn DtwKernel> {
    match opts.kernel {
        KernelChoice::Standard => Box::new(StandardKernel),
        KernelChoice::Amerced { penalty } => Box::new(AmercedKernel::new(penalty)),
    }
}

/// Textbook banded DTW under `opts`: a dense `n × m` matrix of `+∞`,
/// filled row by row over the sanitised band, every cell by the kernel's
/// three-way expression (out-of-band and out-of-grid parents read `+∞`).
/// It shares no code with the shipped fills, which the differential tests
/// hold to it bit for bit. Returns the distance (the corner cell's raw
/// cost) and the number of cells filled.
pub fn textbook_dtw(x: &[f64], y: &[f64], band: &Band, opts: &DtwOptions) -> (f64, usize) {
    let band = if band.is_feasible() {
        band.clone()
    } else {
        band.sanitize()
    };
    let kernel = kernel_of(opts);
    let (n, m) = (x.len(), y.len());
    let mut d = vec![f64::INFINITY; n * m];
    let mut cells = 0;
    for i in 0..n {
        let row = band.row(i);
        for j in row.lo..=row.hi {
            let local = opts.metric.eval(x[i], y[j]);
            let parent = |di: usize, dj: usize| {
                if i >= di && j >= dj {
                    d[(i - di) * m + j - dj]
                } else {
                    f64::INFINITY
                }
            };
            d[i * m + j] = if i == 0 && j == 0 {
                kernel.start(local)
            } else {
                kernel
                    .up(parent(1, 0), local)
                    .min(kernel.left(parent(0, 1), local))
                    .min(kernel.diagonal(parent(1, 1), local))
            };
            cells += 1;
        }
    }
    (d[n * m - 1], cells)
}

/// The cost a warp path pays under `opts`' kernel, replayed step by step
/// (`start` at the origin, then the transition each step takes). A
/// traceback follows, per cell, the parent
/// the fill's minimum came from, so the replay reproduces the distance
/// bit for bit.
pub fn path_cost(x: &[f64], y: &[f64], steps: &[(usize, usize)], opts: &DtwOptions) -> f64 {
    let kernel = kernel_of(opts);
    let (i0, j0) = steps[0];
    let mut acc = kernel.start(opts.metric.eval(x[i0], y[j0]));
    for w in steps.windows(2) {
        let ((pi, pj), (i, j)) = (w[0], w[1]);
        let local = opts.metric.eval(x[i], y[j]);
        acc = match (i > pi, j > pj) {
            (true, true) => kernel.diagonal(acc, local),
            (true, false) => kernel.up(acc, local),
            _ => kernel.left(acc, local),
        };
    }
    acc
}

/// Runs one configuration without and with a warp path and asserts that
/// both runs agree with the textbook DP bit for bit: abandon outcome,
/// distance and cells filled. The path must be valid and pay the
/// distance. Returns the path-mode outcome.
pub fn assert_runs_agree(
    xv: &[f64],
    yv: &[f64],
    band: &Band,
    opts: &DtwOptions,
    cutoff: Option<f64>,
    label: &str,
) -> Option<DtwResult> {
    let (want, want_cells) = textbook_dtw(xv, yv, band, opts);
    let survives = cutoff.is_none_or(|t| want <= t);
    let mut scratch = DtwScratch::new();
    let mut path_run = None;
    for compute_path in [false, true] {
        let opts = DtwOptions {
            compute_path,
            ..*opts
        };
        let got = dtw_run_options(xv, yv, band, &opts, cutoff, &mut scratch);
        let mode = if compute_path { "path" } else { "no-path" };
        let Some(r) = got else {
            assert!(
                !survives,
                "{mode} run abandoned [{label}] although the textbook distance {want} \
                 is within the cutoff {cutoff:?}"
            );
            continue;
        };
        assert!(
            survives,
            "{mode} run survived [{label}] although the textbook distance {want} \
             exceeds the cutoff {cutoff:?}"
        );
        assert_eq!(
            r.distance.to_bits(),
            want.to_bits(),
            "distance diverged [{label}]: {mode} {} vs textbook {want}",
            r.distance
        );
        assert_eq!(
            r.cells_filled, want_cells,
            "cell accounting diverged [{label}]: {mode}"
        );
        match &r.path {
            None => assert!(!compute_path, "path requested [{label}]"),
            Some(path) => {
                assert!(compute_path, "no path requested [{label}]");
                path.validate(xv.len(), yv.len())
                    .unwrap_or_else(|e| panic!("invalid path [{label}]: {e}"));
                assert_eq!(
                    path_cost(xv, yv, path.steps(), &opts).to_bits(),
                    want.to_bits(),
                    "the path does not pay the distance [{label}]"
                );
            }
        }
        if compute_path {
            path_run = Some(r);
        }
    }
    path_run
}

/// `count` windows of `base.len()` samples for one lock-step call:
/// smooth seeded perturbations of `base`, one of which is an exact
/// duplicate of another (two lanes that must come out bit-equal), and
/// `base` itself in lane 0.
pub fn lane_windows(rng: &mut TestRng, base: &[f64], count: usize) -> Vec<Vec<f64>> {
    let mut windows: Vec<Vec<f64>> = (0..count)
        .map(|k| {
            if k == 0 {
                return base.to_vec();
            }
            let (amp, freq, phase) = (
                rng.f64_in(0.05, 1.5),
                rng.f64_in(0.05, 0.9),
                rng.f64_in(0.0, 6.3),
            );
            base.iter()
                .enumerate()
                .map(|(j, v)| v + amp * (j as f64 * freq + phase).sin())
                .collect()
        })
        .collect();
    if count >= 2 {
        let (from, to) = (rng.usize_in(0, count), rng.usize_in(0, count));
        windows[to] = windows[from].clone();
    }
    windows
}

/// Runs one lock-step call ([`dtw_run_windows`]) and asserts every lane
/// against the textbook distances `want` (one per window): the distance
/// bits, and `None` exactly when the textbook distance exceeds `cutoff`.
/// Lanes past the windows must be `None`.
#[allow(clippy::too_many_arguments)]
pub fn assert_lanes_agree(
    xv: &[f64],
    windows: &[&[f64]],
    want: &[f64],
    band: &Band,
    opts: &DtwOptions,
    cutoff: f64,
    scratch: &mut DtwScratch,
    label: &str,
) {
    assert_eq!(
        windows.len(),
        want.len(),
        "one textbook distance per window"
    );
    let got = dtw_run_windows(xv, windows, band, opts, cutoff, scratch);
    for (l, lane) in got.iter().enumerate() {
        let expected = want.get(l).copied().filter(|&d| d <= cutoff);
        assert_eq!(
            lane.map(f64::to_bits),
            expected.map(f64::to_bits),
            "lane {l} of {} diverged [{label}]: lock-step {lane:?} vs textbook {:?} under \
             cutoff {cutoff}",
            windows.len(),
            want.get(l)
        );
    }
}
