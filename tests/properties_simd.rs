//! Property tests for the explicit-SIMD lane layer: the lane wavefront
//! (a run without a warp path), the row fill (a run with one) and the
//! textbook dense DP must be **bit-identical** in distances, cells filled
//! and early-abandon decisions, and the batched lower bounds must match
//! their per-item scalar references bit for bit. The sweep here
//! complements `differential_engine.rs` (structured pairs over salient,
//! Sakoe and Itakura bands) with the shapes that stress the lane
//! decomposition specifically: series shorter than one lane, ragged-tail
//! diagonal spans, membership-masked non-staircase bands, and the batched
//! bounds' remainder handling. The lock-step window fill gets its own
//! sweep over lengths 1–97, unequal lengths, and non-staircase and
//! infeasible bands. The lanes only vectorise in optimised builds, so
//! this file also runs under `--release`.

mod common;

use common::{
    assert_lanes_agree, assert_runs_agree, lane_windows, random_series, structured_series,
    textbook_dtw, TestRng,
};
use sdtw_suite::dtw::band::ColRange;
use sdtw_suite::dtw::engine::{DtwOptions, DtwScratch};
use sdtw_suite::dtw::lower_bound::{
    lb_keogh_batch, lb_keogh_batch_windows, lb_keogh_values, lb_kim, lb_kim_batch, Envelope,
    SeriesSummary, LB_LANES,
};
use sdtw_suite::dtw::sakoe::sakoe_chiba_band;
use sdtw_suite::dtw::simd::LANE_WIDTH;
use sdtw_suite::dtw::{Band, KernelChoice};
use sdtw_suite::index::{IndexConfig, SdtwIndex};
use sdtw_suite::tseries::{ElementMetric, TimeSeries};

/// The kernel grid the sweeps cross with band/length/cutoff axes.
fn kernel_grid() -> Vec<(&'static str, DtwOptions)> {
    let sym1 = DtwOptions::default();
    let amerced = DtwOptions {
        kernel: KernelChoice::Amerced { penalty: 0.25 },
        ..DtwOptions::default()
    };
    vec![("sym1", sym1), ("amerced", amerced)]
}

/// Cutoff grid derived from the uncut distance: none, loose (never
/// abandons), tie (exactly the distance — the boundary case of the
/// strictly-greater abandon test), tight (forces abandonment on any
/// non-trivial grid).
fn cutoff_grid(distance: f64) -> Vec<(&'static str, Option<f64>)> {
    vec![
        ("none", None),
        ("loose", Some(distance * 1.5 + 1.0)),
        ("tie", Some(distance)),
        ("tight", Some(distance * 0.5 - 1e-9)),
    ]
}

/// Lengths below one lane, exactly one lane, and ragged tails around the
/// lane width: every diagonal span shape the interior decomposition can
/// produce (empty lane interior, single chunk, chunk + tail).
#[test]
fn degenerate_and_ragged_lengths_are_bit_identical() {
    let mut rng = TestRng::new(0x51D0_5EED);
    let lengths = [
        1,
        2,
        3,
        LANE_WIDTH - 1,
        LANE_WIDTH,
        LANE_WIDTH + 1,
        13,
        17,
        2 * LANE_WIDTH + 3,
        31,
    ];
    for &n in &lengths {
        for &m in &lengths {
            let xv: Vec<f64> = (0..n).map(|_| rng.f64_in(-5.0, 5.0)).collect();
            let yv: Vec<f64> = (0..m).map(|_| rng.f64_in(-5.0, 5.0)).collect();
            let bands = vec![
                ("full", Band::full(n, m)),
                ("sakoe", sakoe_chiba_band(n, m, 0.3)),
            ];
            for (bname, band) in &bands {
                for (kname, opts) in kernel_grid() {
                    let label = format!("{n}x{m}/{bname}/{kname}");
                    let (base, _) = textbook_dtw(&xv, &yv, band, &opts);
                    for (cname, cutoff) in cutoff_grid(base) {
                        assert_runs_agree(
                            &xv,
                            &yv,
                            band,
                            &opts,
                            cutoff,
                            &format!("{label}/{cname}"),
                        );
                    }
                }
            }
        }
    }
}

/// A non-staircase band wide enough that the lane path runs with the
/// membership mask active: the band edges jump down every third row, so
/// the wavefront must cover each diagonal conservatively and mask the
/// holes — the masked lanes must write the same `+inf` the textbook DP
/// holds outside the band, cell for cell. Then seeded diagonal bands whose
/// lower edge dips on random rows: where two rows join the sweep on the
/// same diagonal, the lane interior must stop one row short of the span
/// of diagonal `d − 2`, whose buffer holds stale cells beyond it.
#[test]
fn non_staircase_band_is_bit_identical_under_the_membership_mask() {
    let mut rng = TestRng::new(0xBAD5_7A12);
    let (n, m) = (32, 32);
    let xv: Vec<f64> = (0..n).map(|_| rng.f64_in(-5.0, 5.0)).collect();
    let yv: Vec<f64> = (0..m).map(|_| rng.f64_in(-5.0, 5.0)).collect();
    let ranges: Vec<ColRange> = (0..n)
        .map(|i| {
            // lo drops back to 0 on every third row — strictly
            // non-monotonic edges, never a staircase.
            let lo = if i % 3 == 0 { 0 } else { i / 2 };
            ColRange::new(lo, m - 1)
        })
        .collect();
    let band = Band::from_ranges(n, m, ranges);
    assert!(
        !band.is_staircase(),
        "fixture must exercise the masked (non-staircase) lane path"
    );
    let mut cases = vec![("non-staircase".to_string(), xv, yv, band)];
    for case in 0..150 {
        let (n, m) = (rng.usize_in(16, 80), rng.usize_in(16, 80));
        let w = 6 + case % 7;
        let ranges: Vec<ColRange> = (0..n)
            .map(|i| {
                let centre = i * m / n;
                let dip = if rng.usize_in(0, 5) == 0 { 2 } else { 0 };
                let hi = (centre + w + rng.usize_in(0, 3)).min(m - 1);
                ColRange::new(centre.saturating_sub(w + dip).min(hi), hi)
            })
            .collect();
        let xv: Vec<f64> = (0..n).map(|_| rng.f64_in(-5.0, 5.0)).collect();
        let yv: Vec<f64> = (0..m).map(|_| rng.f64_in(-5.0, 5.0)).collect();
        let label = format!("dipped {case} {n}x{m}");
        cases.push((label, xv, yv, Band::from_ranges(n, m, ranges)));
    }
    for (label, xv, yv, band) in &cases {
        for (kname, opts) in kernel_grid() {
            let (base, _) = textbook_dtw(xv, yv, band, &opts);
            for (cname, cutoff) in cutoff_grid(base) {
                assert_runs_agree(
                    xv,
                    yv,
                    band,
                    &opts,
                    cutoff,
                    &format!("{label}/{kname}/{cname}"),
                );
            }
        }
    }
}

/// The lock-step fill over the shapes that stress its row buffers: every
/// length from 1 to 97 on either side, `n ≠ m`, one to eight windows with
/// a duplicate among them, and bands of every shape — full, Sakoe,
/// non-staircase (row edges that move back, so the stale-row reset works
/// on both sides), and infeasible (sanitised inside the call). One
/// scratch serves every case, so a buffer left over from a larger call
/// must never leak into a smaller one.
#[test]
fn lock_step_lanes_are_bit_identical_across_lane_shapes() {
    let mut rng = TestRng::new(0x10C5_7E95);
    let mut scratch = DtwScratch::new();
    let mut shapes: Vec<(usize, usize)> = vec![(1, 1), (1, 97), (97, 1), (2, 3), (8, 8), (9, 7)];
    for _ in 0..120 {
        let n = rng.usize_in(1, 98);
        let m = rng.usize_in(1, 98);
        shapes.push((n, m));
    }
    let (mut non_staircase, mut infeasible) = (0, 0);
    for (case, &(n, m)) in shapes.iter().enumerate() {
        let xv: Vec<f64> = (0..n).map(|_| rng.f64_in(-5.0, 5.0)).collect();
        let base: Vec<f64> = (0..m).map(|_| rng.f64_in(-5.0, 5.0)).collect();
        let count = rng.usize_in(1, LANE_WIDTH + 1);
        let windows = lane_windows(&mut rng, &base, count);
        let views: Vec<&[f64]> = windows.iter().map(|w| w.as_slice()).collect();
        let (bname, band) = match case % 4 {
            0 => ("full", Band::full(n, m)),
            1 => ("sakoe", sakoe_chiba_band(n, m, rng.f64_in(0.0, 0.3))),
            2 => {
                // a diagonal corridor whose edges jump back on random rows
                let ranges = (0..n)
                    .map(|i| {
                        let centre = i * m / n;
                        let w = rng.usize_in(0, 6);
                        let back = if rng.usize_in(0, 4) == 0 { 3 } else { 0 };
                        ColRange::new(
                            centre.saturating_sub(w + back),
                            (centre + w).saturating_sub(back).min(m - 1),
                        )
                    })
                    .collect();
                ("corridor", Band::from_ranges(n, m, ranges))
            }
            _ => {
                // independent random rows: gaps and missing corners
                let ranges = (0..n)
                    .map(|_| ColRange::new(rng.usize_in(0, m), rng.usize_in(0, m)))
                    .collect();
                ("random", Band::from_ranges(n, m, ranges))
            }
        };
        non_staircase += usize::from(!band.is_staircase());
        infeasible += usize::from(!band.is_feasible());
        for (kname, opts) in kernel_grid() {
            let want: Vec<f64> = views
                .iter()
                .map(|w| textbook_dtw(&xv, w, &band, &opts).0)
                .collect();
            let pick = want[rng.usize_in(0, count)];
            for (cname, cutoff) in cutoff_grid(pick) {
                assert_lanes_agree(
                    &xv,
                    &views,
                    &want,
                    &band,
                    &opts,
                    cutoff.unwrap_or(f64::INFINITY),
                    &mut scratch,
                    &format!("case {case} {n}x{m}/{bname}/{kname}/{count} lanes/{cname}"),
                );
            }
        }
    }
    assert!(
        non_staircase >= 20,
        "only {non_staircase} non-staircase bands"
    );
    assert!(infeasible >= 20, "only {infeasible} infeasible bands");
}

/// The batched lower bounds agree with the scalar per-item reference bit
/// for bit, at batch sizes that cover the empty, sub-lane, exact-lane, and
/// ragged-tail remainder shapes.
#[test]
fn lb_batches_match_the_scalar_reference_bitwise() {
    let mut rng = TestRng::new(0x1B_BA7C4);
    for &count in &[0usize, 1, LB_LANES - 1, LB_LANES, LB_LANES + 1, 21] {
        let len = 64;
        let x: Vec<f64> = (0..len).map(|_| rng.f64_in(-4.0, 4.0)).collect();
        let ys: Vec<Vec<f64>> = (0..count)
            .map(|_| (0..len).map(|_| rng.f64_in(-4.0, 4.0)).collect())
            .collect();
        let envs: Vec<Envelope> = ys
            .iter()
            .map(|y| Envelope::build_from_values(y, 5))
            .collect();
        let env_refs: Vec<&Envelope> = envs.iter().collect();
        let windows: Vec<&[f64]> = ys.iter().map(|y| y.as_slice()).collect();
        let x_env = Envelope::build_from_values(&x, 5);
        let x_sum = SeriesSummary::of_values(&x);
        let y_sums: Vec<SeriesSummary> = ys.iter().map(|y| SeriesSummary::of_values(y)).collect();
        for metric in [ElementMetric::Squared, ElementMetric::Absolute] {
            let mut got = Vec::new();

            lb_keogh_batch(&x, &env_refs, metric, &mut got);
            let reference: Vec<f64> = envs
                .iter()
                .map(|e| lb_keogh_values(&x, e, metric))
                .collect();
            assert_bits_eq(&got, &reference, &format!("keogh/{count}/{metric:?}"));

            lb_keogh_batch_windows(&windows, &x_env, metric, &mut got);
            let reference: Vec<f64> = ys
                .iter()
                .map(|y| lb_keogh_values(y, &x_env, metric))
                .collect();
            assert_bits_eq(&got, &reference, &format!("windows/{count}/{metric:?}"));

            lb_kim_batch(&x_sum, &y_sums, metric, &mut got);
            let reference: Vec<f64> = y_sums.iter().map(|s| lb_kim(&x_sum, s, metric)).collect();
            assert_bits_eq(&got, &reference, &format!("kim/{count}/{metric:?}"));
        }
    }
}

fn assert_bits_eq(got: &[f64], want: &[f64], label: &str) {
    assert_eq!(got.len(), want.len(), "length diverged [{label}]");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "bound #{i} diverged [{label}]: {g} vs {w}"
        );
    }
}

/// Fixed-length corpus so every LB stage in the index cascade is
/// applicable (LB_Kim, PAA, both LB_Keogh directions) and the counters
/// have something to count.
fn fixed_len_series(rng: &mut TestRng, len: usize) -> TimeSeries {
    let bumps = 1 + rng.usize_in(1, 4);
    let mut v = vec![0.0; len];
    for _ in 0..bumps {
        let c = rng.f64_in(0.0, len as f64);
        let w = rng.f64_in(3.0, 12.0);
        let a = rng.f64_in(0.5, 2.0);
        for (i, s) in v.iter_mut().enumerate() {
            let t = (i as f64 - c) / w;
            *s += a * (-t * t / 2.0).exp();
        }
    }
    TimeSeries::new(v).expect("finite fixture")
}

/// Golden cascade counters on a seeded serial index query. The expected
/// values are hard-coded literals, so any drift in the cascade's
/// prune/abandon/cell accounting — in debug or in release — is a
/// bit-identity regression in the lane layer or the bounds.
#[test]
fn cascade_counters_match_the_golden_record() {
    let mut rng = TestRng::new(0xCA5C_ADE5);
    let corpus: Vec<TimeSeries> = (0..24).map(|_| fixed_len_series(&mut rng, 96)).collect();
    let config = IndexConfig {
        z_normalize: true,
        ..IndexConfig::default()
    };
    let index = SdtwIndex::build(&corpus, config).expect("finite corpus");
    let query = fixed_len_series(&mut rng, 96);
    let result = index
        .query_with_scratch(&query, 3, &mut DtwScratch::new())
        .expect("valid query");
    assert_eq!(result.neighbors.len(), 3);

    let s = &result.stats;
    assert_eq!(s.candidates, 24, "candidates");
    assert_eq!(
        s.pruned_kim
            + s.pruned_paa
            + s.pruned_keogh
            + s.pruned_keogh_rev
            + s.abandoned
            + s.dp_completed,
        24,
        "every candidate must be accounted for exactly once"
    );
    // Golden values — any drift is a bit-identity regression in the lane
    // layer, not a tolerance question.
    assert_eq!(
        (
            s.pruned_kim,
            s.pruned_paa,
            s.pruned_keogh,
            s.pruned_keogh_rev,
            s.abandoned,
            s.dp_completed,
            s.cells_filled,
        ),
        GOLDEN,
        "cascade counters drifted from the golden record"
    );
}

/// The golden counter record for the seeded query above (the band-exact
/// reversed LB_Keogh prunes the 12 candidates whose adaptive bands
/// escape the envelope window before their DP).
const GOLDEN: (u64, u64, u64, u64, u64, u64, u64) = (1, 0, 0, 12, 5, 6, 35405);

/// Sanity: `random_series`/`structured_series` feed the differential
/// harness; keep their envelope of shapes overlapping the lane-critical
/// lengths (shorter than one lane through several lanes long).
#[test]
fn fixture_generators_cover_sub_lane_lengths() {
    let mut rng = TestRng::new(0xF1B7_0F17);
    let mut saw_sub_lane = false;
    let mut saw_multi_lane = false;
    for _ in 0..64 {
        let len = random_series(&mut rng).len();
        saw_sub_lane |= len < LANE_WIDTH;
        saw_multi_lane |= len >= 2 * LANE_WIDTH;
    }
    assert!(
        saw_sub_lane,
        "random_series never produced a sub-lane length"
    );
    assert!(
        saw_multi_lane,
        "random_series never produced a multi-lane length"
    );
    assert!(structured_series(&mut rng).len() >= 2 * LANE_WIDTH);
}
