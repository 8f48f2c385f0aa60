//! Properties of the coarse PAA stage slotted between LB_Kim and
//! LB_Keogh:
//!
//! 1. **Admissibility chain** — for every (query, entry) pair the stage
//!    can fire on, `coarse PAA bound ≤ fine LB_Keogh ≤ banded DTW`,
//!    across segment widths that do and don't divide the series length
//!    (ragged tail segments) on seeded corpora.
//! 2. **Bit-identity of the toggle** — enabling the stage changes *no
//!    observable result*: [`SdtwIndex::query_with_scratch`] returns the
//!    same neighbors (ids and distance bits) and the same cascade
//!    counters up to prune *attribution*: every prune the coarse stage
//!    makes is one LB_Keogh would have made, since the coarse bound never
//!    exceeds the fine one, so `pruned_paa + pruned_keogh` with the stage
//!    on equals `pruned_keogh` with it off, and every other stage, the
//!    abandons, the completed DPs and the cells filled are unchanged (the
//!    stage only shifts credit between stages, it never changes the
//!    survivor set).

use sdtw::{DtwScratch, SDtw};
use sdtw_datasets::{econ, UcrAnalog};
use sdtw_dtw::cascade::CoarseEnvelope;
use sdtw_dtw::lower_bound::{lb_keogh, Envelope};
use sdtw_index::{IndexConfig, SdtwIndex};
use sdtw_tseries::TimeSeries;

/// Segment widths the satellite properties sweep: 1 disables the stage,
/// the rest include widths that leave ragged tails on every corpus.
const WIDTHS: [usize; 4] = [1, 4, 8, 64];

/// Seeded corpora with held-out queries, all equal-length within each
/// corpus (the stage's applicability condition) and with lengths that no
/// sweep width divides evenly — gun/trace are 150-sample analogues, econ
/// windows are 100.
fn seeded_datasets() -> Vec<(&'static str, Vec<TimeSeries>, Vec<TimeSeries>)> {
    let gun = UcrAnalog::Gun.generate(404).series;
    let trace = UcrAnalog::Trace.generate(505).series;
    let eco = econ::generate(606, 3, 4).series;
    vec![
        (
            "gun",
            gun[..16].to_vec(),
            vec![gun[0].clone(), gun[20].clone()],
        ),
        (
            "trace",
            trace[..12].to_vec(),
            vec![trace[2].clone(), trace[18].clone()],
        ),
        (
            "econ",
            eco[..10].to_vec(),
            vec![eco[1].clone(), eco[10].clone()],
        ),
    ]
}

#[test]
fn coarse_bound_is_admissible_under_lb_keogh_and_banded_dtw() {
    let config = IndexConfig::exact_banded(0.2);
    let engine = SDtw::new(config.sdtw.clone()).unwrap();
    let metric = config.sdtw.dtw.metric;
    let mut buf = Vec::new();
    for (name, corpus, queries) in seeded_datasets() {
        for q in &queries {
            for (j, y) in corpus.iter().enumerate() {
                assert_eq!(q.len(), y.len(), "{name}: equal-length corpora");
                let radius = config.radius_for(y.len());
                let env = Envelope::build(y, radius);
                let fine = lb_keogh(q, &env, metric);
                let dtw = engine.query(q, y).run().unwrap().distance;
                assert!(
                    fine <= dtw + 1e-9,
                    "{name}/{j}: LB_Keogh {fine} exceeded banded DTW {dtw}"
                );
                for width in WIDTHS {
                    if width < 2 {
                        continue; // width 1 is the fine bound itself
                    }
                    let coarse = CoarseEnvelope::build(&env, width);
                    assert_eq!(coarse.upper().len(), y.len().div_ceil(width));
                    let paa = coarse.lower_bound(q.values(), metric, &mut buf);
                    assert!(
                        paa <= fine + 1e-9,
                        "{name}/{j} w={width}: PAA bound {paa} exceeded LB_Keogh {fine}"
                    );
                }
            }
        }
    }
}

#[test]
fn queries_are_bit_identical_with_the_stage_on_or_off() {
    let mut scratch = DtwScratch::new();
    for (name, corpus, queries) in seeded_datasets() {
        let off = SdtwIndex::build(
            &corpus,
            IndexConfig {
                paa_width: 0,
                ..IndexConfig::exact_banded(0.2)
            },
        )
        .unwrap();
        for width in WIDTHS {
            let on = SdtwIndex::build(
                &corpus,
                IndexConfig {
                    paa_width: width,
                    ..IndexConfig::exact_banded(0.2)
                },
            )
            .unwrap();
            for (qi, q) in queries.iter().enumerate() {
                for k in [1usize, 3] {
                    let r_on = on.query_with_scratch(q, k, &mut scratch).unwrap();
                    let r_off = off.query_with_scratch(q, k, &mut scratch).unwrap();
                    let ctx = format!("{name}/q{qi}/k{k}/w{width}");
                    // identical neighbors, to the distance bit
                    assert_eq!(r_on.neighbors.len(), r_off.neighbors.len(), "{ctx}");
                    for (a, b) in r_on.neighbors.iter().zip(&r_off.neighbors) {
                        assert_eq!(a.index, b.index, "{ctx}");
                        assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "{ctx}");
                    }
                    let (s_on, s_off) = (&r_on.stats, &r_off.stats);
                    assert!(s_on.is_consistent(), "{ctx}");
                    assert!(s_off.is_consistent(), "{ctx}");
                    // identical DP effort and every other stage's prunes
                    assert_eq!(s_on.pruned_kim, s_off.pruned_kim, "{ctx}");
                    assert_eq!(s_on.pruned_keogh_rev, s_off.pruned_keogh_rev, "{ctx}");
                    assert_eq!(s_on.abandoned, s_off.abandoned, "{ctx}");
                    assert_eq!(s_on.dp_completed, s_off.dp_completed, "{ctx}");
                    assert_eq!(s_on.cells_filled, s_off.cells_filled, "{ctx}");
                    // the coarse stage's prunes are LB_Keogh's with it off
                    assert_eq!(
                        s_on.pruned_paa + s_on.pruned_keogh,
                        s_off.pruned_keogh,
                        "{ctx}"
                    );
                    assert_eq!(s_off.pruned_paa, 0, "{ctx}: the off index has no stage");
                    if width < 2 {
                        assert_eq!(s_on.pruned_paa, 0, "{ctx}: stage disabled");
                    }
                }
            }
        }
    }
}
