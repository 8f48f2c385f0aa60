//! Properties of the coarse PAA stage slotted between LB_Kim and
//! LB_Keogh:
//!
//! 1. **Admissibility chain** — for every (query, entry) pair the stage
//!    can fire on, `coarse PAA bound ≤ fine LB_Keogh ≤ banded DTW`,
//!    across segment widths that do and don't divide the series length
//!    (ragged tail segments) on seeded corpora.
//! 2. **Bit-identity of the toggle** — enabling the stage changes *no
//!    observable result*: [`SdtwIndex::query_detailed`] returns the same
//!    neighbors (ids and distance bits), and the same per-entry
//!    dispositions up to prune *attribution* (an entry the coarse stage
//!    prunes would have been pruned by LB_Keogh anyway, since the coarse
//!    bound never exceeds the fine one — the stage only shifts credit
//!    between stages, it never changes the survivor set).

use sdtw::SDtw;
use sdtw_datasets::{econ, UcrAnalog};
use sdtw_dtw::cascade::{CoarseEnvelope, StageKind};
use sdtw_dtw::lower_bound::{lb_keogh, Envelope};
use sdtw_index::{EntryOutcome, IndexConfig, SdtwIndex};
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

/// Maps a disposition's outcome to its off-stage equivalent: a coarse
/// prune becomes a Keogh prune (the justification the fine stage would
/// have produced), everything else is unchanged.
fn without_paa_attribution(outcome: EntryOutcome) -> EntryOutcome {
    match outcome {
        EntryOutcome::Pruned(StageKind::Paa) => EntryOutcome::Pruned(StageKind::Keogh),
        other => other,
    }
}

#[test]
fn query_detailed_is_bit_identical_with_the_stage_on_or_off() {
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
                    let (r_on, d_on) = on.query_detailed(q, k).unwrap();
                    let (r_off, d_off) = off.query_detailed(q, k).unwrap();
                    let ctx = format!("{name}/q{qi}/k{k}/w{width}");
                    // identical neighbors, to the distance bit
                    assert_eq!(r_on.neighbors.len(), r_off.neighbors.len(), "{ctx}");
                    for (a, b) in r_on.neighbors.iter().zip(&r_off.neighbors) {
                        assert_eq!(a.index, b.index, "{ctx}");
                        assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "{ctx}");
                    }
                    assert!(r_on.stats.is_consistent(), "{ctx}");
                    assert!(r_off.stats.is_consistent(), "{ctx}");
                    // identical DP effort: prunes only moved between stages
                    assert_eq!(r_on.stats.dp_completed, r_off.stats.dp_completed, "{ctx}");
                    assert_eq!(r_on.stats.abandoned, r_off.stats.abandoned, "{ctx}");
                    assert_eq!(r_on.stats.cells_filled, r_off.stats.cells_filled, "{ctx}");
                    if width < 2 {
                        assert_eq!(r_on.stats.pruned_paa, 0, "{ctx}: stage disabled");
                    }
                    // identical dispositions modulo prune attribution
                    assert_eq!(d_on.len(), d_off.len(), "{ctx}");
                    for (a, b) in d_on.iter().zip(&d_off) {
                        assert_eq!(a.index, b.index, "{ctx}");
                        assert_eq!(a.coarse_bound.to_bits(), b.coarse_bound.to_bits(), "{ctx}");
                        assert_eq!(
                            without_paa_attribution(a.outcome),
                            without_paa_attribution(b.outcome),
                            "{ctx} entry {}",
                            a.index
                        );
                        // the off index never attributes a prune to PAA
                        assert!(
                            !matches!(b.outcome, EntryOutcome::Pruned(StageKind::Paa)),
                            "{ctx}"
                        );
                    }
                }
            }
        }
    }
}
