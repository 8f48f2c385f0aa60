//! Pruning-power behaviour of the cascade: on the benchmark-style corpus
//! every stage must dispose of candidates, and the cascade must do
//! strictly less DP work than a linear scan.

use sdtw::DtwScratch;
use sdtw_index::{CascadeStats, IndexConfig, SdtwIndex};
use sdtw_tseries::TimeSeries;

/// 200 sinusoids of 48 samples, each shifted in phase and in its second
/// component's frequency by its index.
fn drifting_corpus() -> Vec<TimeSeries> {
    (0..200usize)
        .map(|k| {
            TimeSeries::new(
                (0..48)
                    .map(|i| {
                        let t = i as f64;
                        ((t + k as f64) / 7.0).sin()
                            + 0.4 * ((t * (1.0 + k as f64 * 0.003)) / 17.0).cos()
                    })
                    .collect(),
            )
            .unwrap()
            .identified(k as u64)
        })
        .collect()
}

fn aggregate(index: &SdtwIndex, queries: &[TimeSeries], k: usize) -> CascadeStats {
    let mut scratch = DtwScratch::new();
    let mut total = CascadeStats::default();
    for q in queries {
        total.merge(&index.query_with_scratch(q, k, &mut scratch).unwrap().stats);
    }
    total
}

#[test]
fn every_cascade_stage_prunes_on_the_bench_corpus() {
    let corpus = drifting_corpus();
    let queries: Vec<TimeSeries> = corpus.iter().take(10).cloned().collect();
    let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap();
    let total = aggregate(&index, &queries, 5);
    assert!(total.is_consistent());
    assert_eq!(total.candidates, (queries.len() * corpus.len()) as u64);
    assert!(total.pruned_kim > 0, "LB_Kim never fired: {total:?}");
    assert!(total.pruned_paa > 0, "coarse PAA never fired: {total:?}");
    assert!(total.pruned_keogh > 0, "LB_Keogh never fired: {total:?}");
    assert!(
        total.pruned_keogh_rev > 0,
        "reversed LB_Keogh never fired: {total:?}"
    );
    assert!(
        total.abandoned > 0,
        "early abandoning never fired: {total:?}"
    );
    assert!(total.dp_completed >= 5, "top-k needs completed DP runs");
    assert!(
        total.prune_rate() > 0.5,
        "cascade should dispose of most of the corpus, got {}",
        total.prune_rate()
    );
}

#[test]
fn cascade_does_less_dp_work_than_a_linear_scan() {
    let corpus = drifting_corpus();
    let queries: Vec<TimeSeries> = corpus.iter().take(5).cloned().collect();
    let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap();
    let total = aggregate(&index, &queries, 5);
    // a linear scan fills the full band for every (query, entry) pair
    let per_pair_cells = sdtw_dtw::sakoe::sakoe_chiba_band(48, 48, 0.2).area() as u64;
    let scan_cells = per_pair_cells * (queries.len() * corpus.len()) as u64;
    assert!(
        total.cells_filled < scan_cells / 2,
        "cascade filled {} cells, linear scan {}",
        total.cells_filled,
        scan_cells
    );
}

#[test]
fn traced_query_is_bit_identical_and_carries_phase_spans() {
    use sdtw_obs::TracePhase;
    let corpus = drifting_corpus();
    let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap();
    let query = corpus[7].clone();
    let plain = index
        .query_with_scratch(&query, 5, &mut DtwScratch::new())
        .unwrap();
    let (traced, trace) = index.query_traced(&query, 5, "q7").unwrap();
    // recording must never change what the cascade sees
    assert_eq!(plain.neighbors.len(), traced.neighbors.len());
    for (a, b) in plain.neighbors.iter().zip(&traced.neighbors) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.distance.to_bits(), b.distance.to_bits());
    }
    assert_eq!(plain.stats, traced.stats);
    // the trace embeds the same counters and carries the phase spans
    assert_eq!(trace.counters.cascade, plain.stats);
    assert_eq!(trace.counters.passes, 1);
    assert!(trace.counters.is_consistent());
    let phases: Vec<_> = trace.spans.iter().map(|s| s.phase).collect();
    assert!(phases.contains(&TracePhase::LbKim), "{phases:?}");
    assert!(phases.contains(&TracePhase::BandPlan), "{phases:?}");
    assert!(phases.contains(&TracePhase::DpFill), "{phases:?}");
    assert!(phases.contains(&TracePhase::TopKMerge), "{phases:?}");
    // pruning-power denominators: band never exceeds the full grid, and
    // the cells the DP actually touched never exceed the band
    assert!(trace.band_area > 0 && trace.band_area <= trace.full_grid);
    assert!(trace.counters.cascade.cells_filled <= trace.band_area);
    // round-trips through the NDJSON line byte-for-byte
    let line = trace.to_json_line();
    let back = sdtw_obs::QueryTrace::from_json_line(&line).unwrap();
    assert_eq!(back.to_json_line(), line);
}

#[test]
fn sdtw_band_mode_also_prunes_on_structured_data() {
    // adaptive bands wander with the salient alignment; the LB_Keogh
    // stages only apply where the planned band stays inside the envelope
    // window, but LB_Kim and early abandoning are always live
    let ds = sdtw_datasets::UcrAnalog::Gun.generate(17);
    let corpus = ds.series[..24].to_vec();
    let queries: Vec<TimeSeries> = corpus.iter().take(4).cloned().collect();
    let index = SdtwIndex::build(&corpus, IndexConfig::sdtw_bands()).unwrap();
    let total = aggregate(&index, &queries, 3);
    assert!(total.is_consistent());
    assert!(
        total.pruned_before_dp() + total.abandoned > 0,
        "no pruning at all in sDTW mode: {total:?}"
    );
}
