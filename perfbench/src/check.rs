//! Correctness: the brute-force gate before timing, and the references
//! every timed answer is compared against.

use crate::workload::{Inputs, Spec};
use rayon::prelude::*;
use sdtw_suite::eval::corpus_brute_force;
use sdtw_suite::prelude::{
    compute_query_matrix, DtwScratch, FeatureStore, SDtw, SdtwIndex, ServeEngine, ServeRequest,
    ServeResponse, TimeSeries,
};
use sdtw_suite::tseries::transform::z_normalize;

/// One answer in comparable form: `(entry, offset, distance bits)` per
/// hit (kNN neighbours carry offset 0).
pub type Answer = Vec<(usize, usize, u64)>;

/// A serve response's hits, or `None` for an `ok = false` response.
pub fn serve_answer(resp: &ServeResponse) -> Option<Answer> {
    resp.ok.then(|| {
        resp.hits
            .iter()
            .map(|h| (h.entry, h.offset, h.distance.to_bits()))
            .collect()
    })
}

/// Requests checked and how many failed, with the first failure's story.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Requests whose answer was checked.
    pub attempted: u64,
    /// Mismatches, `ok = false` responses and transport errors.
    pub failed: u64,
    /// What went wrong first.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one checked request.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }

    /// Folds another tally in.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
    }
}

/// Pool slots the brute-force gate checks: `gate` slots spread evenly
/// over the (seeded) pool.
pub fn gate_slots(spec: &Spec) -> Vec<usize> {
    let g = spec.gate.min(spec.pool);
    (0..g).map(|i| i * spec.pool / g).collect()
}

/// The serve engine's answer for every pattern, computed in-process
/// outside the timed phase: the responses (for the encode probe) and
/// their comparable form (`None` when the engine refused).
pub fn serve_references(
    spec: &Spec,
    engine: &ServeEngine,
    inputs: &Inputs,
) -> Vec<(ServeResponse, Option<Answer>)> {
    (0..spec.pool)
        .into_par_iter()
        .map(|p| {
            let req = ServeRequest::query(format!("ref-{p}"), inputs.patterns[p].clone(), spec.k);
            let (resp, _) = engine.answer_with_scratch(&req, &mut DtwScratch::new());
            let answer = serve_answer(&resp);
            (resp, answer)
        })
        .collect()
}

/// The index's answer for every query, computed outside the timed phase.
pub fn knn_references(spec: &Spec, index: &SdtwIndex, inputs: &Inputs) -> Vec<Option<Answer>> {
    (0..spec.pool)
        .into_par_iter()
        .map(|p| {
            let query = TimeSeries::new(inputs.patterns[p].clone()).ok()?;
            let result = index
                .query_with_scratch(&query, spec.k, &mut DtwScratch::new())
                .ok()?;
            Some(
                result
                    .neighbors
                    .iter()
                    .map(|n| (n.index, 0, n.distance.to_bits()))
                    .collect(),
            )
        })
        .collect()
}

/// Checks the gate slots' serve references against the corpus-wide
/// brute-force oracle (every entry, every window, no bounds).
pub fn serve_gate(
    spec: &Spec,
    engine: &ServeEngine,
    inputs: &Inputs,
    refs: &[(ServeResponse, Option<Answer>)],
) -> Tally {
    let corpus: Vec<TimeSeries> = (0..engine.index().len())
        .map(|i| engine.index().entry_series(i).clone())
        .collect();
    let cfg = engine.stream_config();
    let oracle = SDtw::new(cfg.sdtw.clone()).expect("the index validated this configuration");
    let slots = gate_slots(spec);
    let verdicts: Vec<Option<Answer>> = slots
        .clone()
        .into_par_iter()
        .map(|p| {
            let query = TimeSeries::new(inputs.patterns[p].clone()).ok()?;
            let exclusion = cfg.exclusion_for(query.len());
            let want = corpus_brute_force(
                &oracle,
                &query,
                &corpus,
                cfg.z_normalize,
                spec.k,
                exclusion,
                f64::INFINITY,
            )
            .ok()?;
            Some(
                want.iter()
                    .map(|m| (m.entry, m.offset, m.distance.to_bits()))
                    .collect::<Answer>(),
            )
        })
        .collect();
    let mut tally = Tally::default();
    for (i, want) in verdicts.into_iter().enumerate() {
        let p = slots[i];
        let got = &refs[p].1;
        tally.record(want.is_some() && *got == want, || {
            format!("gate: pattern {p}: engine {got:?} != oracle {want:?}")
        });
    }
    tally
}

/// Checks the gate slots' kNN references against a re-ranked
/// query-vs-corpus distance matrix.
pub fn knn_gate(spec: &Spec, index: &SdtwIndex, inputs: &Inputs, refs: &[Option<Answer>]) -> Tally {
    let cfg = index.config();
    let corpus: Vec<TimeSeries> = (0..index.len())
        .map(|i| index.entry_series(i).clone())
        .collect();
    let slots = gate_slots(spec);
    let queries: Vec<TimeSeries> = slots
        .iter()
        .map(|&p| {
            let q =
                TimeSeries::new(inputs.patterns[p].clone()).expect("generated queries are finite");
            if cfg.z_normalize {
                z_normalize(&q)
            } else {
                q
            }
        })
        .collect();
    let engine = SDtw::new(cfg.sdtw.clone()).expect("the index validated this configuration");
    let store = FeatureStore::new(cfg.sdtw.salient.clone())
        .expect("the index validated this configuration");
    let matrix = compute_query_matrix(&queries, &corpus, &engine, &store, false).ok();
    let mut tally = Tally::default();
    for (q, &p) in slots.iter().enumerate() {
        let want: Option<Answer> = matrix.as_ref().map(|m| {
            m.top_k(q, spec.k)
                .into_iter()
                .map(|j| (j, 0, m.get(q, j).to_bits()))
                .collect()
        });
        let got = &refs[p];
        tally.record(want.is_some() && *got == want, || {
            format!("gate: query {p}: index {got:?} != oracle {want:?}")
        });
    }
    tally
}
