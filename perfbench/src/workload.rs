//! The three workloads and their seeded inputs.
//!
//! Every input is a pure function of the seed: the corpus (written out as
//! a UCR text file, the only thing the program's set-up reads), the
//! pattern pool (windows cut from held-out recordings drawn with a second
//! generator seed, plus small noise) and each caller's request order (a
//! fresh seeded shuffle of the pool per cycle).

use rand::rngs::StdRng;
use rand::Rng;
use sdtw_suite::datasets::gen::{gauss, rng_for};
use sdtw_suite::prelude::{IndexConfig, ServeRequest, TimeSeries, UcrAnalog};
use sdtw_suite::tseries::io::write_ucr;

/// Which public surface a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `SocketServer` over a Unix socket, NDJSON request lines.
    Serve,
    /// Whole-series kNN through `SdtwIndex::query_with_scratch`.
    Knn,
}

/// One workload's shape. The sizes are fixed per workload (never derived
/// from the machine), so results compare across machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Workload name as `--workload` takes it.
    pub name: &'static str,
    /// Serve daemon or in-process kNN.
    pub kind: Kind,
    /// Dataset family of the corpus and of the held-out recordings.
    pub analog: UcrAnalog,
    /// Corpus entries.
    pub entries: usize,
    /// Distinct patterns (serve) or held-out queries (kNN).
    pub pool: usize,
    /// Shortest and longest pattern, in samples (serve only).
    pub pattern_len: (usize, usize),
    /// Closed-loop callers.
    pub callers: usize,
    /// Neighbours / hits per request.
    pub k: usize,
    /// Requests checked against the brute-force oracle before timing.
    pub gate: usize,
    /// The paper's `ac2aw` bands (`true`) or a Sakoe band of width 0.1
    /// over z-normalised series (`false`).
    pub sdtw_bands: bool,
}

/// Closed-loop callers per workload: one per vCPU of the 2-vCPU machine
/// the benchmark was tuned on, fixed so results compare across machines.
const CALLERS: usize = 2;

/// The serve daemon's matcher cache holds this many prepared patterns
/// before it is cleared whole; the serve workloads sit on either side.
pub const MATCHER_CACHE_CAP: usize = 256;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [Spec; 3] = [
    // Paper layers idle: a fixed band, a pattern pool the matcher cache
    // holds, so DP fill dominates and the wire is a visible share.
    Spec {
        name: "serve_sakoe",
        kind: Kind::Serve,
        analog: UcrAnalog::Gun,
        entries: 50,
        pool: 256,
        pattern_len: (48, 96),
        callers: CALLERS,
        k: 5,
        gate: 12,
        sdtw_bands: false,
    },
    // Every window that survives LB_Kim is extracted and aligned before
    // its DP; the pool overflows the matcher cache, so it churns.
    Spec {
        name: "serve_sdtw",
        kind: Kind::Serve,
        analog: UcrAnalog::Gun,
        entries: 5,
        pool: 288,
        pattern_len: (48, 96),
        callers: CALLERS,
        k: 5,
        gate: 4,
        sdtw_bands: true,
    },
    // The paper's retrieval task: corpus features cached at build, so
    // matching and band building per candidate dominate; no wire.
    Spec {
        name: "knn_sdtw",
        kind: Kind::Knn,
        analog: UcrAnalog::Trace,
        entries: 100,
        pool: 200,
        pattern_len: (0, 0),
        callers: CALLERS,
        k: 5,
        gate: 12,
        sdtw_bands: true,
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|s| s.name == name)
    }

    /// The same workload shrunk for self-tests.
    #[cfg(test)]
    pub fn smoke(self) -> Spec {
        Spec {
            entries: self.entries.min(3),
            pool: 6,
            gate: 2,
            ..self
        }
    }

    /// The index configuration the workload builds.
    pub fn index_config(&self) -> IndexConfig {
        if self.sdtw_bands {
            IndexConfig::sdtw_bands()
        } else {
            IndexConfig {
                z_normalize: true,
                ..IndexConfig::exact_banded(0.1)
            }
        }
    }

    /// Whether the index's policy plans bands from salient features.
    pub fn aligns(&self) -> bool {
        self.index_config().sdtw.policy.needs_alignment()
    }
}

/// A workload's generated inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The corpus, exactly as written to the UCR file.
    pub corpus: Vec<TimeSeries>,
    /// Pattern (serve) or query (kNN) samples, indexed by pool slot.
    pub patterns: Vec<Vec<f64>>,
}

/// Salt that turns the workload seed into the held-out generator seed.
const HELD_OUT_SALT: u64 = 0xD1B5_4A32_D192_ED03;

/// `count` recordings of `analog`, drawn from as many datasets of the
/// seed's lineage as needed. Each dataset's classes are shuffled and then
/// interleaved, so every prefix holds the classes in equal measure and a
/// small corpus does not change character from seed to seed.
fn recordings(analog: UcrAnalog, seed: u64, count: usize) -> Vec<TimeSeries> {
    let mut out = Vec::with_capacity(count);
    let mut round = 0u64;
    while out.len() < count {
        let ds = analog.generate(seed.wrapping_add(round));
        let mut classes: Vec<Vec<TimeSeries>> = ds
            .by_class()
            .into_iter()
            .map(|(_, members)| members.iter().map(|&i| ds.series[i].clone()).collect())
            .collect();
        let mut rng = rng_for(seed, 0x6f72_6465 + round);
        for class in &mut classes {
            shuffle(&mut rng, class);
        }
        let longest = classes.iter().map(Vec::len).max().unwrap_or(0);
        let interleaved = (0..longest).flat_map(|i| classes.iter().filter_map(move |c| c.get(i)));
        out.extend(interleaved.take(count - out.len()).cloned());
        round += 1;
    }
    out
}

/// Fisher–Yates shuffle on the shim RNG.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Generates a workload's corpus and pattern pool from the seed.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let corpus = recordings(spec.analog, seed, spec.entries);
    let held_out_seed = seed ^ HELD_OUT_SALT;
    let patterns = match spec.kind {
        Kind::Knn => recordings(spec.analog, held_out_seed, spec.pool)
            .into_iter()
            .map(|s| s.values().to_vec())
            .collect(),
        Kind::Serve => {
            let source = recordings(spec.analog, held_out_seed, spec.analog.table1_spec().2);
            let mut rng = rng_for(held_out_seed, 0x7061_7474);
            let (lo, hi) = spec.pattern_len;
            (0..spec.pool)
                .map(|i| {
                    // lengths evenly cover the range on every seed, so the
                    // seed moves where patterns are cut, not how much work
                    // they cost
                    let len = lo + i * (hi - lo + 1) / spec.pool;
                    let rec = source[rng.gen_range(0..source.len())].values();
                    let at = rng.gen_range(0..=rec.len() - len);
                    let cut = &rec[at..at + len];
                    let (min, max) = cut
                        .iter()
                        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
                            (a.min(v), b.max(v))
                        });
                    let sd = 0.01 * (max - min).max(1e-3);
                    cut.iter().map(|&v| v + sd * gauss(&mut rng)).collect()
                })
                .collect()
        }
    };
    Inputs { corpus, patterns }
}

/// The corpus as UCR text (comma separated, label first).
pub fn corpus_file_bytes(corpus: &[TimeSeries]) -> Vec<u8> {
    let mut out = Vec::new();
    write_ucr(&mut out, corpus).expect("writing to memory cannot fail");
    out
}

/// One caller's request order: pool slots, reshuffled every cycle.
#[derive(Debug, Clone)]
pub struct RequestOrder {
    rng: StdRng,
    perm: Vec<usize>,
    pos: usize,
}

impl RequestOrder {
    /// The order caller `caller` sends the pool in under `seed`.
    pub fn new(seed: u64, caller: usize, pool: usize) -> RequestOrder {
        RequestOrder {
            rng: rng_for(seed, 0x6361_6c6c + caller as u64),
            perm: (0..pool).collect(),
            pos: pool,
        }
    }
}

impl Iterator for RequestOrder {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.perm.is_empty() {
            return None;
        }
        if self.pos == self.perm.len() {
            shuffle(&mut self.rng, &mut self.perm);
            self.pos = 0;
        }
        self.pos += 1;
        Some(self.perm[self.pos - 1])
    }
}

/// The NDJSON request line for caller `caller`'s `seq`-th request.
pub fn request_line(caller: usize, seq: u64, values: &[f64], k: usize, trace: bool) -> String {
    let mut req = ServeRequest::query(request_id(caller, seq), values.to_vec(), k);
    req.trace = trace;
    req.to_json_line()
}

/// The id a request is sent (and its trace returned) under.
pub fn request_id(caller: usize, seq: u64) -> String {
    format!("c{caller}-{seq}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        for spec in WORKLOADS {
            let (a, b) = (generate(&spec, 17), generate(&spec, 17));
            assert_eq!(corpus_file_bytes(&a.corpus), corpus_file_bytes(&b.corpus));
            let lines = |inputs: &Inputs| -> Vec<String> {
                (0..spec.callers)
                    .flat_map(|c| {
                        RequestOrder::new(17, c, spec.pool)
                            .take(2 * spec.pool)
                            .enumerate()
                            .map(move |(i, p)| (c, i as u64, p))
                    })
                    .map(|(c, i, p)| request_line(c, i, &inputs.patterns[p], spec.k, false))
                    .collect()
            };
            assert_eq!(lines(&a), lines(&b), "{}: request lines", spec.name);
            let other = generate(&spec, 18);
            assert_ne!(
                corpus_file_bytes(&a.corpus),
                corpus_file_bytes(&other.corpus)
            );
        }
    }

    #[test]
    fn sizes_match_the_spec_and_every_cycle_covers_the_pool() {
        for spec in WORKLOADS {
            let inputs = generate(&spec, 3);
            assert_eq!(inputs.corpus.len(), spec.entries);
            assert_eq!(inputs.patterns.len(), spec.pool);
            if spec.kind == Kind::Serve {
                let (lo, hi) = spec.pattern_len;
                assert!(inputs.patterns.iter().all(|p| (lo..=hi).contains(&p.len())));
            }
            let mut first: Vec<usize> =
                RequestOrder::new(3, 0, spec.pool).take(spec.pool).collect();
            first.sort_unstable();
            assert_eq!(first, (0..spec.pool).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serve_pools_sit_on_either_side_of_the_matcher_cache() {
        let pool = |name| Spec::by_name(name).unwrap().pool;
        assert!(pool("serve_sakoe") <= MATCHER_CACHE_CAP);
        assert!(pool("serve_sdtw") > MATCHER_CACHE_CAP);
    }
}
