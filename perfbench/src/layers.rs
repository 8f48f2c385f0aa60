//! The traced run's per-layer split.
//!
//! Span tree of one caller's traced phase (benchmark spans above the
//! line, the program's returned `QueryTrace` below it):
//!
//! ```text
//! caller                        whole phase, one per caller thread
//!   request                     write → read (serve) / query call (kNN)
//!   ─────────────────────────
//!     engine                    QueryTrace::wall
//!       serve: entry-screen, entry-sweep ⊃ window-sweep ⊃ {lb-*, band-plan, dp-fill}, topk-merge
//!       kNN:   extraction, envelope-build, lb-*, band-plan, dp-fill, topk-merge
//! ```
//!
//! A node's self time is its duration minus its children's. Each self
//! time is claimed by the crate whose code runs there; the caller's self
//! time (the benchmark's own loop) is unattributed. Band planning on the
//! serve path extracts each window's features and then plans the band,
//! so its time is split between `salient` and `align` in proportion to
//! the `extract_features` and `plan_band` probes on the same windows.

use crate::drive::CallerPhase;
use crate::stats::ratio;
use sdtw_suite::prelude::{QueryTrace, TracePhase, WorkloadKind};

/// The rows of the split, in pipeline order: `(metric name, crate)`.
pub const ROWS: [(&str, &str); 9] = [
    ("serve.share", "serve"),
    ("stream.entry_screen_share", "stream"),
    ("stream.entry_sweep_share", "stream"),
    ("index.share", "index"),
    ("salient.extract_share", "salient"),
    ("align.band_plan_share", "align"),
    ("dtw.lb_share", "dtw"),
    ("dtw.dp_share", "dtw"),
    ("unattributed_frac", "-"),
];

const SERVE: usize = 0;
const SCREEN: usize = 1;
const SWEEP: usize = 2;
const INDEX: usize = 3;
const SALIENT: usize = 4;
const ALIGN: usize = 5;
const LB: usize = 6;
const DP: usize = 7;
const UNATTRIBUTED: usize = 8;

/// Self seconds per row over a traced phase, and the accounting check.
#[derive(Debug, Clone)]
pub struct Split {
    /// Self seconds per [`ROWS`] entry.
    pub secs: [f64; ROWS.len()],
    /// Traced wall time: the callers' phase durations summed.
    pub wall: f64,
    /// Self times that came out negative (a child outlasting its
    /// parent), and the most negative one in seconds.
    pub negative: (usize, f64),
    /// Requests whose trace was missing.
    pub untraced: usize,
}

impl Split {
    /// Row `i`'s share of the traced wall time.
    pub fn share(&self, i: usize) -> f64 {
        ratio(self.secs[i], self.wall)
    }

    /// Whether the rows add up to the wall time, no self time is
    /// negative and every request carried a trace.
    ///
    /// The sum holds by construction: [`split`] books each caller's time
    /// outside its requests as unattributed, and a request's claims add
    /// up to its round trip. The real checks are the other two: a
    /// negative self time means the program's phase spans overlap or
    /// outlast their parent, and a missing trace means the daemon lost
    /// one.
    pub fn adds_up(&self) -> bool {
        let sum: f64 = self.secs.iter().sum();
        self.negative.0 == 0 && self.untraced == 0 && (sum - self.wall).abs() <= 1e-9 * self.wall
    }

    /// Each crate's self seconds, in first-appearance order.
    pub fn by_crate(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (i, (_, krate)) in ROWS.iter().enumerate() {
            match out.iter_mut().find(|(c, _)| c == krate) {
                Some((_, s)) => *s += self.secs[i],
                None => out.push((krate, self.secs[i])),
            }
        }
        out
    }
}

fn secs(trace: &QueryTrace, phase: TracePhase) -> f64 {
    trace.phase_duration(phase).as_secs_f64()
}

/// Splits a traced phase. `extract_frac` is the share of band-plan time
/// that is feature extraction (0 where band planning extracts nothing).
pub fn split(callers: &[CallerPhase], extract_frac: f64) -> Split {
    let mut s = Split {
        secs: [0.0; ROWS.len()],
        wall: 0.0,
        negative: (0, 0.0),
        untraced: 0,
    };
    fn claim(s: &mut Split, row: usize, v: f64) {
        if v < 0.0 {
            s.negative.0 += 1;
            s.negative.1 = s.negative.1.min(v);
        }
        s.secs[row] += v;
    }
    for c in callers {
        let caller = (c.end - c.start).as_secs_f64();
        s.wall += caller;
        let mut requests = 0.0;
        for sample in &c.samples {
            let took = sample.took.as_secs_f64();
            requests += took;
            let Some(t) = &sample.trace else {
                s.untraced += 1;
                claim(&mut s, UNATTRIBUTED, took);
                continue;
            };
            let engine = t.wall.as_secs_f64();
            let lb = secs(t, TracePhase::LbKim)
                + secs(t, TracePhase::CoarsePaa)
                + secs(t, TracePhase::LbKeogh)
                + secs(t, TracePhase::LbKeoghRev)
                + secs(t, TracePhase::EnvelopeBuild);
            let plan = secs(t, TracePhase::BandPlan);
            let extraction = secs(t, TracePhase::Extraction);
            let dp = secs(t, TracePhase::DpFill);
            let topk = secs(t, TracePhase::TopKMerge);
            let inner = lb + plan + extraction + dp;
            claim(&mut s, LB, lb);
            claim(&mut s, SALIENT, extraction + plan * extract_frac);
            claim(&mut s, ALIGN, plan * (1.0 - extract_frac));
            claim(&mut s, DP, dp);
            let owner = if t.workload == WorkloadKind::ServePattern {
                let screen = secs(t, TracePhase::EntryScreen);
                let sweep = secs(t, TracePhase::EntrySweep);
                let window = secs(t, TracePhase::WindowSweep);
                claim(&mut s, SCREEN, screen);
                claim(&mut s, SWEEP, sweep - window);
                claim(&mut s, SWEEP, window - inner);
                claim(&mut s, SERVE, engine - screen - sweep - topk);
                SERVE
            } else {
                claim(&mut s, INDEX, engine - inner - topk);
                INDEX
            };
            claim(&mut s, owner, topk);
            // request self time: the wire and both JSON codecs (serve),
            // the call around the traced query body (kNN)
            claim(&mut s, owner, took - engine);
        }
        claim(&mut s, UNATTRIBUTED, caller - requests);
    }
    s
}

/// Sums of the program's counters over a traced phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Traced requests.
    pub requests: f64,
    /// Cascade candidates (entries, plus windows on the serve path).
    pub candidates: f64,
    /// Serve: entries pruned whole by the level-1 floor (each also
    /// counted as one Kim-pruned candidate in the trace).
    pub entries_pruned: f64,
    /// Serve: entries swept.
    pub entries_swept: f64,
    /// LB_Kim prunes.
    pub kim: f64,
    /// Coarse PAA prunes.
    pub paa: f64,
    /// LB_Keogh prunes, both directions.
    pub keogh: f64,
    /// Candidates some bound stage did not apply to.
    pub inapplicable: f64,
    /// Early-abandoned DPs.
    pub abandoned: f64,
    /// Completed DPs.
    pub completed: f64,
    /// DP cells filled.
    pub cells: f64,
    /// Band area over DP candidates.
    pub band_area: f64,
    /// The unconstrained grid over DP candidates.
    pub full_grid: f64,
    /// Window visits.
    pub windows: f64,
    /// Completed-distance cache hits.
    pub cache_hits: f64,
    /// Seconds in the lower-bound phases.
    pub lb_s: f64,
    /// Seconds in DP fill.
    pub dp_s: f64,
    /// Serve: round trip minus engine wall, summed.
    pub wire_s: f64,
}

/// Adds up the counters of every traced request.
pub fn counters(callers: &[CallerPhase]) -> Counters {
    let mut k = Counters::default();
    for sample in callers.iter().flat_map(|c| &c.samples) {
        let Some(t) = &sample.trace else { continue };
        let c = &t.counters.cascade;
        k.requests += 1.0;
        k.candidates += c.candidates as f64;
        k.kim += c.pruned_kim as f64;
        k.paa += c.pruned_paa as f64;
        k.keogh += (c.pruned_keogh + c.pruned_keogh_rev) as f64;
        k.inapplicable += c.lb_inapplicable as f64;
        k.abandoned += c.abandoned as f64;
        k.completed += c.dp_completed as f64;
        k.cells += c.cells_filled as f64;
        k.band_area += t.band_area as f64;
        k.full_grid += t.full_grid as f64;
        k.windows += t.counters.windows as f64;
        k.cache_hits += t.counters.cache_hits as f64;
        k.lb_s += secs(t, TracePhase::LbKim)
            + secs(t, TracePhase::CoarsePaa)
            + secs(t, TracePhase::LbKeogh)
            + secs(t, TracePhase::LbKeoghRev);
        k.dp_s += secs(t, TracePhase::DpFill);
        k.entries_swept += sample.entries.0 as f64;
        k.entries_pruned += sample.entries.1 as f64;
        if t.workload == WorkloadKind::ServePattern {
            k.wire_s += sample.took.as_secs_f64() - t.wall.as_secs_f64();
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Tally;
    use crate::drive::Sample;
    use sdtw_suite::prelude::SpanRecord;
    use std::time::Duration;

    fn span(phase: TracePhase, us: u64) -> SpanRecord {
        SpanRecord {
            phase,
            start: Duration::ZERO,
            duration: Duration::from_micros(us),
            count: 1,
            thread: 0,
        }
    }

    #[test]
    fn serve_split_adds_up_to_the_caller_wall() {
        let mut t = QueryTrace::new("c0-0", WorkloadKind::ServePattern);
        t.wall = Duration::from_micros(900);
        t.spans = vec![
            span(TracePhase::EntryScreen, 100),
            span(TracePhase::EntrySweep, 700),
            span(TracePhase::WindowSweep, 650),
            span(TracePhase::LbKim, 50),
            span(TracePhase::BandPlan, 200),
            span(TracePhase::DpFill, 300),
            span(TracePhase::TopKMerge, 20),
        ];
        let caller = CallerPhase {
            start: Duration::ZERO,
            end: Duration::from_micros(1200),
            samples: vec![Sample {
                id: "c0-0".into(),
                start: Duration::ZERO,
                took: Duration::from_micros(1000),
                trace: Some(Box::new(t)),
                entries: (3, 1),
            }],
            tally: Tally::default(),
            calibrations: Vec::new(),
        };
        let s = split(&[caller], 0.75);
        assert!(s.adds_up(), "{s:?}");
        let us = |i: usize| (s.secs[i] * 1e6).round();
        assert_eq!(us(DP), 300.0);
        assert_eq!(us(SALIENT), 150.0);
        assert_eq!(us(ALIGN), 50.0);
        assert_eq!(us(SWEEP), 150.0, "entry-sweep and window-sweep self");
        assert_eq!(us(SERVE), 200.0, "wire 100 + engine self 80 + merge 20");
        assert_eq!(us(UNATTRIBUTED), 200.0);
    }

    #[test]
    fn overlapping_phases_and_missing_traces_fail_the_check() {
        let mut t = QueryTrace::new("c0-0", WorkloadKind::IndexKnn);
        t.wall = Duration::from_micros(100);
        // a DP phase longer than the query that holds it
        t.spans = vec![span(TracePhase::DpFill, 150)];
        let sample = |trace| Sample {
            id: "c0-0".into(),
            start: Duration::ZERO,
            took: Duration::from_micros(120),
            trace,
            entries: (0, 0),
        };
        let caller = |samples| CallerPhase {
            start: Duration::ZERO,
            end: Duration::from_micros(200),
            samples,
            tally: Tally::default(),
            calibrations: Vec::new(),
        };
        let overlapping = split(&[caller(vec![sample(Some(Box::new(t)))])], 0.0);
        assert_eq!(overlapping.negative.0, 1);
        assert!(!overlapping.adds_up());
        let untraced = split(&[caller(vec![sample(None)])], 0.0);
        assert_eq!(untraced.untraced, 1);
        assert!(!untraced.adds_up());
    }
}
