//! Performance guards: one table of named ratio floors, which CI runs in
//! release (`cargo run --release -p sdtw_bench --bin guards`).
//!
//! Each row times two sides of one workload that return the same answer
//! (the unit test below checks it bit for bit) and judges a ratio of
//! their times against a floor. The sides interleave: `ROUNDS` short
//! rounds of a few calls per side, the side that runs first alternating
//! by round, and the row reads the median of the per-round ratios. Timing
//! one side fully and then the other lets the host's speed drift between
//! the two phases decide the result; within one short round both sides
//! see the same host.
//!
//! The binary prints one line per row (`ok` or `MISSED`, name, measured
//! value and floor) and exits 1 if any row misses. It takes no flags.
//!
//! The stream cascade's floor (at least 50% of window visits pruned
//! before the DP, with the PAA stage firing) is a count, not a timing: it
//! gates in `tests/integration_stream.rs`
//! (`cascade_prunes_most_windows_on_seeded_data`).

use sdtw_dtw::engine::{dtw_run_options, DtwOptions, DtwScratch};
use sdtw_dtw::sakoe::sakoe_chiba_band;
use sdtw_dtw::Band;
use sdtw_index::{IndexConfig, SdtwIndex, SnapshotCodec, SnapshotFormat};
use sdtw_obs::{Recorder, TracePhase};
use sdtw_serve::{ServeConfig, ServeEngine, ServeRequest, ServeResponse};
use sdtw_tseries::TimeSeries;
use std::fmt;
use std::hint::black_box;
use std::time::Instant;

/// Rounds per row; odd, so the median is one round's ratio.
const ROUNDS: usize = 201;

/// The table: each row's workload, the value it measures and its floor.
const GUARDS: [Guard; 3] = [
    Guard {
        name: "lane fill vs path-mode fill, 512-point full grid",
        value: "path ns / lane ns",
        floor: Floor::AtLeast(2.2),
        measure: || median_ratio(&mut FullGrid::new(), 1),
    },
    Guard {
        name: "disabled-recorder seam, 64-sample window DP, Sakoe 0.2",
        value: "disabled ns / bare ns - 1",
        floor: Floor::Below(0.02),
        measure: || median_ratio(&mut Seam::new(), 50) - 1.0,
    },
    Guard {
        name: "warm ServeEngine answer vs cold decode, build and answer; 24 x 512 corpus, \
               64-sample pattern, k = 5",
        value: "cold ns / warm ns",
        floor: Floor::Above(1.0),
        measure: || median_ratio(&mut Serve::new(), 2),
    },
];

/// One row of the table.
struct Guard {
    /// What the row compares, on which workload.
    name: &'static str,
    /// The measured value, as a formula over the two sides' times.
    value: &'static str,
    /// The bound the value must keep.
    floor: Floor,
    /// Builds the workload and measures the value.
    measure: fn() -> f64,
}

/// The bound a row's value must keep; a NaN value keeps none.
#[derive(Clone, Copy)]
enum Floor {
    AtLeast(f64),
    Above(f64),
    Below(f64),
}

impl Floor {
    fn holds(self, value: f64) -> bool {
        match self {
            Floor::AtLeast(floor) => value >= floor,
            Floor::Above(floor) => value > floor,
            Floor::Below(floor) => value < floor,
        }
    }
}

impl fmt::Display for Floor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Floor::AtLeast(floor) => write!(f, ">= {floor}"),
            Floor::Above(floor) => write!(f, "> {floor}"),
            Floor::Below(floor) => write!(f, "< {floor}"),
        }
    }
}

/// A row's workload, run two ways that must give the same answer.
trait Sides {
    /// What one call returns.
    type Answer: PartialEq + fmt::Debug;
    /// The side whose time is the ratio's numerator.
    fn top(&mut self) -> Self::Answer;
    /// The side whose time is the ratio's denominator.
    fn bottom(&mut self) -> Self::Answer;
}

/// The median over `ROUNDS` rounds of the top side's time over the
/// bottom side's, each side making `calls` calls a round.
fn median_ratio(sides: &mut impl Sides, calls: u32) -> f64 {
    let mut ratios: Vec<f64> = (0..ROUNDS)
        .map(|round| {
            let (top, bottom) = if round % 2 == 0 {
                let top = seconds(calls, || sides.top());
                (top, seconds(calls, || sides.bottom()))
            } else {
                let bottom = seconds(calls, || sides.bottom());
                (seconds(calls, || sides.top()), bottom)
            };
            top / bottom
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ROUNDS / 2]
}

/// Wall time of `calls` calls of `f`.
fn seconds<T>(calls: u32, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        black_box(f());
    }
    start.elapsed().as_secs_f64()
}

/// `n` samples of two sinusoids, both shifted by `phase`.
fn series(n: usize, phase: f64) -> TimeSeries {
    TimeSeries::new(
        (0..n)
            .map(|i| {
                let t = i as f64;
                (t / 9.0 + phase).sin() + 0.4 * (t / 23.0 + phase).cos()
            })
            .collect(),
    )
    .expect("finite samples")
}

/// One DP run's distance bits.
fn distance_bits(
    x: &TimeSeries,
    y: &TimeSeries,
    band: &Band,
    opts: &DtwOptions,
    scratch: &mut DtwScratch,
) -> u64 {
    dtw_run_options(x.values(), y.values(), band, opts, None, scratch)
        .expect("no cutoff is set")
        .distance
        .to_bits()
}

/// A 512-point full grid filled with a warp path (the row fill plus
/// traceback) on top and by the lane wavefront below.
struct FullGrid {
    x: TimeSeries,
    y: TimeSeries,
    band: Band,
    path: DtwOptions,
    lanes: DtwOptions,
    scratch: DtwScratch,
}

impl FullGrid {
    fn new() -> FullGrid {
        FullGrid {
            x: series(512, 0.0),
            y: series(512, 1.3),
            band: Band::full(512, 512),
            path: DtwOptions::with_path(),
            lanes: DtwOptions::default(),
            scratch: DtwScratch::new(),
        }
    }
}

impl Sides for FullGrid {
    type Answer = u64;

    fn top(&mut self) -> u64 {
        distance_bits(&self.x, &self.y, &self.band, &self.path, &mut self.scratch)
    }

    fn bottom(&mut self) -> u64 {
        distance_bits(&self.x, &self.y, &self.band, &self.lanes, &mut self.scratch)
    }
}

/// A window-scale banded DP behind a disabled recorder's `time` on top
/// and bare below: that one `Option` branch is all the instrumentation
/// adds to the hot loops when tracing is off.
struct Seam {
    x: TimeSeries,
    y: TimeSeries,
    band: Band,
    opts: DtwOptions,
    scratch: DtwScratch,
    recorder: Recorder,
}

impl Seam {
    fn new() -> Seam {
        Seam {
            x: series(64, 0.0),
            y: series(64, 0.9),
            band: sakoe_chiba_band(64, 64, 0.2),
            opts: DtwOptions::default(),
            scratch: DtwScratch::new(),
            recorder: Recorder::disabled(),
        }
    }
}

impl Sides for Seam {
    type Answer = u64;

    fn top(&mut self) -> u64 {
        self.recorder.time(TracePhase::DpFill, || {
            distance_bits(&self.x, &self.y, &self.band, &self.opts, &mut self.scratch)
        })
    }

    fn bottom(&mut self) -> u64 {
        distance_bits(&self.x, &self.y, &self.band, &self.opts, &mut self.scratch)
    }
}

/// One pattern request answered cold on top, as a one-shot CLI call pays
/// it (decode the snapshot, which rebuilds the index, build the engine,
/// answer on a fresh scratch), and below by a warm engine whose matcher cache already holds
/// the pattern, on a lent scratch, as a long-lived daemon answers it.
struct Serve {
    snapshot: Vec<u8>,
    request: ServeRequest,
    warm: ServeEngine,
    scratch: DtwScratch,
}

impl Serve {
    fn new() -> Serve {
        let corpus: Vec<TimeSeries> = (0..24).map(|k| series(512, 0.17 * k as f64)).collect();
        let index =
            SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).expect("valid corpus");
        let mut serve = Serve {
            snapshot: SnapshotCodec::encode(&index, SnapshotFormat::BinaryV2)
                .expect("a built index encodes"),
            request: ServeRequest::query("guard", series(64, 0.4).values().to_vec(), 5),
            warm: ServeEngine::new(index, ServeConfig::default()).expect("valid engine"),
            scratch: DtwScratch::new(),
        };
        // fill the matcher cache, as a daemon's earlier requests did
        serve.bottom();
        serve
    }
}

/// A response's hits by entry, offset and distance bits.
fn hits(response: ServeResponse) -> Vec<(usize, usize, u64)> {
    assert!(response.ok, "{}", response.error);
    response
        .hits
        .iter()
        .map(|hit| (hit.entry, hit.offset, hit.distance.to_bits()))
        .collect()
}

impl Sides for Serve {
    type Answer = Vec<(usize, usize, u64)>;

    fn top(&mut self) -> Self::Answer {
        let index = SnapshotCodec::decode(&self.snapshot).expect("the snapshot was encoded here");
        let engine = ServeEngine::new(index, ServeConfig::default()).expect("valid engine");
        hits(
            engine
                .answer_with_scratch(&self.request, &mut DtwScratch::new())
                .0,
        )
    }

    fn bottom(&mut self) -> Self::Answer {
        hits(
            self.warm
                .answer_with_scratch(&self.request, &mut self.scratch)
                .0,
        )
    }
}

fn main() {
    let mut missed = 0;
    for guard in &GUARDS {
        let value = (guard.measure)();
        let holds = guard.floor.holds(value);
        println!(
            "{} {}: {} = {value:.4} (floor {})",
            if holds { "ok    " } else { "MISSED" },
            guard.name,
            guard.value,
            guard.floor
        );
        missed += usize::from(!holds);
    }
    if missed > 0 {
        eprintln!("{missed} of {} guards missed their floor", GUARDS.len());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_row_times_equal_work() {
        let mut grid = FullGrid::new();
        assert_eq!(grid.top(), grid.bottom());
        let mut seam = Seam::new();
        assert_eq!(seam.top(), seam.bottom());
        let mut serve = Serve::new();
        let cold = serve.top();
        assert_eq!(cold.len(), 5, "k = 5 hits");
        assert_eq!(cold, serve.bottom());
    }
}
