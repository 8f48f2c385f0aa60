//! Closed-loop callers: each sends its next request only after the
//! previous answer arrived, and checks every answer against its
//! reference.

use crate::calib::{Calibrator, CALIBRATE_EVERY};
use crate::check::{serve_answer, Answer, Tally};
use crate::stats::MIN_P99_SAMPLES;
use crate::workload::{request_id, request_line, RequestOrder, Spec};
use sdtw_suite::prelude::{DtwScratch, QueryTrace, SdtwIndex, ServeResponse, TimeSeries};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One phase of a run, executed by every caller between two barriers.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// How long the phase runs.
    pub seconds: f64,
    /// Whether requests ask for traces (and the benchmark records spans).
    pub traced: bool,
    /// Whether the end-to-end metrics come from this phase: it runs until
    /// it holds enough samples for a p99, and its callers run the
    /// calibration loop about every [`CALIBRATE_EVERY`].
    pub end_to_end: bool,
}

/// A timed phase ends at its deadline once it holds enough samples, and
/// in any case this long after its deadline.
const OVERRUN_CAP: Duration = Duration::from_secs(60);

/// A serve answer that takes longer than this counts as a transport
/// failure, so a hung daemon cannot hang the run.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

/// One request as a caller saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Request id (the trace's `query_id`).
    pub id: String,
    /// Start offset from the run's epoch.
    pub start: Duration,
    /// Round trip: request written to response read (serve), or the
    /// query call (kNN).
    pub took: Duration,
    /// The program's trace of the request, when traced. Boxed so that an
    /// untraced sample stays small: samples accumulate for the whole
    /// run, and the peak memory the benchmark reports should not grow
    /// with its own bookkeeping.
    pub trace: Option<Box<QueryTrace>>,
    /// Serve: entries swept and pruned whole, from the response.
    pub entries: (u64, u64),
}

/// One caller's record of one phase.
#[derive(Debug, Clone)]
pub struct CallerPhase {
    /// When the caller started the phase (after the barrier).
    pub start: Duration,
    /// When it sent its last request's answer back.
    pub end: Duration,
    /// Every request it completed.
    pub samples: Vec<Sample>,
    /// Checked answers.
    pub tally: Tally,
    /// Calibration loop times (end-to-end phase only); the caller sent
    /// nothing while it ran them.
    pub calibrations: Vec<Duration>,
}

impl CallerPhase {
    /// The caller's time in the phase, less its calibration loops.
    pub fn busy(&self) -> Duration {
        (self.end - self.start).saturating_sub(self.calibrations.iter().sum())
    }
}

/// One request through some public surface.
pub trait Call {
    /// Sends caller-local request `seq` for pool slot `slot` and checks
    /// the answer; `Err` carries a failure description.
    fn call(&mut self, seq: u64, slot: usize, traced: bool) -> Result<Sample, String>;
}

/// Runs `phases` on every caller (one thread each) and returns each
/// phase's per-caller records.
pub fn run<C: Call + Send>(
    callers: Vec<C>,
    seed: u64,
    pool: usize,
    phases: &[Phase],
    epoch: Instant,
) -> Vec<Vec<CallerPhase>> {
    let barrier = Barrier::new(callers.len());
    let done: Vec<AtomicU64> = phases.iter().map(|_| AtomicU64::new(0)).collect();
    let per_caller: Vec<Vec<CallerPhase>> = std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .into_iter()
            .enumerate()
            .map(|(c, mut caller)| {
                let (barrier, done) = (&barrier, &done);
                s.spawn(move || {
                    let mut calibrator = Calibrator::default();
                    let mut order = RequestOrder::new(seed, c, pool);
                    let mut seq = 0u64;
                    let mut out = Vec::with_capacity(phases.len());
                    for (phase, done) in phases.iter().zip(done) {
                        barrier.wait();
                        let start = Instant::now();
                        let deadline = start + Duration::from_secs_f64(phase.seconds);
                        let mut rec = CallerPhase {
                            start: start - epoch,
                            end: start - epoch,
                            samples: Vec::new(),
                            tally: Tally::default(),
                            calibrations: Vec::new(),
                        };
                        let mut calibrated: Option<Instant> = None;
                        loop {
                            if phase.end_to_end
                                && calibrated.is_none_or(|t| t.elapsed() >= CALIBRATE_EVERY)
                            {
                                rec.calibrations.push(calibrator.run());
                                calibrated = Some(Instant::now());
                            }
                            let now = Instant::now();
                            let enough = !phase.end_to_end
                                || done.load(Ordering::Relaxed) >= MIN_P99_SAMPLES as u64;
                            if (now >= deadline && enough) || now >= deadline + OVERRUN_CAP {
                                break;
                            }
                            let slot = order.next().expect("the pool is not empty");
                            let outcome = caller.call(seq, slot, phase.traced);
                            seq += 1;
                            match outcome {
                                Ok(mut sample) => {
                                    rec.tally.record(true, String::new);
                                    // the round trip ended about now
                                    sample.start =
                                        (Instant::now() - epoch).saturating_sub(sample.took);
                                    rec.samples.push(sample);
                                    done.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => rec.tally.record(false, || e),
                            }
                        }
                        rec.end = Instant::now() - epoch;
                        out.push(rec);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    // transpose to phase-major
    let mut by_phase: Vec<Vec<CallerPhase>> = phases.iter().map(|_| Vec::new()).collect();
    for caller in per_caller {
        for (p, rec) in caller.into_iter().enumerate() {
            by_phase[p].push(rec);
        }
    }
    by_phase
}

/// A serve caller. Like `client_roundtrip` and `sdtw client send`, it
/// keeps one connection for all its requests, so the daemon answers it
/// on one connection thread with a reused scratch.
pub struct ServeCaller<'a> {
    caller: usize,
    spec: Spec,
    socket: &'a Path,
    patterns: &'a [Vec<f64>],
    refs: &'a [Option<Answer>],
    conn: Option<Connection>,
}

/// Both ends of a caller's open connection.
struct Connection {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl<'a> ServeCaller<'a> {
    /// Caller `caller` of the daemon at `socket`; it connects on its
    /// first request.
    pub fn new(
        caller: usize,
        spec: Spec,
        socket: &'a Path,
        patterns: &'a [Vec<f64>],
        refs: &'a [Option<Answer>],
    ) -> ServeCaller<'a> {
        ServeCaller {
            caller,
            spec,
            socket,
            patterns,
            refs,
            conn: None,
        }
    }

    /// Times writing the request line through reading the response line
    /// on the caller's connection, opening it first if there is none. A
    /// transport error drops the connection, so the next request starts
    /// on a fresh one rather than reading a stale answer.
    fn roundtrip(&mut self, request: &[u8]) -> std::io::Result<(Duration, String)> {
        if self.conn.is_none() {
            let stream = UnixStream::connect(self.socket)?;
            stream.set_read_timeout(Some(ANSWER_TIMEOUT))?;
            self.conn = Some(Connection {
                reader: BufReader::new(stream.try_clone()?),
                writer: stream,
            });
        }
        let conn = self.conn.as_mut().expect("connected above");
        let mut line = String::new();
        let t0 = Instant::now();
        let read = conn
            .writer
            .write_all(request)
            .and_then(|()| conn.reader.read_line(&mut line));
        let took = t0.elapsed();
        match read {
            Ok(n) if n > 0 => Ok((took, line)),
            Ok(_) => {
                self.conn = None;
                Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ))
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

impl Call for ServeCaller<'_> {
    fn call(&mut self, seq: u64, slot: usize, traced: bool) -> Result<Sample, String> {
        let mut request =
            request_line(self.caller, seq, &self.patterns[slot], self.spec.k, traced).into_bytes();
        request.push(b'\n');
        let id = request_id(self.caller, seq);
        let (took, line) = self
            .roundtrip(&request)
            .map_err(|e| format!("{id}: transport error: {e}"))?;
        let resp = ServeResponse::from_json_line(line.trim_end())
            .map_err(|e| format!("{id}: bad response line: {e}"))?;
        if !resp.ok {
            return Err(format!("{id}: ok=false: {}", resp.error));
        }
        if resp.id != id {
            return Err(format!("{id}: answered as {}", resp.id));
        }
        let got = serve_answer(&resp);
        if got.is_none() || got != self.refs[slot] {
            return Err(format!(
                "{id}: pattern {slot}: {got:?} != reference {:?}",
                self.refs[slot]
            ));
        }
        Ok(Sample {
            id,
            start: Duration::ZERO,
            took,
            trace: None,
            entries: (resp.entries_swept, resp.entries_pruned),
        })
    }
}

/// A kNN caller: its own DP scratch, the shape `batch_query` runs.
pub struct KnnCaller<'a> {
    caller: usize,
    spec: Spec,
    index: &'a SdtwIndex,
    queries: &'a [TimeSeries],
    refs: &'a [Option<Answer>],
    scratch: DtwScratch,
}

impl<'a> KnnCaller<'a> {
    /// Caller `caller` over a loaded index.
    pub fn new(
        caller: usize,
        spec: Spec,
        index: &'a SdtwIndex,
        queries: &'a [TimeSeries],
        refs: &'a [Option<Answer>],
    ) -> KnnCaller<'a> {
        KnnCaller {
            caller,
            spec,
            index,
            queries,
            refs,
            scratch: DtwScratch::new(),
        }
    }
}

impl Call for KnnCaller<'_> {
    fn call(&mut self, seq: u64, slot: usize, traced: bool) -> Result<Sample, String> {
        let id = request_id(self.caller, seq);
        let query = &self.queries[slot];
        let t0 = Instant::now();
        let result = if traced {
            self.index
                .query_traced(query, self.spec.k, &id)
                .map(|(r, t)| (r, Some(Box::new(t))))
        } else {
            self.index
                .query_with_scratch(query, self.spec.k, &mut self.scratch)
                .map(|r| (r, None))
        };
        let took = t0.elapsed();
        match result {
            Err(e) => Err(format!("{id}: query failed: {e}")),
            Ok((r, trace)) => {
                let got: Answer = r
                    .neighbors
                    .iter()
                    .map(|n| (n.index, 0, n.distance.to_bits()))
                    .collect();
                if Some(&got) == self.refs[slot].as_ref() {
                    Ok(Sample {
                        id,
                        start: Duration::ZERO,
                        took,
                        trace,
                        entries: (0, 0),
                    })
                } else {
                    Err(format!(
                        "{id}: query {slot}: {got:?} != reference {:?}",
                        self.refs[slot]
                    ))
                }
            }
        }
    }
}
