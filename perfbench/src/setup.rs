//! Cold start: from the generated corpus file to a ready-to-serve engine
//! (serve) or a loaded index (kNN), timed step by step.

use crate::calib::{Calibrator, CALIBRATE_EVERY};
use crate::spans::SpanLog;
use crate::workload::{Kind, Spec};
use crate::Error;
use sdtw_suite::prelude::{
    SdtwIndex, ServeConfig, ServeEngine, SnapshotCodec, SnapshotFormat, TimeSeries,
};
use sdtw_suite::serve::SocketServer;
use sdtw_suite::tseries::io::read_ucr_file;
use std::path::{Path, PathBuf};

/// Where one run keeps its files: a directory of its own, relative to the
/// checkout, so the socket path stays far below the 108-byte limit.
#[derive(Debug, Clone)]
pub struct RunDir {
    /// The run's directory.
    pub dir: PathBuf,
}

impl RunDir {
    /// Creates `<root>/work/<workload>-<pid>`.
    pub fn create(root: &Path, spec: &Spec) -> Result<RunDir, Error> {
        let dir = root
            .join("work")
            .join(format!("{}-{}", spec.name, std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir { dir })
    }

    /// The generated corpus (UCR text).
    pub fn corpus(&self) -> PathBuf {
        self.dir.join("corpus.txt")
    }

    /// The binary index snapshot.
    pub fn snapshot(&self) -> PathBuf {
        self.dir.join("index.snap")
    }

    /// The daemon's socket.
    pub fn socket(&self) -> PathBuf {
        self.dir.join("serve.sock")
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // the shared parent goes too once no other run is using it
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// What a cold start leaves ready.
pub enum Loaded {
    /// A bound daemon socket and the engine it will serve.
    Serve(ServeEngine, SocketServer),
    /// A loaded index.
    Knn(SdtwIndex),
}

/// Span names of a cold start's steps, in order.
pub const STEPS: [&str; 5] = [
    "read_ucr_file",
    "SdtwIndex::build",
    "snapshot_encode_write",
    "SnapshotCodec::read_file",
    "ServeEngine::new+bind",
];

/// What one cold start produced.
pub struct Started {
    /// The engine or index, ready.
    pub loaded: Loaded,
    /// The whole start, seconds.
    pub secs: f64,
    /// Snapshot size.
    pub snapshot_bytes: usize,
    /// Samples in the corpus.
    pub samples: usize,
}

/// One cold start, recorded as a `cold_start` span with one child per
/// step.
pub fn cold_start(spec: &Spec, run: &RunDir, log: &mut SpanLog) -> Result<Started, Error> {
    let root = log.open("cold_start", None);
    let corpus: Vec<TimeSeries> = log.time(STEPS[0], Some(root), || read_ucr_file(run.corpus()))?;
    let index = log.time(STEPS[1], Some(root), || {
        SdtwIndex::build(&corpus, spec.index_config())
    })?;
    let bytes = log.time(STEPS[2], Some(root), || -> Result<usize, Error> {
        let bytes = SnapshotCodec::encode(&index, SnapshotFormat::BinaryV2)?;
        std::fs::write(run.snapshot(), &bytes)?;
        Ok(bytes.len())
    })?;
    let index = log.time(STEPS[3], Some(root), || {
        SnapshotCodec::read_file(run.snapshot())
    })?;
    let loaded = match spec.kind {
        Kind::Knn => Loaded::Knn(index),
        Kind::Serve => log.time(STEPS[4], Some(root), || -> Result<Loaded, Error> {
            let engine = ServeEngine::new(index, ServeConfig::default())?;
            Ok(Loaded::Serve(engine, SocketServer::bind(run.socket())?))
        })?,
    };
    Ok(Started {
        loaded,
        secs: log.close(root),
        snapshot_bytes: bytes,
        samples: corpus.iter().map(TimeSeries::len).sum(),
    })
}

/// Back-to-back cold starts run after the timed phase until they cover
/// this much time, so a millisecond-scale start is timed many times over.
/// They run after it so that the peak memory read at its end holds one
/// cold start's transients, not the allocator history of many.
const COVER_S: f64 = 4.0;

/// At least this many cold starts, so the median of a slow (kNN) start
/// rests on more than a handful.
const MIN_STARTS: usize = 15;

/// The set-up measurement of one run.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// Every timed cold start, seconds.
    pub starts: Vec<f64>,
    /// Calibration loop times, one about every [`CALIBRATE_EVERY`] of
    /// cold starts.
    pub calibrations: Vec<std::time::Duration>,
}

impl Setup {
    /// Times at least [`MIN_STARTS`] back-to-back cold starts covering at
    /// least [`COVER_S`] seconds.
    pub fn measure(spec: &Spec, run: &RunDir, log: &mut SpanLog) -> Result<Setup, Error> {
        let mut setup = Setup::default();
        let mut calibrator = Calibrator::default();
        let (mut covered, mut since) = (0.0, CALIBRATE_EVERY.as_secs_f64());
        while covered < COVER_S || setup.starts.len() < MIN_STARTS {
            if since >= CALIBRATE_EVERY.as_secs_f64() {
                setup.calibrations.push(calibrator.run());
                since = 0.0;
            }
            let secs = cold_start(spec, run, log)?.secs;
            covered += secs;
            since += secs;
            setup.starts.push(secs);
        }
        Ok(setup)
    }

    /// The reported set-up time: the median cold start. A few starts
    /// that stall on the file system or a page-fault storm would move a
    /// mean by more than the set-up code's own cost varies.
    pub fn setup_s(&self) -> f64 {
        crate::stats::median(&self.starts)
    }
}
