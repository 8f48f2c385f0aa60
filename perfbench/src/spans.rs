//! The benchmark's own spans around the public calls it makes: name,
//! start, end, parent span and request id, kept in memory and written
//! as NDJSON when a traced run ends.

use serde_json::json;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The public call (or benchmark phase) the span covers.
    pub name: &'static str,
    /// Index of the enclosing span in the log.
    pub parent: Option<usize>,
    /// Request id, empty outside requests.
    pub request: String,
    /// Offset from the run's epoch.
    pub start: Duration,
    /// Offset from the run's epoch.
    pub end: Duration,
}

impl Span {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// An in-memory span log.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    /// Every span, parents before children.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose offsets count from `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: String,
        start: Duration,
        end: Duration,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            request,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.push(name, parent, String::new(), start, end);
        out
    }

    /// Opens a span that [`SpanLog::close`] ends.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed();
        self.push(name, parent, String::new(), now, now)
    }

    /// Ends an open span and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end = self.epoch.elapsed();
        self.spans[id].secs()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Writes the log as NDJSON, one span per line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let span = json!({
                "span": i,
                "parent": s.parent,
                "name": s.name,
                "request": s.request,
                "start_ns": s.start.as_nanos() as u64,
                "end_ns": s.end.as_nanos() as u64,
            });
            let line = serde_json::to_string(&span).expect("a value tree always serialises");
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
