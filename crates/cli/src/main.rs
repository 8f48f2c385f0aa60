//! `sdtw` — command-line front-end over the sDTW reproduction.
//!
//! ```text
//! sdtw dist <corpus.txt> <i> <j> [--policy P] [--width W] [--path]
//! sdtw features <corpus.txt> <i> [--bins B] [--json]
//! sdtw retrieve <corpus.txt> <query-index> [--k K] [--policy P] [--width W]
//! sdtw distmat <corpus.txt> [--policy P] [--width W] [--serial] [--queries q.txt] [--out m.json]
//! sdtw index build <corpus.txt> <out.idx> [--policy P] [--width W] [--radius F] [--znorm] [--paa W]
//! sdtw index query <index> <queries.txt> [--k K] [--serial] [--json]
//! sdtw stream find <haystack.txt> <query.txt> [--k K] [--tau T] [--monitor] [--raw]
//! sdtw serve --index <index.idx> (--pipe | --socket <path>) [--k K] [--trace t.ndjson]
//! sdtw client emit <queries.txt> [--k K] [--tau T] [--trace]
//! sdtw client print [responses.ndjson|-]
//! sdtw client send <socket> <queries.txt> [--k K] [--tau T] [--shutdown]
//! sdtw report <trace.ndjson>... (`-` reads stdin)
//! sdtw generate <gun|trace|50words> <out.txt> [--seed S]
//! ```
//!
//! Corpora are UCR text files (one series per line, label first). The
//! `generate` subcommand writes the synthetic analogue datasets so every
//! other subcommand has data to work on out of the box.
//!
//! Every distance-computing subcommand accepts `--trace <file>` /
//! `--trace-stdout` to emit one NDJSON [`QueryTrace`] line per logical
//! query; `sdtw report` aggregates those files into prune/latency
//! tables.

mod args;

use args::Args;
use rayon::prelude::*;
use sdtw::{
    engine_label, ConstraintPolicy, DtwOptions, DtwScratch, FeatureStore, KernelChoice, SDtw,
    SDtwConfig, SalientConfig,
};
use sdtw_datasets::UcrAnalog;
use sdtw_dtw::SeriesSummary;
use sdtw_index::{
    CascadeStats, IndexConfig, SdtwIndex, SnapshotCodec, SnapshotFormat, DEFAULT_PAA_WIDTH,
};
use sdtw_obs::{InputShape, QueryTrace, Recorder, TracePhase, TraceReport, WorkloadKind};
use sdtw_salient::feature::extract_feature_set;
use sdtw_serve::{
    client_roundtrip, run_pipe, ServeConfig, ServeEngine, ServeRequest, ServeResponse, SocketServer,
};
use sdtw_stream::{MonitorBank, StreamConfig, SubseqMatcher, SubseqResult};
use sdtw_tseries::io::{read_ucr_file, write_ucr_file};
use sdtw_tseries::{TimeSeries, TsError};
use std::io::{self, Write};
use std::process::ExitCode;

const USAGE: &str = "\
usage: sdtw <command> [args] [options]

commands:
  dist <corpus> <i> <j>      distance between series i and j of a UCR file
                             options: --policy <full|sakoe|itakura|fcaw|acfw|acaw|ac2aw>
                                      --width <frac>   (sakoe/acfw width, default 0.1)
                                      --path           (print the warp path)
                                      --kernel <std|amerced>  (cost kernel, default std)
                                      --penalty <w>    (amerced warp penalty, default 1.0)
                                      --trace <file> / --trace-stdout
                                                       (emit the NDJSON query trace)
  features <corpus> <i>      salient features of series i
                             options: --bins <n> (descriptor length, default 64)
                                      --json     (machine-readable output)
  retrieve <corpus> <i>      top-k neighbours of series i
                             options: --k <n> (default 5), --policy, --width,
                                      --kernel, --penalty
  distmat <corpus>           full pairwise distance matrix of a corpus
                             (parallel over rows by default)
                             options: --policy, --width, --kernel, --penalty
                                      --serial          (disable parallelism)
                                      --queries <file>  (query-vs-corpus matrix
                                                         instead of pairwise)
                                      --out <file.json> (write the matrix)
                                      --trace <file> / --trace-stdout
                                                        (one NDJSON trace for
                                                         the whole batch)
  index build <corpus> <out> prebuild a kNN index and write its snapshot
                             (binary, format version 3: the configuration
                             and the stored series; loading derives the
                             envelopes, summaries, coarse PAA envelopes and
                             salient descriptors again, bit for bit)
                             options: --policy, --width, --kernel, --penalty
                                      --radius <frac> (envelope window, default 0.1)
                                      --znorm         (z-normalise entries+queries)
                                      --paa <w> (coarse stage segment width,
                                             default 8; below 2 disables it)
  index query <idx> <q>      answer top-k queries from a prebuilt index via
                             the LB_Kim -> PAA -> LB_Keogh -> reversed
                             LB_Keogh -> early-abandon cascade (parallel
                             by default); snapshots of older formats are
                             refused: rebuild them with `index build`
                             options: --k <n> (default 5)
                                      --serial (disable parallelism)
                                      --json   (machine-readable output)
                                      --trace <file> / --trace-stdout
                                               (one NDJSON trace per query)
  stream find <hay> <q>      subsequence search: the k best non-overlapping
                             occurrences of a query pattern inside a long
                             series, via the rolling LB_Kim -> PAA ->
                             LB_Keogh -> early-abandon cascade over sliding
                             windows
                             options: --policy, --width, --kernel, --penalty
                                      --series <i>    (haystack row, default 0)
                                      --query <i>     (query row, default 0)
                                      --queries <f>   (search every row of f
                                                       instead of one query;
                                                       replaces <q>)
                                      --k <n>         (matches, default 3)
                                      --tau <t>       (only matches <= t)
                                      --radius <frac> (envelope window,
                                                       default: --width)
                                      --exclusion <frac> (min match spacing
                                                       as query fraction, 0.5)
                                      --paa <w>       (coarse pre-filter
                                                       segment width, default
                                                       8; < 2 disables)
                                      --parallel      (shard one haystack
                                                       across the rayon pool,
                                                       or fan --queries over
                                                       it)
                                      --shards <n>    (shard count for
                                                       --parallel, default:
                                                       one per worker)
                                      --raw           (skip z-normalisation)
                                      --monitor       (drive the streaming
                                                       ring-buffer monitor —
                                                       a shared-ingest bank
                                                       under --queries)
                                      --json          (machine-readable output)
                                      --trace <file> / --trace-stdout
                                                      (one NDJSON trace per
                                                       query)
  serve --index <idx>        resident pattern service: load one immutable
                             index snapshot, then answer NDJSON pattern
                             requests through the two-level cascade
                             (coarse entry screen -> subsequence sweep);
                             results are exact (see `client`)
                             options: --pipe          (NDJSON requests on
                                                       stdin, responses on
                                                       stdout, stop at EOF)
                                      --socket <path> (Unix-socket daemon,
                                                       stop on a Shutdown
                                                       request)
                                      --k <n>         (default k for
                                                       requests that omit
                                                       theirs, 5)
                                      --shards <n>    (level-2 sweep shards
                                                       per entry, default 1
                                                       = per-worker scratch
                                                       reuse; 0 = one per
                                                       rayon worker)
                                      --batch <n>     (pipe-mode batch size
                                                       for the rayon job
                                                       queue, default 32)
                                      --trace <file>  (one NDJSON QueryTrace
                                                       per request, written
                                                       at shutdown)
  client emit <queries>      write one NDJSON request line per query row
                             (pipe into `sdtw serve --pipe`)
                             options: --k <n> (0 = daemon default)
                                      --tau <t>  (inclusive distance cap)
                                      --trace    (request per-query traces)
  client print [file|-]      render NDJSON responses humanly (default -,
                             i.e. stdin — the end of a serve pipeline)
  client send <sock> <q>     connect to a --socket daemon, send the query
                             rows, print the answers
                             options: --k, --tau, --trace, --json (raw
                                      NDJSON), --shutdown (stop the daemon
                                      after the answers)
  report <trace.ndjson>...   aggregate NDJSON trace files (written by
                             --trace) into per-stage prune percentages,
                             p50/p95 span durations, and a cells-per-query
                             histogram; `-` reads NDJSON from stdin
  generate <kind> <out>      write a synthetic corpus (gun|trace|50words)
                             options: --seed <n> (default 20120827)
";

/// Why a command failed: a message for the user, or a failed write to
/// stdout, whose kind decides how the program ends ([`exit_code`]).
#[derive(Debug)]
enum CliError {
    Message(String),
    Output(io::Error),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Message(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Message(msg.to_string())
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Output(e)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Message(msg) => f.write_str(msg),
            CliError::Output(e) => write!(f, "writing to stdout: {e}"),
        }
    }
}

fn policy_from(name: &str, width: f64) -> Result<ConstraintPolicy, String> {
    let policy = match name {
        "full" => ConstraintPolicy::FullGrid,
        "sakoe" => ConstraintPolicy::FixedCoreFixedWidth { width_frac: width },
        "itakura" => ConstraintPolicy::Itakura { slope: 2.0 },
        "fcaw" => ConstraintPolicy::fixed_core_adaptive_width(),
        "acfw" => ConstraintPolicy::adaptive_core_fixed_width(width),
        "acaw" => ConstraintPolicy::adaptive_core_adaptive_width(),
        "ac2aw" => ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
        other => return Err(format!("unknown policy `{other}`")),
    };
    Ok(policy)
}

/// Parses `--kernel` / `--penalty` into a [`KernelChoice`].
fn kernel_from(a: &Args) -> Result<KernelChoice, String> {
    let penalty = a.opt_parse("penalty", 1.0f64)?;
    match a.options.get("kernel").map(String::as_str) {
        None | Some("std") | Some("standard") => {
            if a.flag("penalty") {
                // a silently ignored penalty means the user thought they
                // were running ADTW — refuse rather than mislead
                return Err("--penalty requires --kernel amerced".into());
            }
            Ok(KernelChoice::Standard)
        }
        Some("amerced") | Some("adtw") => {
            if !penalty.is_finite() || penalty < 0.0 {
                return Err(format!("--penalty must be finite and >= 0, got {penalty}"));
            }
            Ok(KernelChoice::Amerced { penalty })
        }
        Some(other) => Err(format!("unknown kernel `{other}` (std|amerced)")),
    }
}

/// Default `--width` fraction (shared between the engine configuration
/// and `stream find`'s "radius defaults to the width" rule).
const DEFAULT_WIDTH: f64 = 0.1;

/// Base engine configuration from the shared CLI options.
fn config_from(a: &Args) -> Result<SDtwConfig, String> {
    let width = a.opt_parse("width", DEFAULT_WIDTH)?;
    let policy = policy_from(
        a.options.get("policy").map_or("ac2aw", String::as_str),
        width,
    )?;
    let mut config = SDtwConfig {
        policy,
        ..SDtwConfig::default()
    };
    config.dtw.kernel = kernel_from(a)?;
    Ok(config)
}

fn load_series(corpus: &[TimeSeries], idx: usize) -> Result<&TimeSeries, String> {
    corpus
        .get(idx)
        .ok_or_else(|| format!("index {idx} out of range (corpus has {})", corpus.len()))
}

/// Refuses samples whose DP costs could overflow, once per command:
/// [`DtwOptions::check_magnitudes`] over the longest series and the
/// largest sample magnitude of each side the DP will compare.
fn check_magnitudes<'a>(
    dtw: &DtwOptions,
    xs: impl IntoIterator<Item = &'a TimeSeries>,
    ys: impl IntoIterator<Item = &'a TimeSeries>,
) -> Result<(), String> {
    fn extent<'a>(side: impl IntoIterator<Item = &'a TimeSeries>) -> (usize, f64) {
        side.into_iter().fold((0, 0.0), |(len, peak), s| {
            (len.max(s.len()), peak.max(SeriesSummary::of(s).magnitude()))
        })
    }
    let ((n, a), (m, b)) = (extent(xs), extent(ys));
    dtw.check_magnitudes(n, m, a, b).map_err(|e| e.to_string())
}

/// Where `--trace <file>` / `--trace-stdout` sends NDJSON trace lines.
/// Lines are buffered and written in one `flush` so a failed run never
/// leaves a truncated trace file behind.
struct TraceSink {
    /// `None` means stdout.
    path: Option<String>,
    lines: Vec<String>,
}

impl TraceSink {
    /// The sink the command line asked for, if any. `--trace` and
    /// `--trace-stdout` are mutually exclusive, and stdout traces cannot
    /// combine with `--json` (the interleaved stream would parse as
    /// neither format).
    fn from_args(a: &Args) -> Result<Option<TraceSink>, String> {
        let path = a.options.get("trace").cloned();
        let stdout = a.flag("trace-stdout");
        if path.is_some() && stdout {
            return Err("--trace and --trace-stdout are mutually exclusive".into());
        }
        if stdout && a.flag("json") {
            return Err(
                "--trace-stdout would interleave with --json output; use --trace <file>".into(),
            );
        }
        if path.is_none() && !stdout {
            return Ok(None);
        }
        Ok(Some(TraceSink {
            path,
            lines: Vec::new(),
        }))
    }

    fn push(&mut self, trace: &QueryTrace) {
        self.lines.push(trace.to_json_line());
    }

    fn flush(self, out: &mut dyn Write) -> Result<(), CliError> {
        let mut doc = self.lines.join("\n");
        doc.push('\n');
        match self.path {
            Some(p) => {
                std::fs::write(&p, doc).map_err(|e| format!("{p}: {e}"))?;
                writeln!(out, "wrote {} trace line(s) to {p}", self.lines.len())?;
            }
            None => write!(out, "{doc}")?,
        }
        Ok(())
    }
}

fn cmd_dist(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let [path, i, j] = a.positional.as_slice() else {
        return Err("dist needs <corpus> <i> <j>".into());
    };
    let corpus = read_ucr_file(path).map_err(|e| e.to_string())?;
    let i: usize = i.parse().map_err(|_| "i must be an index")?;
    let j: usize = j.parse().map_err(|_| "j must be an index")?;
    let mut config = config_from(a)?;
    config.dtw.compute_path = a.flag("path");
    let mut sink = TraceSink::from_args(a)?;
    let engine = SDtw::new(config).map_err(|e| e.to_string())?;
    let x = load_series(&corpus, i)?;
    let y = load_series(&corpus, j)?;
    check_magnitudes(&engine.config().dtw, [x], [y])?;
    let mut rec = if sink.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let t0 = std::time::Instant::now();
    let outcome = engine
        .query(x, y)
        .recorder(&mut rec)
        .run()
        .map_err(|e| e.to_string())?;
    let wall = t0.elapsed();
    writeln!(
        out,
        "distance {:.6}  kernel {}  cells {}  coverage {:.1}%  pairs {}/{}",
        outcome.distance,
        engine.config().dtw.kernel_label(),
        outcome.cells_filled,
        outcome.band_coverage * 100.0,
        outcome.consistent_pairs,
        outcome.raw_pairs
    )?;
    if let Some(p) = outcome.path {
        let steps: Vec<String> = p.steps().iter().map(|(a, b)| format!("{a}:{b}")).collect();
        writeln!(out, "path {}", steps.join(" "))?;
    }
    if let Some(mut sink) = sink.take() {
        let mut trace = QueryTrace::new(format!("{i}x{j}"), WorkloadKind::Distance);
        trace.shape = InputShape {
            x_len: x.len() as u64,
            y_len: y.len() as u64,
            k: 1,
            policy: engine.config().policy.label(),
            kernel: engine.config().dtw.kernel_label(),
            engine: engine_label(engine.config().dtw.compute_path).into(),
        };
        trace.counters.passes = 1;
        trace.counters.cascade.candidates = 1;
        trace.counters.cascade.dp_completed = 1;
        trace.counters.cascade.cells_filled = outcome.cells_filled as u64;
        trace.descriptor_comparisons = outcome.descriptor_comparisons as u64;
        trace.band_area = outcome.cells_filled as u64;
        trace.full_grid = (x.len() * y.len()) as u64;
        trace.spans = rec.finish();
        trace.wall = wall;
        sink.push(&trace);
        sink.flush(out)?;
    }
    Ok(())
}

fn cmd_features(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let [path, i] = a.positional.as_slice() else {
        return Err("features needs <corpus> <i>".into());
    };
    let corpus = read_ucr_file(path).map_err(|e| e.to_string())?;
    let i: usize = i.parse().map_err(|_| "i must be an index")?;
    let bins = a.opt_parse("bins", 64usize)?;
    let cfg = SalientConfig::default().with_descriptor_bins(bins);
    let ts = load_series(&corpus, i)?;
    let set = extract_feature_set(ts, &cfg).map_err(|e| e.to_string())?;
    if a.flag("json") {
        writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(&set).map_err(|e| e.to_string())?
        )?;
    } else {
        writeln!(
            out,
            "{} features (series length {})",
            set.len(),
            set.series_len
        )?;
        let counts = set.count_by_scale();
        writeln!(
            out,
            "scale classes: fine {} / medium {} / rough {}",
            counts[0], counts[1], counts[2]
        )?;
        for f in &set.features {
            writeln!(
                out,
                "  pos {:>4}  sigma {:>6.2}  scope [{:>4},{:>4}]  {:?}",
                f.keypoint.position,
                f.keypoint.sigma,
                f.scope_start,
                f.scope_end,
                f.keypoint.polarity
            )?;
        }
    }
    Ok(())
}

fn cmd_retrieve(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let [path, i] = a.positional.as_slice() else {
        return Err("retrieve needs <corpus> <query-index>".into());
    };
    let corpus = read_ucr_file(path).map_err(|e| e.to_string())?;
    let i: usize = i.parse().map_err(|_| "query index must be a number")?;
    let k = a.opt_parse("k", 5usize)?;
    let config = config_from(a)?;
    let policy = config.policy;
    let engine = SDtw::new(config).map_err(|e| e.to_string())?;
    let store = FeatureStore::new(engine.config().salient.clone()).map_err(|e| e.to_string())?;
    let query = load_series(&corpus, i)?;
    let candidates = corpus[..i].iter().chain(&corpus[i + 1..]);
    check_magnitudes(&engine.config().dtw, [query], candidates)?;
    let mut scratch = sdtw::DtwScratch::new();
    let mut scored: Vec<(usize, f64)> = Vec::new();
    for (j, candidate) in corpus.iter().enumerate() {
        if j == i {
            continue;
        }
        let out = engine
            .query(query, candidate)
            .store(&store)
            .scratch(&mut scratch)
            .run()
            .map_err(|e| e.to_string())?;
        scored.push((j, out.distance));
    }
    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
    writeln!(
        out,
        "top-{k} neighbours of series {i} (policy {}, kernel {}):",
        policy.label(),
        engine.config().dtw.kernel_label()
    )?;
    for (rank, (j, d)) in scored.iter().take(k).enumerate() {
        let label = corpus[*j]
            .label()
            .map_or("-".to_string(), |l| l.to_string());
        writeln!(
            out,
            "  #{:<2} series {:>4}  label {:>3}  distance {:.6}",
            rank + 1,
            j,
            label,
            d
        )?;
    }
    Ok(())
}

fn cmd_distmat(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let [path] = a.positional.as_slice() else {
        return Err("distmat needs <corpus>".into());
    };
    let corpus = read_ucr_file(path).map_err(|e| e.to_string())?;
    if corpus.is_empty() {
        return Err("corpus is empty".into());
    }
    let config = config_from(a)?;
    let policy = config.policy;
    let parallel = !a.flag("serial");
    let queries = match a.options.get("queries") {
        Some(q) => {
            let queries = read_ucr_file(q).map_err(|e| e.to_string())?;
            if queries.is_empty() {
                return Err("query file is empty".into());
            }
            // each file numbers its series from 0 and the store caches
            // features by id: number the queries after the corpus, or a
            // query would be served the corpus series' features
            let ids = corpus.len() as u64..;
            Some(
                queries
                    .into_iter()
                    .zip(ids)
                    .map(|(ts, id)| ts.identified(id))
                    .collect::<Vec<_>>(),
            )
        }
        None => None,
    };
    let out_path = a.options.get("out");
    let sink = TraceSink::from_args(a)?;
    let engine = SDtw::new(config).map_err(|e| e.to_string())?;
    let store = FeatureStore::new(engine.config().salient.clone()).map_err(|e| e.to_string())?;
    check_magnitudes(
        &engine.config().dtw,
        queries.as_deref().unwrap_or(&corpus),
        &corpus,
    )?;

    // the store starts cold: the matrix call extracts each series once
    // (adaptive policies only) and records it as the trace's one
    // `Extraction` span, apart from the per-pair matching and DP — the
    // paper's cost split
    let rows = queries.as_ref().map_or(corpus.len(), Vec::len);
    let t1 = std::time::Instant::now();
    let (trace, summary, json) = match &queries {
        Some(queries) => {
            let m = sdtw_eval::compute_query_matrix(queries, &corpus, &engine, &store, parallel)
                .map_err(|e| e.to_string())?;
            let summary = format!("matrix {} queries x {} corpus", m.queries(), m.corpus());
            let json = serde_json::to_string_pretty(&m).map_err(|e| e.to_string())?;
            (m.trace, summary, json)
        }
        None => {
            let m = sdtw_eval::compute_matrix(&corpus, &engine, &store, parallel)
                .map_err(|e| e.to_string())?;
            let summary = format!("matrix {} x {} (pairwise)", m.n(), m.n());
            let json = serde_json::to_string_pretty(&m).map_err(|e| e.to_string())?;
            (m.trace, summary, json)
        }
    };
    let wall = t1.elapsed();

    writeln!(
        out,
        "{summary}  policy {}  kernel {}",
        policy.label(),
        engine.config().dtw.kernel_label()
    )?;
    writeln!(
        out,
        "mode {}  workers {}",
        if parallel { "parallel" } else { "serial" },
        if parallel {
            rayon::current_num_threads().min(rows)
        } else {
            1
        }
    )?;
    let cascade = &trace.counters.cascade;
    writeln!(
        out,
        "pairs {}  cells {}  descriptor comparisons {}",
        cascade.dp_completed, cascade.cells_filled, trace.descriptor_comparisons
    )?;
    writeln!(
        out,
        "extraction {:?}  wall {wall:?}  cpu(match+dp) {:?}",
        trace.phase_duration(TracePhase::Extraction),
        trace.phase_duration(TracePhase::BandPlan) + trace.phase_duration(TracePhase::DpFill)
    )?;
    if let Some(path) = out_path {
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        writeln!(out, "wrote {path}")?;
    }
    if let Some(mut sink) = sink {
        sink.push(&trace);
        sink.flush(out)?;
    }
    Ok(())
}

fn cmd_index(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    match a.positional.first().map(String::as_str) {
        Some("build") => cmd_index_build(a, out),
        Some("query") => cmd_index_query(a, out),
        _ => Err("index needs a subcommand: `index build` or `index query`".into()),
    }
}

fn cmd_index_build(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let [_, corpus_path, out_path] = a.positional.as_slice() else {
        return Err("index build needs <corpus> <out>".into());
    };
    let corpus = read_ucr_file(corpus_path).map_err(|e| e.to_string())?;
    if corpus.is_empty() {
        return Err("corpus is empty".into());
    }
    let sdtw_config = config_from(a)?;
    let policy = sdtw_config.policy;
    let config = IndexConfig {
        sdtw: sdtw_config,
        z_normalize: a.flag("znorm"),
        lb_radius_frac: a.opt_parse("radius", 0.1)?,
        paa_width: a.opt_parse("paa", DEFAULT_PAA_WIDTH)?,
    };
    let t0 = std::time::Instant::now();
    let index = SdtwIndex::build(&corpus, config).map_err(|e| e.to_string())?;
    let built = t0.elapsed();
    let bytes =
        SnapshotCodec::encode(&index, SnapshotFormat::BinaryV2).map_err(|e| e.to_string())?;
    std::fs::write(out_path, &bytes).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "indexed {} series  policy {}  kernel {}  radius {:.0}%  paa {}  znorm {}  build {built:?}",
        index.len(),
        policy.label(),
        index.config().sdtw.dtw.kernel_label(),
        index.config().lb_radius_frac * 100.0,
        index.config().paa_width,
        index.config().z_normalize,
    )?;
    writeln!(out, "wrote {out_path} ({} bytes)", bytes.len())?;
    Ok(())
}

fn cmd_index_query(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let [_, index_path, queries_path] = a.positional.as_slice() else {
        return Err("index query needs <index> <queries>".into());
    };
    let index = SnapshotCodec::read_file(index_path).map_err(|e| e.to_string())?;
    let queries = read_ucr_file(queries_path).map_err(|e| e.to_string())?;
    if queries.is_empty() {
        return Err("query file is empty".into());
    }
    let k = a.opt_parse("k", 5usize)?;
    let parallel = !a.flag("serial");
    let mut sink = TraceSink::from_args(a)?;
    let traced = sink.is_some();
    let t0 = std::time::Instant::now();
    // query `i` on the worker's scratch; with a sink open it also records
    // its trace (one NDJSON line per query, bit-identical results)
    let answer = |scratch: &mut DtwScratch, i: usize| {
        if traced {
            let (result, trace) = index.query_traced(&queries[i], k, &format!("q{i}"))?;
            Ok((result, Some(trace)))
        } else {
            Ok((index.query_with_scratch(&queries[i], k, scratch)?, None))
        }
    };
    let answered: Vec<Result<_, TsError>> = if parallel {
        (0..queries.len())
            .into_par_iter()
            .map_init(DtwScratch::new, answer)
            .collect()
    } else {
        let mut scratch = DtwScratch::new();
        (0..queries.len())
            .map(|i| answer(&mut scratch, i))
            .collect()
    };
    let mut results = Vec::with_capacity(answered.len());
    for item in answered {
        let (result, trace) = item.map_err(|e| e.to_string())?;
        if let (Some(sink), Some(trace)) = (sink.as_mut(), trace) {
            sink.push(&trace);
        }
        results.push(result);
    }
    let wall = t0.elapsed();
    if a.flag("json") {
        writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?
        )?;
        if let Some(sink) = sink {
            sink.flush(out)?;
        }
        return Ok(());
    }
    let mut total = CascadeStats::default();
    for (q, r) in results.iter().enumerate() {
        total.merge(&r.stats);
        let hits: Vec<String> = r
            .neighbors
            .iter()
            .map(|n| {
                let label = index
                    .entry_series(n.index)
                    .label()
                    .map_or("-".to_string(), |l| l.to_string());
                format!("{}(l{label}, {:.4})", n.index, n.distance)
            })
            .collect();
        writeln!(out, "query {q:>3}: {}", hits.join("  "))?;
    }
    writeln!(
        out,
        "cascade over {} candidates: kim {}  paa {}  keogh {}  keogh-rev {}  abandoned {}  dp {}  (lb n/a {})",
        total.candidates,
        total.pruned_kim,
        total.pruned_paa,
        total.pruned_keogh,
        total.pruned_keogh_rev,
        total.abandoned,
        total.dp_completed,
        total.lb_inapplicable,
    )?;
    writeln!(
        out,
        "prune rate {:.1}%  cells filled {}  mode {}  wall {wall:?}",
        total.prune_rate() * 100.0,
        total.cells_filled,
        if parallel { "parallel" } else { "serial" },
    )?;
    if let Some(sink) = sink {
        sink.flush(out)?;
    }
    Ok(())
}

fn cmd_stream(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    match a.positional.first().map(String::as_str) {
        Some("find") => cmd_stream_find(a, out),
        _ => Err("stream needs a subcommand: `stream find`".into()),
    }
}

/// Builds the stream configuration from the shared and stream-specific
/// CLI options.
fn stream_config_from(a: &Args) -> Result<StreamConfig, String> {
    let width = a.opt_parse("width", DEFAULT_WIDTH)?;
    let defaults = StreamConfig::default();
    Ok(StreamConfig {
        sdtw: config_from(a)?,
        z_normalize: !a.flag("raw"),
        lb_radius_frac: a.opt_parse("radius", width)?,
        exclusion_frac: a.opt_parse("exclusion", 0.5)?,
        paa_width: a.opt_parse("paa", defaults.paa_width)?,
    })
}

/// Prints one query's matches plus a cascade summary line.
fn print_stream_result(
    out: &mut dyn Write,
    label: &str,
    result: &SubseqResult,
    tau: f64,
) -> io::Result<()> {
    if result.matches.is_empty() {
        writeln!(
            out,
            "{label}no matches{}",
            if tau.is_finite() { " under tau" } else { "" }
        )?;
    }
    for (rank, m) in result.matches.iter().enumerate() {
        writeln!(
            out,
            "{label}  #{:<2} offset {:>6}  distance {:.6}",
            rank + 1,
            m.offset,
            m.distance
        )?;
    }
    Ok(())
}

/// Prints the aggregated cascade accounting of one or more searches.
fn print_stream_stats(
    out: &mut dyn Write,
    stats: &sdtw_stream::StreamStats,
    wall: std::time::Duration,
) -> io::Result<()> {
    let c = &stats.cascade;
    writeln!(
        out,
        "cascade over {} window visits: kim {}  paa {}  keogh {}  abandoned {}  dp {}  (lb n/a {})",
        c.candidates,
        c.pruned_kim,
        c.pruned_paa,
        c.pruned_keogh,
        c.abandoned,
        c.dp_completed,
        c.lb_inapplicable,
    )?;
    writeln!(
        out,
        "prune rate {:.1}%  lb-only {:.1}%  passes {}  cache hits {}  cells {}  wall {wall:?}",
        stats.prune_rate() * 100.0,
        stats.lb_prune_rate() * 100.0,
        stats.passes,
        stats.cache_hits,
        c.cells_filled,
    )?;
    Ok(())
}

fn cmd_stream_find(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let multi_path = a.options.get("queries");
    let hay_path = match (a.positional.as_slice(), multi_path) {
        ([_, hay], Some(_)) | ([_, hay, _], None) => hay,
        ([_, _, _], Some(_)) => {
            return Err("--queries replaces the positional query file; pass only <haystack>".into())
        }
        _ => {
            return Err(
                "stream find needs <haystack> <query-file> (or <haystack> --queries <file>)".into(),
            )
        }
    };
    if a.flag("monitor") && a.flag("parallel") {
        return Err("--parallel applies to batch scans; the monitor ingests serially".into());
    }
    // --shards parameterises the sharded single-query scan only; on
    // every other path it would be silently ignored
    if a.options.contains_key("shards")
        && (multi_path.is_some() || a.flag("monitor") || !a.flag("parallel"))
    {
        return Err(
            "--shards applies to the single-query sharded scan (--parallel without \
             --queries/--monitor)"
                .into(),
        );
    }
    let haystack = read_ucr_file(hay_path).map_err(|e| e.to_string())?;
    let series = load_series(&haystack, a.opt_parse("series", 0usize)?)?;
    let k = a.opt_parse("k", 3usize)?;
    let tau = a.opt_parse("tau", f64::INFINITY)?;
    let shards = a.opt_parse("shards", 0usize)?;
    let config = stream_config_from(a)?;

    // resolve the query set: every row of --queries, or one row of the
    // positional query file
    let query_list: Vec<TimeSeries> = match multi_path {
        Some(path) => {
            let all = read_ucr_file(path).map_err(|e| e.to_string())?;
            if all.is_empty() {
                return Err("query file is empty".into());
            }
            all
        }
        None => {
            let queries = read_ucr_file(&a.positional[2]).map_err(|e| e.to_string())?;
            vec![load_series(&queries, a.opt_parse("query", 0usize)?)?.clone()]
        }
    };
    // one engine for every query, so the matchers share its extractor
    let engine = SDtw::new(config.sdtw.clone()).map_err(|e| e.to_string())?;
    let matchers: Vec<SubseqMatcher> = query_list
        .iter()
        .map(|q| SubseqMatcher::for_engine(&engine, q, config.clone()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;

    let policy = config.sdtw.policy;
    let kernel = config.sdtw.dtw.kernel_label();
    let mode = match (a.flag("monitor"), a.flag("parallel"), matchers.len()) {
        (true, _, 1) => "monitor",
        (true, _, _) => "monitor-bank",
        (false, true, 1) => "batch-sharded",
        (false, true, _) => "batch-parallel",
        (false, false, _) => "batch",
    };

    let mut sink = TraceSink::from_args(a)?;
    let tracing = sink.is_some();
    let mut traces: Vec<QueryTrace> = Vec::new();
    let t0 = std::time::Instant::now();
    let results: Vec<SubseqResult> = if a.flag("monitor") {
        let mut bank = MonitorBank::new(matchers.clone(), k, tau).map_err(|e| e.to_string())?;
        bank.set_tracing(tracing);
        bank.process(series.values()).map_err(|e| e.to_string())?;
        let results = (0..bank.query_count())
            .map(|q| SubseqResult {
                matches: bank.matches(q),
                stats: *bank.stats(q),
            })
            .collect();
        if tracing {
            traces = (0..bank.query_count())
                .map(|q| bank.trace(q, &format!("q{q}")))
                .collect();
        }
        results
    } else {
        // one search per query, traced when a sink is open
        let search = |i: usize, shards: usize| {
            let id = format!("q{i}");
            matchers[i]
                .search(series)
                .k(k)
                .tau(tau)
                .shards(shards)
                .trace(tracing.then_some(id.as_str()))
                .run()
                .map_err(|e| e.to_string())
        };
        let searched: Vec<_> = if a.flag("parallel") && matchers.len() == 1 {
            // one long haystack: shard it across the rayon pool
            vec![search(0, shards)]
        } else if a.flag("parallel") {
            // many queries: fan them across the pool, one serial scan each
            (0..matchers.len())
                .into_par_iter()
                .map(|i| search(i, 1))
                .collect()
        } else {
            (0..matchers.len()).map(|i| search(i, 1)).collect()
        };
        let mut results = Vec::with_capacity(searched.len());
        for item in searched {
            let (result, trace) = item?;
            traces.extend(trace);
            results.push(result);
        }
        results
    };
    let wall = t0.elapsed();

    if let Some(sink) = sink.as_mut() {
        for trace in &traces {
            sink.push(trace);
        }
    }
    if a.flag("json") {
        // single-query invocations keep their historical contract (one
        // bare SubseqResult object); only --queries emits an array
        let json = if multi_path.is_none() {
            serde_json::to_string_pretty(&results[0])
        } else {
            serde_json::to_string_pretty(&results)
        }
        .map_err(|e| e.to_string())?;
        writeln!(out, "{json}")?;
        if let Some(sink) = sink {
            sink.flush(out)?;
        }
        return Ok(());
    }
    writeln!(
        out,
        "queries {}  haystack len {}  policy {}  kernel {kernel}  znorm {}  mode {mode}",
        matchers.len(),
        series.len(),
        policy.label(),
        config.z_normalize,
    )?;
    let mut merged = sdtw_stream::StreamStats::default();
    for (qi, result) in results.iter().enumerate() {
        merged.merge(&result.stats);
        let label = if results.len() > 1 {
            writeln!(
                out,
                "query {qi:>3} (len {}, windows {}):",
                matchers[qi].query_len(),
                result.stats.windows
            )?;
            "  "
        } else {
            writeln!(
                out,
                "query len {}  windows {}",
                matchers[qi].query_len(),
                result.stats.windows
            )?;
            ""
        };
        print_stream_result(out, label, result, tau)?;
    }
    print_stream_stats(out, &merged, wall)?;
    if let Some(sink) = sink {
        sink.flush(out)?;
    }
    Ok(())
}

fn cmd_report(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    if a.positional.is_empty() {
        return Err("report needs one or more <trace.ndjson> files (`-` for stdin)".into());
    }
    // concatenate all files into one NDJSON document — traces from
    // different workloads aggregate fine (the tables are per-stage and
    // per-phase, not per-workload)
    let mut text = String::new();
    for path in &a.positional {
        let chunk = if path == "-" {
            std::io::read_to_string(std::io::stdin()).map_err(|e| format!("stdin: {e}"))?
        } else {
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
        };
        text.push_str(&chunk);
        text.push('\n');
    }
    let report = TraceReport::from_ndjson(&text)?;
    write!(out, "{}", report.render())?;
    Ok(())
}

fn cmd_serve(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let index_path = a
        .options
        .get("index")
        .ok_or("serve needs --index <index> (build one with `sdtw index build`)")?;
    let trace_path = a.options.get("trace").cloned();
    let cfg = ServeConfig {
        default_k: a.opt_parse("k", 5usize)?,
        shards: a.opt_parse("shards", 1usize)?,
        trace: trace_path.is_some(),
    };
    // the one binary snapshot format; JSON trees and older versions are
    // refused with a hint to rebuild
    let engine = ServeEngine::load(index_path, cfg).map_err(|e| format!("{index_path}: {e}"))?;
    let entries = engine.index().len();
    let traces = match (a.flag("pipe"), a.options.get("socket")) {
        (true, None) => {
            // stdout is the response channel in pipe mode — the banner
            // goes to stderr so the NDJSON stream stays clean
            eprintln!("sdtw serve: {entries} entries resident, pipe mode (stop at EOF)");
            let batch = a.opt_parse("batch", 32usize)?.max(1);
            let stdin = std::io::stdin();
            run_pipe(&engine, stdin.lock(), &mut &mut *out, batch).map_err(|e| {
                // only a write breaks a pipe: a gone reader ends the run
                // quietly, as it does every other command's
                if e.kind() == io::ErrorKind::BrokenPipe {
                    CliError::Output(e)
                } else {
                    e.to_string().into()
                }
            })?
        }
        (false, Some(path)) => {
            let server = SocketServer::bind(path).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("sdtw serve: {entries} entries resident on {path} (stop via Shutdown)");
            server
                .serve(std::sync::Arc::new(engine))
                .map_err(|e| e.to_string())?
        }
        _ => return Err("serve needs exactly one of --pipe or --socket <path>".into()),
    };
    if let Some(p) = trace_path {
        let mut doc = traces.join("\n");
        if !doc.is_empty() {
            doc.push('\n');
        }
        std::fs::write(&p, doc).map_err(|e| format!("{p}: {e}"))?;
        eprintln!("wrote {} trace line(s) to {p}", traces.len());
    }
    Ok(())
}

fn cmd_client(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    match a.positional.first().map(String::as_str) {
        Some("emit") => cmd_client_emit(a, out),
        Some("print") => cmd_client_print(a, out),
        Some("send") => cmd_client_send(a, out),
        _ => {
            Err("client needs a subcommand: `client emit`, `client print`, or `client send`".into())
        }
    }
}

/// Builds one request per row of a UCR query file from the shared
/// `client` options.
fn client_requests(a: &Args, queries_path: &str) -> Result<Vec<ServeRequest>, String> {
    let queries = read_ucr_file(queries_path).map_err(|e| e.to_string())?;
    if queries.is_empty() {
        return Err("query file is empty".into());
    }
    let k = a.opt_parse("k", 0usize)?; // 0 = the daemon's default
    let tau = match a.options.get("tau") {
        None => None,
        Some(_) => Some(a.opt_parse("tau", f64::INFINITY)?),
    };
    Ok(queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let mut r = ServeRequest::query(format!("q{i}"), q.values().to_vec(), k);
            r.tau = tau;
            r.trace = a.flag("trace");
            r
        })
        .collect())
}

fn cmd_client_emit(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let [_, queries_path] = a.positional.as_slice() else {
        return Err("client emit needs <queries>".into());
    };
    for req in client_requests(a, queries_path)? {
        writeln!(out, "{}", req.to_json_line())?;
    }
    Ok(())
}

/// Human rendering of daemon responses (shared by `print` and `send`).
fn print_responses(out: &mut dyn Write, resps: &[ServeResponse]) -> io::Result<()> {
    let (mut pruned, mut swept) = (0u64, 0u64);
    for r in resps {
        if !r.ok {
            writeln!(
                out,
                "{}: error: {}",
                if r.id.is_empty() { "?" } else { &r.id },
                r.error
            )?;
            continue;
        }
        pruned += r.entries_pruned;
        swept += r.entries_swept;
        let hits: Vec<String> = r
            .hits
            .iter()
            .map(|h| format!("{}@{} ({:.4})", h.entry, h.offset, h.distance))
            .collect();
        writeln!(
            out,
            "{}: {}  [pruned {} / swept {}]",
            r.id,
            if hits.is_empty() {
                "no match under tau".to_string()
            } else {
                hits.join("  ")
            },
            r.entries_pruned,
            r.entries_swept,
        )?;
    }
    let answered = resps.iter().filter(|r| r.ok).count();
    writeln!(
        out,
        "{answered}/{} answered  entries pruned {pruned} / swept {swept}",
        resps.len(),
    )
}

fn cmd_client_print(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = match a.positional.as_slice() {
        [_] => "-",
        [_, p] => p.as_str(),
        _ => return Err("client print takes at most one <responses.ndjson> (default -)".into()),
    };
    let text = if path == "-" {
        std::io::read_to_string(std::io::stdin()).map_err(|e| format!("stdin: {e}"))?
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    let mut resps = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        resps.push(ServeResponse::from_json_line(line)?);
    }
    print_responses(out, &resps)?;
    Ok(())
}

fn cmd_client_send(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let [_, socket, queries_path] = a.positional.as_slice() else {
        return Err("client send needs <socket> <queries>".into());
    };
    let mut reqs = client_requests(a, queries_path)?;
    if a.flag("shutdown") {
        reqs.push(ServeRequest::shutdown("shutdown"));
    }
    let resps = client_roundtrip(socket, &reqs).map_err(|e| format!("{socket}: {e}"))?;
    if a.flag("json") {
        for r in &resps {
            writeln!(out, "{}", r.to_json_line())?;
        }
    } else {
        print_responses(out, &resps)?;
    }
    Ok(())
}

fn cmd_generate(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let [kind, path] = a.positional.as_slice() else {
        return Err("generate needs <kind> <out.txt>".into());
    };
    let seed = a.opt_parse("seed", 20120827u64)?;
    let analog = match kind.as_str() {
        "gun" => UcrAnalog::Gun,
        "trace" => UcrAnalog::Trace,
        "50words" | "words" => UcrAnalog::Words50,
        other => return Err(format!("unknown dataset kind `{other}`").into()),
    };
    let ds = analog.generate(seed);
    write_ucr_file(path, &ds.series).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "wrote {} series ({} classes) to {path}",
        ds.series.len(),
        ds.class_count()
    )?;
    Ok(())
}

fn run(out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(std::env::args().skip(1))?;
    match args.command.as_str() {
        "dist" => cmd_dist(&args, out),
        "features" => cmd_features(&args, out),
        "retrieve" => cmd_retrieve(&args, out),
        "distmat" => cmd_distmat(&args, out),
        "index" => cmd_index(&args, out),
        "stream" => cmd_stream(&args, out),
        "serve" => cmd_serve(&args, out),
        "client" => cmd_client(&args, out),
        "report" => cmd_report(&args, out),
        "generate" => cmd_generate(&args, out),
        "help" | "-h" => Ok(write!(out, "{USAGE}")?),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}").into()),
    }?;
    Ok(out.flush()?)
}

/// How a run ends: success, also when stdout's reader went away (a pipe
/// into `head` that has read enough), otherwise `error: …` on `stderr`
/// and exit status 1.
fn exit_code(result: Result<(), CliError>, stderr: &mut dyn Write) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            // nothing is left to report a failed report to
            let _ = writeln!(stderr, "error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let result = run(&mut io::stdout().lock());
    exit_code(result, &mut io::stderr())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_map_to_paper_labels() {
        assert_eq!(policy_from("full", 0.1).unwrap().label(), "dtw");
        assert_eq!(policy_from("sakoe", 0.2).unwrap().label(), "fc,fw 20%");
        assert_eq!(policy_from("fcaw", 0.1).unwrap().label(), "fc,aw");
        assert_eq!(policy_from("acfw", 0.06).unwrap().label(), "ac,fw 6%");
        assert_eq!(policy_from("acaw", 0.1).unwrap().label(), "ac,aw");
        assert_eq!(policy_from("ac2aw", 0.1).unwrap().label(), "ac2,aw");
        assert!(policy_from("itakura", 0.1)
            .unwrap()
            .label()
            .contains("itakura"));
        assert!(policy_from("bogus", 0.1).is_err());
    }

    #[test]
    fn kernel_flag_parses_and_rejects_bad_input() {
        let parse = |tokens: &[&str]| Args::parse(tokens.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(
            kernel_from(&parse(&["dist"])).unwrap(),
            KernelChoice::Standard
        );
        assert_eq!(
            kernel_from(&parse(&["dist", "--kernel", "std"])).unwrap(),
            KernelChoice::Standard
        );
        assert_eq!(
            kernel_from(&parse(&["dist", "--kernel", "amerced"])).unwrap(),
            KernelChoice::Amerced { penalty: 1.0 }
        );
        assert_eq!(
            kernel_from(&parse(&["dist", "--kernel", "adtw", "--penalty", "0.25"])).unwrap(),
            KernelChoice::Amerced { penalty: 0.25 }
        );
        assert!(kernel_from(&parse(&["dist", "--kernel", "bogus"])).is_err());
        assert!(kernel_from(&parse(&["dist", "--kernel", "amerced", "--penalty", "-1"])).is_err());
        // a --penalty without --kernel amerced is a mistake, not a no-op
        let err = kernel_from(&parse(&["dist", "--penalty", "0.5"])).unwrap_err();
        assert!(err.contains("requires --kernel amerced"), "{err}");
        let err =
            kernel_from(&parse(&["dist", "--kernel", "std", "--penalty", "0.5"])).unwrap_err();
        assert!(err.contains("requires --kernel amerced"), "{err}");
    }

    #[test]
    fn load_series_reports_range_errors() {
        let corpus = vec![TimeSeries::new(vec![1.0, 2.0]).unwrap()];
        assert!(load_series(&corpus, 0).is_ok());
        let err = load_series(&corpus, 5).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn distmat_subcommand_runs_serial_and_parallel() {
        let dir = std::env::temp_dir().join("sdtw_cli_distmat_test");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("corpus.txt");
        let out_path = dir.join("matrix.json");
        // tiny corpus: first six gun series
        let ds = UcrAnalog::Gun.generate(5);
        write_ucr_file(&corpus_path, &ds.series[..6]).unwrap();

        let base = [
            "distmat",
            corpus_path.to_str().unwrap(),
            "--policy",
            "sakoe",
            "--width",
            "0.2",
        ];
        let mut serial: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        serial.push("--serial".into());
        serial.push("--out".into());
        serial.push(out_path.to_str().unwrap().into());
        cmd_distmat(&Args::parse(serial).unwrap(), &mut io::sink()).unwrap();
        let written = std::fs::read_to_string(&out_path).unwrap();
        assert!(written.contains("\"data\""), "matrix JSON written");

        let parallel: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        cmd_distmat(&Args::parse(parallel).unwrap(), &mut io::sink()).unwrap();

        // query-vs-corpus mode with the corpus file reused as queries
        let mut with_queries: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        with_queries.push("--queries".into());
        with_queries.push(corpus_path.to_str().unwrap().into());
        cmd_distmat(&Args::parse(with_queries).unwrap(), &mut io::sink()).unwrap();

        std::fs::remove_file(&corpus_path).ok();
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn distmat_queries_plan_from_their_own_features() {
        // both files number their series from 0, and an adaptive policy
        // reads features: each query must be planned from its own
        let dir = std::env::temp_dir().join("sdtw_cli_distmat_queries_test");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("corpus.txt");
        let queries_path = dir.join("queries.txt");
        let out_path = dir.join("matrix.json");
        let ds = UcrAnalog::Gun.generate(7);
        write_ucr_file(&corpus_path, &ds.series[..6]).unwrap();
        write_ucr_file(&queries_path, &ds.series[6..9]).unwrap();
        let argv = |tokens: &[&str]| Args::parse(tokens.iter().map(|s| s.to_string())).unwrap();
        let (c, q, o) = (
            corpus_path.to_str().unwrap(),
            queries_path.to_str().unwrap(),
            out_path.to_str().unwrap(),
        );
        let args = argv(&[
            "distmat",
            c,
            "--queries",
            q,
            "--policy",
            "ac2aw",
            "--serial",
            "--out",
            o,
        ]);
        cmd_distmat(&args, &mut io::sink()).unwrap();
        let matrix: sdtw_eval::QueryMatrix =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();

        let engine = SDtw::new(config_from(&args).unwrap()).unwrap();
        let corpus = read_ucr_file(&corpus_path).unwrap();
        let queries = read_ucr_file(&queries_path).unwrap();
        assert_eq!((matrix.queries(), matrix.corpus()), (3, 6));
        for (qi, query) in queries.iter().enumerate() {
            for (j, series) in corpus.iter().enumerate() {
                let d = engine.query(query, series).run().unwrap().distance;
                assert_eq!(
                    matrix.get(qi, j).to_bits(),
                    d.to_bits(),
                    "query {qi}, corpus {j}"
                );
            }
        }
        for path in [&corpus_path, &queries_path, &out_path] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn index_build_and_query_round_trip_via_files() {
        let dir = std::env::temp_dir().join("sdtw_cli_index_test");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("corpus.txt");
        let index_path = dir.join("index.idx");
        let ds = UcrAnalog::Gun.generate(9);
        write_ucr_file(&corpus_path, &ds.series[..8]).unwrap();

        let build = [
            "index",
            "build",
            corpus_path.to_str().unwrap(),
            index_path.to_str().unwrap(),
            "--policy",
            "sakoe",
            "--width",
            "0.2",
            "--radius",
            "0.2",
        ];
        cmd_index(
            &Args::parse(build.iter().map(|s| s.to_string())).unwrap(),
            &mut io::sink(),
        )
        .unwrap();
        assert!(index_path.exists(), "index snapshot written");

        for extra in [&["--serial"][..], &["--json"][..], &[][..]] {
            let mut query = vec![
                "index".to_string(),
                "query".to_string(),
                index_path.to_str().unwrap().to_string(),
                corpus_path.to_str().unwrap().to_string(),
                "--k".to_string(),
                "3".to_string(),
            ];
            query.extend(extra.iter().map(|s| s.to_string()));
            cmd_index(&Args::parse(query).unwrap(), &mut io::sink()).unwrap();
        }

        // amerced kernel end-to-end through build + query
        let amerced_path = dir.join("index_amerced.idx");
        let build_am = [
            "index",
            "build",
            corpus_path.to_str().unwrap(),
            amerced_path.to_str().unwrap(),
            "--policy",
            "sakoe",
            "--width",
            "0.2",
            "--kernel",
            "amerced",
            "--penalty",
            "0.5",
        ];
        cmd_index(
            &Args::parse(build_am.iter().map(|s| s.to_string())).unwrap(),
            &mut io::sink(),
        )
        .unwrap();
        let query_am = [
            "index",
            "query",
            amerced_path.to_str().unwrap(),
            corpus_path.to_str().unwrap(),
            "--k",
            "2",
            "--serial",
        ];
        cmd_index(
            &Args::parse(query_am.iter().map(|s| s.to_string())).unwrap(),
            &mut io::sink(),
        )
        .unwrap();
        std::fs::remove_file(&amerced_path).ok();

        // the PAA width travels in the snapshot; the encoding is a pure
        // function of the configuration and the series
        let paa_path = dir.join("index_paa4.idx");
        let build_paa = [
            "index",
            "build",
            corpus_path.to_str().unwrap(),
            paa_path.to_str().unwrap(),
            "--policy",
            "sakoe",
            "--width",
            "0.2",
            "--paa",
            "4",
        ];
        cmd_index(
            &Args::parse(build_paa.iter().map(|s| s.to_string())).unwrap(),
            &mut io::sink(),
        )
        .unwrap();
        let first = std::fs::read(&paa_path).unwrap();
        assert_eq!(&first[..8], b"SDTWIDX3", "binary magic on disk");
        cmd_index(
            &Args::parse(build_paa.iter().map(|s| s.to_string())).unwrap(),
            &mut io::sink(),
        )
        .unwrap();
        assert_eq!(
            std::fs::read(&paa_path).unwrap(),
            first,
            "rebuilds are identical"
        );
        let loaded = SnapshotCodec::read_file(&paa_path).unwrap();
        assert_eq!(loaded.config().paa_width, 4);
        std::fs::remove_file(&paa_path).ok();

        // a JSON-tree snapshot and the removed codec options are refused
        let legacy = dir.join("legacy.json");
        std::fs::write(&legacy, r#"{"config":{},"entries":[]}"#).unwrap();
        let query_legacy = [
            "index",
            "query",
            legacy.to_str().unwrap(),
            corpus_path.to_str().unwrap(),
        ];
        let err = cmd_index(
            &Args::parse(query_legacy.iter().map(|s| s.to_string())).unwrap(),
            &mut io::sink(),
        )
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("JSON-tree") && err.contains("sdtw index build"),
            "{err}"
        );
        std::fs::remove_file(&legacy).ok();
        let mut with_format = build_paa.map(String::from).to_vec();
        with_format.extend(["--format".to_string(), "json".to_string()]);
        assert!(Args::parse(with_format).is_err(), "--format is gone");
        let convert = ["index", "convert", "a.idx", "b.idx"].map(String::from);
        assert!(cmd_index(&Args::parse(convert).unwrap(), &mut io::sink()).is_err());

        // bad invocations are reported, not panicked
        assert!(cmd_index(
            &Args::parse(["index".to_string()]).unwrap(),
            &mut io::sink()
        )
        .is_err());
        assert!(cmd_index(
            &Args::parse(
                ["index", "build", "only-one-arg"]
                    .iter()
                    .map(|s| s.to_string())
            )
            .unwrap(),
            &mut io::sink()
        )
        .is_err());

        std::fs::remove_file(&corpus_path).ok();
        std::fs::remove_file(&index_path).ok();
    }

    /// `index query` answers every query through one closure, on a
    /// worker scratch in parallel or on one scratch with `--serial`, and
    /// through `query_traced` when a sink is open: all three print the
    /// same neighbour lines, and `--json` lists the same neighbours.
    #[test]
    fn index_query_paths_agree() {
        let dir = std::env::temp_dir().join("sdtw_cli_index_paths_test");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("corpus.txt");
        let index_path = dir.join("index.idx");
        let trace_path = dir.join("trace.ndjson");
        let ds = UcrAnalog::Gun.generate(7);
        write_ucr_file(&corpus_path, &ds.series[..12]).unwrap();
        let (c, i, t) = (
            corpus_path.to_str().unwrap(),
            index_path.to_str().unwrap(),
            trace_path.to_str().unwrap(),
        );
        let run = |tokens: &[&str]| {
            let mut out = Vec::new();
            cmd_index(
                &Args::parse(tokens.iter().map(|s| s.to_string())).unwrap(),
                &mut out,
            )
            .unwrap();
            String::from_utf8(out).unwrap()
        };
        run(&["index", "build", c, i, "--policy", "ac2aw", "--znorm"]);
        let query = ["index", "query", i, c, "--k", "3"];
        let neighbour_lines = |extra: &[&str]| {
            let mut tokens = query.to_vec();
            tokens.extend_from_slice(extra);
            run(&tokens)
                .lines()
                .filter(|l| l.starts_with("query"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        let default = neighbour_lines(&[]);
        assert_eq!(default.len(), 12, "one line per query");
        assert_eq!(neighbour_lines(&["--serial"]), default, "--serial");
        assert_eq!(neighbour_lines(&["--trace", t]), default, "--trace");
        assert_eq!(
            TraceReport::from_ndjson(&std::fs::read_to_string(&trace_path).unwrap())
                .unwrap()
                .len(),
            12
        );

        // the JSON results hold the same neighbours, in the same order
        let mut tokens = query.to_vec();
        tokens.push("--json");
        let results: Vec<sdtw_index::QueryResult> = serde_json::from_str(&run(&tokens)).unwrap();
        let listed: Vec<Vec<(usize, String)>> = results
            .iter()
            .map(|r| {
                r.neighbors
                    .iter()
                    .map(|n| (n.index, format!("{:.4}", n.distance)))
                    .collect()
            })
            .collect();
        let printed: Vec<Vec<(usize, String)>> = default
            .iter()
            .map(|line| {
                let (_, hits) = line.split_once(": ").unwrap();
                hits.split("  ")
                    .map(|hit| {
                        let (index, rest) = hit.split_once('(').unwrap();
                        let distance = rest.trim_end_matches(')').rsplit(", ").next().unwrap();
                        (index.parse().unwrap(), distance.to_string())
                    })
                    .collect()
            })
            .collect();
        assert_eq!(listed, printed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dist_parses_flag_before_positionals_identically() {
        // the parser regression behind this PR: `--path` (a boolean flag)
        // must not swallow the corpus path that follows it
        let dir = std::env::temp_dir().join("sdtw_cli_flag_order_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.txt");
        let ds = UcrAnalog::Gun.generate(11);
        write_ucr_file(&path, &ds.series[..4]).unwrap();
        let p = path.to_str().unwrap();

        let flag_first = Args::parse(
            [
                "dist", "--path", p, "0", "1", "--policy", "sakoe", "--width", "0.2",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        let flag_last = Args::parse(
            [
                "dist", p, "0", "1", "--policy", "sakoe", "--width", "0.2", "--path",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(flag_first, flag_last, "orderings must parse identically");
        cmd_dist(&flag_first, &mut io::sink()).unwrap();
        cmd_dist(&flag_last, &mut io::sink()).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_find_round_trip_via_files() {
        let dir = std::env::temp_dir().join("sdtw_cli_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let hay_path = dir.join("hay.txt");
        let query_path = dir.join("query.txt");
        // haystack: a long series with the query's shape embedded — use a
        // generated gun series as the query and a concatenation of others
        // as the haystack
        let ds = UcrAnalog::Gun.generate(13);
        let query = ds.series[0].clone();
        let mut hay: Vec<f64> = Vec::new();
        for s in &ds.series[1..5] {
            hay.extend_from_slice(s.values());
        }
        hay.extend_from_slice(query.values());
        for s in &ds.series[5..7] {
            hay.extend_from_slice(s.values());
        }
        let hay = TimeSeries::new(hay).unwrap();
        write_ucr_file(&hay_path, std::slice::from_ref(&hay)).unwrap();
        write_ucr_file(&query_path, std::slice::from_ref(&query)).unwrap();

        let base = [
            "stream",
            "find",
            hay_path.to_str().unwrap(),
            query_path.to_str().unwrap(),
            "--policy",
            "sakoe",
            "--width",
            "0.2",
            "--k",
            "2",
        ];
        for extra in [
            &[][..],
            &["--monitor"][..],
            &["--json"][..],
            &["--raw"][..],
            &["--parallel"][..],
            &["--parallel", "--shards", "3"][..],
            &["--paa", "4"][..],
            &["--paa", "0"][..],
        ] {
            let mut argv: Vec<String> = base.iter().map(|s| s.to_string()).collect();
            argv.extend(extra.iter().map(|s| s.to_string()));
            cmd_stream(&Args::parse(argv).unwrap(), &mut io::sink()).unwrap();
        }
        // adaptive sDTW bands end to end
        let sdtw_band = [
            "stream",
            "find",
            hay_path.to_str().unwrap(),
            query_path.to_str().unwrap(),
            "--policy",
            "ac2aw",
            "--k",
            "1",
        ];
        cmd_stream(
            &Args::parse(sdtw_band.iter().map(|s| s.to_string())).unwrap(),
            &mut io::sink(),
        )
        .unwrap();

        // bad invocations are reported, not panicked
        assert!(cmd_stream(
            &Args::parse(["stream".to_string()]).unwrap(),
            &mut io::sink()
        )
        .is_err());
        assert!(cmd_stream(
            &Args::parse(["stream", "find", "only-one"].iter().map(|s| s.to_string())).unwrap(),
            &mut io::sink()
        )
        .is_err());
        // --shards without --parallel would be silently ignored — error
        let mut shards_serial: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        shards_serial.push("--shards".into());
        shards_serial.push("2".into());
        let err = cmd_stream(&Args::parse(shards_serial).unwrap(), &mut io::sink())
            .unwrap_err()
            .to_string();
        assert!(err.contains("--shards applies"), "{err}");

        std::fs::remove_file(&hay_path).ok();
        std::fs::remove_file(&query_path).ok();
    }

    #[test]
    fn stream_find_multi_query_modes_round_trip() {
        let dir = std::env::temp_dir().join("sdtw_cli_stream_multi_test");
        std::fs::create_dir_all(&dir).unwrap();
        let hay_path = dir.join("hay.txt");
        let queries_path = dir.join("queries.txt");
        let ds = UcrAnalog::Gun.generate(21);
        let mut hay: Vec<f64> = Vec::new();
        for s in &ds.series[2..6] {
            hay.extend_from_slice(s.values());
        }
        let hay = TimeSeries::new(hay).unwrap();
        write_ucr_file(&hay_path, std::slice::from_ref(&hay)).unwrap();
        write_ucr_file(&queries_path, &ds.series[..2]).unwrap();

        let base = [
            "stream",
            "find",
            hay_path.to_str().unwrap(),
            "--queries",
            queries_path.to_str().unwrap(),
            "--policy",
            "sakoe",
            "--width",
            "0.2",
            "--k",
            "1",
        ];
        // multi-query batch (serial + parallel fan-out), the shared-ingest
        // monitor bank, and JSON output
        for extra in [
            &[][..],
            &["--parallel"][..],
            &["--monitor"][..],
            &["--json"][..],
        ] {
            let mut argv: Vec<String> = base.iter().map(|s| s.to_string()).collect();
            argv.extend(extra.iter().map(|s| s.to_string()));
            cmd_stream(&Args::parse(argv).unwrap(), &mut io::sink()).unwrap();
        }

        // --queries together with a positional query file is ambiguous
        let mut ambiguous: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        ambiguous.insert(3, queries_path.to_str().unwrap().to_string());
        let err = cmd_stream(&Args::parse(ambiguous).unwrap(), &mut io::sink())
            .unwrap_err()
            .to_string();
        assert!(err.contains("replaces the positional"), "{err}");

        // --monitor and --parallel are mutually exclusive
        let mut both: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        both.push("--monitor".into());
        both.push("--parallel".into());
        let err = cmd_stream(&Args::parse(both).unwrap(), &mut io::sink())
            .unwrap_err()
            .to_string();
        assert!(err.contains("--parallel applies to batch"), "{err}");

        // --shards outside the single-query sharded scan is an error,
        // not a silently ignored option
        let mut shards_multi: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        shards_multi.push("--parallel".into());
        shards_multi.push("--shards".into());
        shards_multi.push("2".into());
        let err = cmd_stream(&Args::parse(shards_multi).unwrap(), &mut io::sink())
            .unwrap_err()
            .to_string();
        assert!(err.contains("--shards applies"), "{err}");

        std::fs::remove_file(&hay_path).ok();
        std::fs::remove_file(&queries_path).ok();
    }

    #[test]
    fn trace_option_round_trips_through_report() {
        let dir = std::env::temp_dir().join("sdtw_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("corpus.txt");
        let index_path = dir.join("index.idx");
        let trace_path = dir.join("trace.ndjson");
        let ds = UcrAnalog::Gun.generate(33);
        write_ucr_file(&corpus_path, &ds.series[..8]).unwrap();
        let c = corpus_path.to_str().unwrap();
        let i = index_path.to_str().unwrap();
        let t = trace_path.to_str().unwrap();
        let argv = |tokens: &[&str]| Args::parse(tokens.iter().map(|s| s.to_string())).unwrap();

        // index query --trace: one NDJSON line per query
        cmd_index(
            &argv(&[
                "index", "build", c, i, "--policy", "sakoe", "--width", "0.2",
            ]),
            &mut io::sink(),
        )
        .unwrap();
        cmd_index(
            &argv(&["index", "query", i, c, "--k", "3", "--trace", t]),
            &mut io::sink(),
        )
        .unwrap();
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let report = TraceReport::from_ndjson(&text).unwrap();
        assert_eq!(report.len(), 8, "one trace per query");
        assert!(report.render().contains("per-stage prune table"));
        // a fixed band is never planned from descriptors
        assert!(report
            .traces()
            .iter()
            .all(|t| t.descriptor_comparisons == 0));
        cmd_report(&argv(&["report", t]), &mut io::sink()).unwrap();

        // under an adaptive policy every query's band plans compare
        // descriptors, and its trace counts them
        let sdtw_index_path = dir.join("index_ac2aw.idx");
        let si = sdtw_index_path.to_str().unwrap();
        cmd_index(
            &argv(&["index", "build", c, si, "--policy", "ac2aw", "--znorm"]),
            &mut io::sink(),
        )
        .unwrap();
        cmd_index(
            &argv(&["index", "query", si, c, "--k", "3", "--trace", t]),
            &mut io::sink(),
        )
        .unwrap();
        let report =
            TraceReport::from_ndjson(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        assert_eq!(report.len(), 8, "one trace per query");
        for trace in report.traces() {
            assert!(trace.descriptor_comparisons > 0, "{}", trace.query_id);
        }

        // dist --trace: a single distance-workload line
        cmd_dist(
            &argv(&[
                "dist", c, "0", "1", "--policy", "sakoe", "--width", "0.2", "--trace", t,
            ]),
            &mut io::sink(),
        )
        .unwrap();
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let report = TraceReport::from_ndjson(&text).unwrap();
        assert_eq!(report.len(), 1);
        assert_eq!(report.traces()[0].workload.label(), "distance");
        assert_eq!(report.traces()[0].counters.cascade.dp_completed, 1);

        // an adaptive pair extracts, plans and fills once each
        cmd_dist(
            &argv(&["dist", c, "0", "1", "--policy", "ac2aw", "--trace", t]),
            &mut io::sink(),
        )
        .unwrap();
        let report =
            TraceReport::from_ndjson(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        assert_eq!(report.len(), 1);
        let trace = &report.traces()[0];
        let phases: Vec<(TracePhase, u64)> =
            trace.spans.iter().map(|s| (s.phase, s.count)).collect();
        assert_eq!(
            phases,
            [
                (TracePhase::Extraction, 1),
                (TracePhase::BandPlan, 1),
                (TracePhase::DpFill, 1)
            ]
        );
        assert_eq!(trace.band_area, trace.counters.cascade.cells_filled);

        // distmat --trace: one batch-level line, which under an adaptive
        // policy holds the one extraction the matrix pays, with or
        // without a query file
        let queries_path = dir.join("queries.txt");
        write_ucr_file(&queries_path, &ds.series[8..11]).unwrap();
        let q = queries_path.to_str().unwrap();
        for policy in ["sakoe", "ac2aw"] {
            for queries in [&[][..], &["--queries", q][..]] {
                let mut tokens = vec!["distmat", c, "--policy", policy, "--trace", t];
                tokens.extend_from_slice(queries);
                cmd_distmat(&argv(&tokens), &mut io::sink()).unwrap();
                let report =
                    TraceReport::from_ndjson(&std::fs::read_to_string(&trace_path).unwrap())
                        .unwrap();
                assert_eq!(report.len(), 1);
                let trace = &report.traces()[0];
                assert_eq!(trace.workload.label(), "distance-matrix");
                let extractions = trace
                    .spans
                    .iter()
                    .filter(|s| s.phase == TracePhase::Extraction)
                    .count();
                let adaptive = policy == "ac2aw";
                let ctx = format!("{policy} {queries:?}");
                assert_eq!(extractions, usize::from(adaptive), "{ctx}");
                assert_eq!(trace.descriptor_comparisons > 0, adaptive, "{ctx}");
                if !queries.is_empty() {
                    // every pair of the query-vs-corpus matrix completes
                    assert_eq!(trace.counters.cascade.dp_completed, 3 * 8, "{ctx}");
                }
            }
        }
        std::fs::remove_file(&queries_path).ok();

        // stream find --trace across the serial / sharded / monitor modes
        let hay_path = dir.join("hay.txt");
        let mut hay: Vec<f64> = Vec::new();
        for s in &ds.series[1..5] {
            hay.extend_from_slice(s.values());
        }
        let hay = TimeSeries::new(hay).unwrap();
        write_ucr_file(&hay_path, std::slice::from_ref(&hay)).unwrap();
        let h = hay_path.to_str().unwrap();
        let base = [
            "stream", "find", h, c, "--policy", "sakoe", "--width", "0.2",
        ];
        for extra in [
            &["--trace", t][..],
            &["--parallel", "--shards", "2", "--trace", t][..],
            &["--monitor", "--trace", t][..],
        ] {
            let mut tokens: Vec<&str> = base.to_vec();
            tokens.extend_from_slice(extra);
            cmd_stream(&argv(&tokens), &mut io::sink()).unwrap();
            let report =
                TraceReport::from_ndjson(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
            assert_eq!(report.len(), 1, "mode {extra:?}");
            assert!(
                report.merged_counters().cascade.candidates > 0,
                "mode {extra:?} recorded window visits"
            );
            assert_eq!(report.traces()[0].descriptor_comparisons, 0, "{extra:?}");
        }
        // an adaptive search counts its windows' descriptor comparisons
        cmd_stream(
            &argv(&[
                "stream", "find", h, c, "--query", "1", "--policy", "ac2aw", "--k", "2", "--trace",
                t,
            ]),
            &mut io::sink(),
        )
        .unwrap();
        let report =
            TraceReport::from_ndjson(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        assert_eq!(report.len(), 1);
        assert!(report.traces()[0].descriptor_comparisons > 0);

        // conflicting sink requests are refused up front
        let both = argv(&["dist", c, "0", "1", "--trace", t, "--trace-stdout"]);
        let err = cmd_dist(&both, &mut io::sink()).unwrap_err().to_string();
        assert!(err.contains("mutually exclusive"), "{err}");
        let json_stdout = argv(&["index", "query", i, c, "--json", "--trace-stdout"]);
        let err = cmd_index(&json_stdout, &mut io::sink())
            .unwrap_err()
            .to_string();
        assert!(err.contains("--trace <file>"), "{err}");

        // report rejects garbage and missing files
        assert!(cmd_report(&argv(&["report"]), &mut io::sink()).is_err());
        assert!(cmd_report(&argv(&["report", "/nonexistent/x.ndjson"]), &mut io::sink()).is_err());

        for p in [
            &corpus_path,
            &index_path,
            &sdtw_index_path,
            &trace_path,
            &hay_path,
        ] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn generate_and_dist_round_trip_via_files() {
        let dir = std::env::temp_dir().join("sdtw_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.txt");
        let gen = Args::parse(
            ["generate", "gun", path.to_str().unwrap(), "--seed", "5"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        cmd_generate(&gen, &mut io::sink()).unwrap();
        let dist = Args::parse(
            [
                "dist",
                path.to_str().unwrap(),
                "0",
                "1",
                "--policy",
                "sakoe",
                "--width",
                "0.2",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        cmd_dist(&dist, &mut io::sink()).unwrap();
        let amerced = Args::parse(
            [
                "dist",
                path.to_str().unwrap(),
                "0",
                "1",
                "--policy",
                "sakoe",
                "--width",
                "0.2",
                "--kernel",
                "amerced",
                "--penalty",
                "0.3",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        cmd_dist(&amerced, &mut io::sink()).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_socket_and_client_round_trip_via_files() {
        let dir = std::env::temp_dir().join("sdtw_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("corpus.txt");
        let queries_path = dir.join("queries.txt");
        let index_path = dir.join("index.idx");
        let sock_path = dir.join("daemon.sock");
        let argv = |tokens: &[&str]| Args::parse(tokens.iter().map(|s| s.to_string())).unwrap();

        // corpus: concatenated gun series (long entries, so a short query
        // pattern has many candidate windows); queries: short prefixes
        let ds = UcrAnalog::Gun.generate(77);
        let mut corpus = Vec::new();
        for pair in ds.series[..8].chunks(2) {
            let mut vals = Vec::new();
            for s in pair {
                vals.extend_from_slice(s.values());
            }
            corpus.push(TimeSeries::new(vals).unwrap());
        }
        write_ucr_file(&corpus_path, &corpus).unwrap();
        let queries: Vec<TimeSeries> = ds.series[8..10]
            .iter()
            .map(|s| TimeSeries::new(s.values()[..40].to_vec()).unwrap())
            .collect();
        write_ucr_file(&queries_path, &queries).unwrap();
        let c = corpus_path.to_str().unwrap();
        let q = queries_path.to_str().unwrap();
        let i = index_path.to_str().unwrap();
        let s = sock_path.to_str().unwrap();

        cmd_index(
            &argv(&[
                "index", "build", c, i, "--policy", "sakoe", "--width", "0.2",
            ]),
            &mut io::sink(),
        )
        .unwrap();

        // daemon on a background thread, scripted client in the foreground
        let serve_args = argv(&["serve", "--index", i, "--socket", s, "--k", "3"]);
        let daemon = std::thread::spawn(move || cmd_serve(&serve_args, &mut io::sink()));
        // wait for the socket to appear
        for _ in 0..200 {
            if sock_path.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        cmd_client(
            &argv(&["client", "send", s, q, "--k", "2", "--shutdown"]),
            &mut io::sink(),
        )
        .unwrap();
        daemon.join().unwrap().unwrap();
        assert!(!sock_path.exists(), "daemon removed its socket");

        // emit writes one request line per query row
        let reqs =
            client_requests(&argv(&["client", "emit", q, "--k", "2", "--tau", "5.5"]), q).unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].id, "q0");
        assert_eq!(reqs[0].k, 2);
        assert_eq!(reqs[1].tau, Some(5.5));

        // bad invocations are reported, not panicked
        assert!(cmd_serve(&argv(&["serve", "--pipe"]), &mut io::sink()).is_err());
        assert!(cmd_serve(&argv(&["serve", "--index", i]), &mut io::sink()).is_err());
        assert!(cmd_client(&argv(&["client"]), &mut io::sink()).is_err());
        assert!(cmd_client(&argv(&["client", "send", s]), &mut io::sink()).is_err());

        for p in [&corpus_path, &queries_path, &index_path] {
            std::fs::remove_file(p).ok();
        }
    }

    /// A stdout whose writes all fail with one error kind.
    struct FailingStdout(io::ErrorKind);

    impl Write for FailingStdout {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(self.0.into())
        }
    }

    /// `client emit` into a stdout whose reader went away (`| head -n 1`
    /// once it has its line) ends the run quietly with status 0; any other
    /// write error is reported and fails it, like any other error.
    #[test]
    fn a_closed_stdout_ends_the_run_quietly() {
        let dir = std::env::temp_dir().join("sdtw_cli_closed_stdout_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("queries.txt");
        write_ucr_file(&path, &UcrAnalog::Gun.generate(3).series[..2]).unwrap();
        let emit = Args::parse(
            ["client", "emit", path.to_str().unwrap(), "--k", "3"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let ended = |kind: io::ErrorKind| {
            let result = cmd_client(&emit, &mut FailingStdout(kind));
            assert!(matches!(&result, Err(CliError::Output(e)) if e.kind() == kind));
            let mut stderr = Vec::new();
            let code = exit_code(result, &mut stderr);
            (code, String::from_utf8(stderr).unwrap())
        };
        assert_eq!(
            ended(io::ErrorKind::BrokenPipe),
            (ExitCode::SUCCESS, String::new())
        );
        let (code, stderr) = ended(io::ErrorKind::StorageFull);
        assert_eq!(code, ExitCode::FAILURE);
        assert!(stderr.starts_with("error: writing to stdout: "), "{stderr}");
        let mut stderr = Vec::new();
        assert_eq!(
            exit_code(Err("bad input".into()), &mut stderr),
            ExitCode::FAILURE
        );
        assert_eq!(stderr, b"error: bad input\n");
        std::fs::remove_file(&path).ok();
    }

    /// Row 0 holds 59 × `1.7e308` and one `−1.7e308`, row 1 60 ×
    /// `−1.7e308`: every DP over the two squares past `f64::MAX`. Returns
    /// the file's path.
    fn near_max_corpus(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(test);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("near_max.txt");
        let mut first = vec![1.7e308; 59];
        first.push(-1.7e308);
        let rows = [first, vec![-1.7e308; 60]].map(|v| TimeSeries::new(v).unwrap());
        write_ucr_file(&path, &rows).unwrap();
        path
    }

    /// Runs one command over [`near_max_corpus`] and returns its error.
    fn refusal(
        test: &str,
        cmd: fn(&Args, &mut dyn Write) -> Result<(), CliError>,
        tokens: &[&str],
    ) -> String {
        let path = near_max_corpus(test);
        let mut argv: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        argv.insert(1, path.to_str().unwrap().to_string());
        let err = cmd(&Args::parse(argv).unwrap(), &mut io::sink())
            .unwrap_err()
            .to_string();
        std::fs::remove_file(&path).ok();
        err
    }

    #[test]
    fn dist_refuses_samples_too_large_for_the_metric() {
        let err = refusal("sdtw_cli_dist_overflow_test", cmd_dist, &["dist", "0", "1"]);
        assert!(err.contains("too large for the squared metric"), "{err}");
    }

    #[test]
    fn distmat_refuses_samples_too_large_for_the_metric() {
        let err = refusal(
            "sdtw_cli_distmat_overflow_test",
            cmd_distmat,
            &["distmat", "--serial"],
        );
        assert!(err.contains("too large for the squared metric"), "{err}");
    }

    #[test]
    fn retrieve_refuses_samples_too_large_for_the_metric() {
        let err = refusal(
            "sdtw_cli_retrieve_overflow_test",
            cmd_retrieve,
            &["retrieve", "0", "--k", "1"],
        );
        assert!(err.contains("too large for the squared metric"), "{err}");
    }
}
