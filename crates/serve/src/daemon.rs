//! Transport for the resident engine: a stdin/stdout pipe mode (CI,
//! scripting) and a Unix-socket daemon, both speaking the NDJSON
//! [`protocol`](crate::protocol).
//!
//! The engine snapshot is immutable, so every transport shares one
//! [`ServeEngine`] behind an `Arc`. Pipe mode drains requests in batches
//! across the rayon pool, one reused DP scratch per worker; socket mode
//! dedicates an OS thread per connection, each with its own reused DP
//! scratch, so interleaved clients never contend on anything but the
//! matcher cache lock. Both answer through
//! [`ServeEngine::answer_with_scratch`].

use crate::engine::ServeEngine;
use crate::protocol::{RequestOp, ServeRequest, ServeResponse};
use parking_lot::Mutex;
use rayon::prelude::*;
use sdtw_dtw::engine::DtwScratch;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The longest request line either transport reads: 4 MiB, newline
/// excluded. A pattern is the only long field a request carries, and
/// 4 MiB holds more than 150,000 samples printed at full `f64`
/// precision (at most 25 bytes each). The cap bounds what one line can
/// make a connection buffer; a longer line is answered with `ok = false`
/// and its remaining bytes are discarded as they arrive, unbuffered.
pub const MAX_REQUEST_LINE_BYTES: usize = 4 << 20;

/// One parsed pipe-mode input line. A request itself waits in the
/// batch's request list, in input order.
enum Item {
    Req,
    Bad(ServeResponse),
    Stop(String),
}

/// Reads request lines as bytes, at most [`MAX_REQUEST_LINE_BYTES`]
/// each, and decodes them: a line that is too long, not UTF-8 or not a
/// request becomes the `ok = false` response that answers it, so one bad
/// line never ends the stream.
struct RequestLines<R> {
    reader: R,
    /// The current line's bytes (its storage is reused line to line).
    line: Vec<u8>,
}

impl<R: BufRead> RequestLines<R> {
    fn new(reader: R) -> Self {
        RequestLines {
            reader,
            line: Vec::new(),
        }
    }

    /// The next non-blank line, decoded; `None` at end of input.
    ///
    /// # Errors
    ///
    /// I/O errors from the reader.
    fn next_request(&mut self) -> io::Result<Option<Result<ServeRequest, ServeResponse>>> {
        loop {
            let Some(fits) = self.read_line()? else {
                return Ok(None);
            };
            if !fits {
                return Ok(Some(Err(ServeResponse::error(
                    "",
                    format!("bad request line: longer than {MAX_REQUEST_LINE_BYTES} bytes"),
                ))));
            }
            let bytes = self.line.strip_suffix(b"\r").unwrap_or(&self.line);
            let text = match std::str::from_utf8(bytes) {
                Ok(text) => text,
                Err(e) => {
                    return Ok(Some(Err(ServeResponse::error(
                        "",
                        format!("bad request line: not UTF-8 ({e})"),
                    ))))
                }
            };
            if !text.trim().is_empty() {
                return Ok(Some(ServeRequest::decode_line(text)));
            }
        }
    }

    /// Reads one line into `self.line`, newline excluded. Returns
    /// `None` at end of input, `Some(false)` when the line was longer
    /// than the cap (the line is then consumed but not kept).
    fn read_line(&mut self) -> io::Result<Option<bool>> {
        self.line.clear();
        let mut fits = true;
        let mut read_any = false;
        loop {
            let available = match self.reader.fill_buf() {
                Ok(available) => available,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                // end of input: a last line without a newline still counts
                return Ok(read_any.then_some(fits));
            }
            read_any = true;
            let newline = available.iter().position(|&b| b == b'\n');
            let chunk = &available[..newline.unwrap_or(available.len())];
            if fits && self.line.len() + chunk.len() <= MAX_REQUEST_LINE_BYTES {
                self.line.extend_from_slice(chunk);
            } else {
                fits = false;
                self.line.clear();
            }
            let used = newline.map_or(available.len(), |at| at + 1);
            self.reader.consume(used);
            if newline.is_some() {
                return Ok(Some(fits));
            }
        }
    }
}

/// Writes one response line: the body and its newline in one call, so a
/// client blocked on the line wakes once.
fn write_response<W: Write>(writer: &mut W, resp: &ServeResponse) -> io::Result<()> {
    let mut line = resp.to_json_line();
    line.push('\n');
    writer.write_all(line.as_bytes())
}

/// Runs the daemon over an in-process reader/writer pair (the `--pipe`
/// mode CI drives): reads NDJSON requests until EOF or a `Shutdown`
/// request, answers them in batches of `batch` across the rayon pool
/// (one reused DP scratch per worker), and writes one NDJSON response
/// per request **in input order**.
/// Returns the NDJSON trace lines of every traced request, in the same
/// order.
///
/// # Errors
///
/// Propagates I/O errors from the reader/writer; malformed request
/// lines — including lines longer than [`MAX_REQUEST_LINE_BYTES`] and
/// lines that are not UTF-8 — are *answered* (with an `ok = false`
/// response), not fatal.
pub fn run_pipe<R: BufRead, W: Write>(
    engine: &ServeEngine,
    reader: R,
    writer: &mut W,
    batch: usize,
) -> io::Result<Vec<String>> {
    let batch = batch.max(1);
    let mut traces = Vec::new();
    let mut requests = RequestLines::new(reader);
    let mut done = false;
    while !done {
        let mut items: Vec<Item> = Vec::with_capacity(batch);
        let mut queries: Vec<ServeRequest> = Vec::with_capacity(batch);
        while items.len() < batch {
            let Some(decoded) = requests.next_request()? else {
                done = true;
                break;
            };
            match decoded {
                Err(resp) => items.push(Item::Bad(resp)),
                Ok(req) if req.op == RequestOp::Shutdown => {
                    items.push(Item::Stop(req.id));
                    done = true;
                    break;
                }
                Ok(req) => {
                    items.push(Item::Req);
                    queries.push(req);
                }
            }
        }
        let mut answers = (0..queries.len())
            .into_par_iter()
            .map_init(DtwScratch::new, |scratch, i| {
                engine.answer_with_scratch(&queries[i], scratch)
            })
            .collect::<Vec<_>>()
            .into_iter();
        for item in items {
            let resp = match item {
                Item::Req => {
                    let (resp, trace) = answers.next().expect("one answer per request");
                    if let Some(t) = trace {
                        traces.push(t.to_json_line());
                    }
                    resp
                }
                Item::Bad(resp) => resp,
                Item::Stop(id) => ServeResponse {
                    id,
                    ok: true,
                    ..ServeResponse::default()
                },
            };
            write_response(writer, &resp)?;
        }
        writer.flush()?;
    }
    Ok(traces)
}

/// Each live socket connection's stream clone and thread, keyed by
/// accept order; a connection thread removes its own entry when it ends.
type LiveConnections = HashMap<u64, (UnixStream, JoinHandle<()>)>;

/// The Unix-socket daemon: binds a path, then accepts connections until
/// a client sends `Shutdown`.
#[derive(Debug)]
pub struct SocketServer {
    listener: UnixListener,
    path: PathBuf,
}

impl SocketServer {
    /// Binds the daemon socket, replacing a stale socket file at `path`
    /// if one is left over.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(path: impl AsRef<Path>) -> io::Result<SocketServer> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        Ok(SocketServer { listener, path })
    }

    /// The bound socket path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Accepts connections until shutdown, one OS thread per connection,
    /// each thread answering that client's requests serially with a
    /// reused scratch (concurrency comes from concurrent clients — the
    /// snapshot is shared immutable). A `Shutdown` request from any
    /// client is acknowledged and stops the accept loop; every live
    /// connection's read side is then shut down, so an idle client
    /// cannot keep the daemon alive while an in-flight answer still goes
    /// out, and the connection threads are joined. Returns every traced
    /// request's NDJSON trace line.
    ///
    /// # Errors
    ///
    /// Accept-loop I/O failures; per-connection I/O errors end that
    /// connection only.
    pub fn serve(self, engine: Arc<ServeEngine>) -> io::Result<Vec<String>> {
        let stop = Arc::new(AtomicBool::new(false));
        let traces: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let live: Arc<Mutex<LiveConnections>> = Arc::new(Mutex::new(HashMap::new()));
        for (id, stream) in (0u64..).zip(self.listener.incoming()) {
            let stream = stream?;
            if stop.load(Ordering::SeqCst) {
                break;
            }
            // a stream that cannot be cloned (out of descriptors) could not
            // be shut down at stop: refuse that connection, not the daemon
            let Ok(clone) = stream.try_clone() else {
                continue;
            };
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let traces = Arc::clone(&traces);
            let wake_path = self.path.clone();
            let live_on_exit = Arc::clone(&live);
            // held across the spawn, so the entry exists before the
            // thread can remove it
            let mut registry = live.lock();
            let handle = std::thread::spawn(move || {
                let _ = serve_connection(&engine, stream, &stop, &wake_path, &traces);
                live_on_exit.lock().remove(&id);
            });
            registry.insert(id, (clone, handle));
        }
        let remaining: Vec<(UnixStream, JoinHandle<()>)> =
            live.lock().drain().map(|(_, conn)| conn).collect();
        for (stream, _) in &remaining {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (_, handle) in remaining {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.path);
        let out = std::mem::take(&mut *traces.lock());
        Ok(out)
    }
}

/// One connection's request loop (socket mode).
fn serve_connection(
    engine: &ServeEngine,
    stream: UnixStream,
    stop: &AtomicBool,
    wake_path: &Path,
    traces: &Mutex<Vec<String>>,
) -> io::Result<()> {
    let mut requests = RequestLines::new(BufReader::new(stream.try_clone()?));
    let mut writer = stream;
    let mut scratch = DtwScratch::new();
    while let Some(decoded) = requests.next_request()? {
        let resp = match decoded {
            Err(resp) => resp,
            Ok(req) if req.op == RequestOp::Shutdown => {
                let ack = ServeResponse {
                    id: req.id,
                    ok: true,
                    ..ServeResponse::default()
                };
                write_response(&mut writer, &ack)?;
                writer.flush()?;
                stop.store(true, Ordering::SeqCst);
                // self-wake: the accept loop is blocked in `accept`; a
                // throwaway connection gets it to observe the stop flag.
                let _ = UnixStream::connect(wake_path);
                return Ok(());
            }
            Ok(req) => {
                let (resp, trace) = engine.answer_with_scratch(&req, &mut scratch);
                if let Some(t) = trace {
                    traces.lock().push(t.to_json_line());
                }
                resp
            }
        };
        write_response(&mut writer, &resp)?;
        writer.flush()?;
    }
    Ok(())
}

/// A minimal synchronous client: connects to a daemon socket, sends each
/// request as one NDJSON line, and reads the matching response line.
/// Responses come back in request order (the protocol is
/// request/response over one connection).
///
/// # Errors
///
/// Connection/write/read failures; a response line that fails to parse
/// surfaces as [`io::ErrorKind::InvalidData`].
pub fn client_roundtrip(
    path: impl AsRef<Path>,
    requests: &[ServeRequest],
) -> io::Result<Vec<ServeResponse>> {
    let stream = UnixStream::connect(path.as_ref())?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut out = Vec::with_capacity(requests.len());
    for req in requests {
        // one write per line, newline included, as the daemon answers;
        // the stream is unbuffered, so there is nothing to flush
        let mut request = req.to_json_line();
        request.push('\n');
        writer.write_all(request.as_bytes())?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection mid-request",
            ));
        }
        let resp = ServeResponse::from_json_line(line.trim_end()).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad response line: {e}"),
            )
        })?;
        out.push(resp);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use sdtw_index::{IndexConfig, SdtwIndex};
    use sdtw_tseries::TimeSeries;

    fn demo_engine(trace: bool) -> ServeEngine {
        engine_over(IndexConfig::default(), trace)
    }

    /// The demo corpus under a z-normalising index, as the hostile-line
    /// tests serve it.
    fn znorm_engine() -> ServeEngine {
        let config = IndexConfig {
            z_normalize: true,
            ..IndexConfig::default()
        };
        engine_over(config, false)
    }

    fn engine_over(config: IndexConfig, trace: bool) -> ServeEngine {
        let mut entries = Vec::new();
        for e in 0..6 {
            let n = 80 + 7 * e;
            let vals: Vec<f64> = (0..n)
                .map(|i| ((i as f64) * 0.21 + e as f64).sin() + 0.05 * (e as f64))
                .collect();
            entries.push(TimeSeries::new(vals).unwrap());
        }
        let index = SdtwIndex::build(&entries, config).unwrap();
        ServeEngine::new(
            index,
            ServeConfig {
                trace,
                ..ServeConfig::default()
            },
        )
        .unwrap()
    }

    fn demo_query() -> Vec<f64> {
        (0..24).map(|i| ((i as f64) * 0.21 + 2.0).sin()).collect()
    }

    #[test]
    fn pipe_mode_answers_in_order_and_stops_at_shutdown() {
        let engine = demo_engine(true);
        let mut input = String::new();
        for i in 0..5 {
            input.push_str(&ServeRequest::query(format!("q{i}"), demo_query(), 3).to_json_line());
            input.push('\n');
        }
        input.push_str("this is not json\n");
        input.push_str(&ServeRequest::shutdown("bye").to_json_line());
        input.push('\n');
        // anything after shutdown must be ignored
        input.push_str(&ServeRequest::query("after", demo_query(), 3).to_json_line());
        input.push('\n');

        let mut out = Vec::new();
        let traces = run_pipe(&engine, input.as_bytes(), &mut out, 2).unwrap();
        let text = String::from_utf8(out).unwrap();
        let resps: Vec<ServeResponse> = text
            .lines()
            .map(|l| ServeResponse::from_json_line(l).unwrap())
            .collect();
        assert_eq!(resps.len(), 7, "5 queries + 1 parse error + shutdown ack");
        for (i, r) in resps[..5].iter().enumerate() {
            assert_eq!(r.id, format!("q{i}"));
            assert!(r.ok, "query failed: {}", r.error);
            assert!(!r.hits.is_empty());
        }
        assert!(!resps[5].ok);
        assert!(resps[5].error.contains("bad request line"));
        assert_eq!(resps[6].id, "bye");
        assert!(resps[6].ok);
        assert_eq!(traces.len(), 5, "one trace per answered query");
        assert!(traces[0].contains("ServePattern"));
    }

    /// Request lines no client should send, each followed by a valid
    /// query, with the id their answer must carry and, for a line that
    /// is refused, an error fragment: nesting far past the JSON depth
    /// limit (it used to overflow the stack and abort the process), valid
    /// JSON of the wrong shape (its id must be echoed), text that is not
    /// JSON, bytes that are not UTF-8 (they used to end the connection),
    /// lines at and just past the length cap (only the longer one is
    /// refused unread), and a valid pattern of finite samples near
    /// `f64::MAX`, whose z-normalisation used to panic the daemon.
    fn hostile_lines() -> Vec<(Vec<u8>, &'static str, Option<&'static str>)> {
        let mut near_max = vec![1.7e308; 59];
        near_max.push(-1.7e308);
        vec![
            (
                ("[".repeat(100_000) + &"]".repeat(100_000)).into_bytes(),
                "",
                Some("nesting"),
            ),
            (
                br#"{"id":"q7","op":"Query","k":2,"tau":null,"trace":false,"values":"x"}"#.to_vec(),
                "q7",
                Some("expected array"),
            ),
            (b"this is not json".to_vec(), "", Some("expected")),
            (vec![b'{', 0xff, 0xfe, b'}'], "", Some("not UTF-8")),
            (vec![b'x'; MAX_REQUEST_LINE_BYTES], "", Some("expected")),
            (
                vec![b'x'; MAX_REQUEST_LINE_BYTES + 1],
                "",
                Some("longer than"),
            ),
            (
                ServeRequest::query("near-max", near_max, 2)
                    .to_json_line()
                    .into_bytes(),
                "near-max",
                None,
            ),
        ]
    }

    /// `line`, then `valid` ending in CRLF, as one transport input.
    fn hostile_input(line: &[u8], valid: &ServeRequest) -> Vec<u8> {
        let mut input = line.to_vec();
        input.push(b'\n');
        input.extend_from_slice(valid.to_json_line().as_bytes());
        input.extend_from_slice(b"\r\n");
        input
    }

    #[test]
    fn pipe_mode_answers_hostile_lines_and_keeps_going() {
        let engine = znorm_engine();
        let valid = ServeRequest::query("after", demo_query(), 2);
        let mut expected = Vec::new();
        run_pipe(
            &engine,
            format!("{}\n", valid.to_json_line()).as_bytes(),
            &mut expected,
            4,
        )
        .unwrap();
        let expected =
            ServeResponse::from_json_line(std::str::from_utf8(&expected).unwrap().trim_end())
                .unwrap();
        assert!(expected.ok && !expected.hits.is_empty());
        for (line, id, why) in hostile_lines() {
            let mut out = Vec::new();
            run_pipe(&engine, &hostile_input(&line, &valid)[..], &mut out, 4).unwrap();
            let resps: Vec<ServeResponse> = String::from_utf8(out)
                .unwrap()
                .lines()
                .map(|l| ServeResponse::from_json_line(l).unwrap())
                .collect();
            assert_eq!(resps.len(), 2);
            assert_eq!(resps[0].id, id);
            match why {
                Some(why) => assert!(
                    !resps[0].ok
                        && resps[0].error.starts_with("bad request line")
                        && resps[0].error.contains(why),
                    "{}",
                    resps[0].error
                ),
                None => assert!(resps[0].ok, "{}", resps[0].error),
            }
            assert_eq!(resps[1], expected, "the next line is answered as usual");
        }
    }

    #[test]
    fn socket_connections_answer_hostile_lines_and_keep_going() {
        let dir = std::env::temp_dir().join(format!("sdtw-serve-hostile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("daemon.sock");
        let server = SocketServer::bind(&sock).unwrap();
        let engine = Arc::new(znorm_engine());
        let handle = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || server.serve(engine))
        };
        let valid = ServeRequest::query("after", demo_query(), 2);
        let stream = UnixStream::connect(&sock).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for (line, id, why) in hostile_lines() {
            writer.write_all(&hostile_input(&line, &valid)).unwrap();
            for (want_id, want_error) in [(id, why), ("after", None)] {
                let mut text = String::new();
                reader.read_line(&mut text).unwrap();
                let resp = ServeResponse::from_json_line(text.trim_end()).unwrap();
                assert_eq!(resp.id, want_id);
                assert_eq!(resp.ok, want_error.is_none(), "{}", resp.error);
                assert!(
                    want_error.is_none_or(|why| resp.error.contains(why)),
                    "{}",
                    resp.error
                );
            }
        }
        drop((reader, writer));
        client_roundtrip(&sock, &[ServeRequest::shutdown("stop")]).unwrap();
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_returns_while_an_idle_client_stays_connected() {
        let dir = std::env::temp_dir().join(format!("sdtw-serve-idle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("daemon.sock");
        let server = SocketServer::bind(&sock).unwrap();
        let engine = Arc::new(demo_engine(false));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done_tx.send(server.serve(engine));
        });
        // a client that connects, is answered once, then sends nothing
        let idle = UnixStream::connect(&sock).unwrap();
        let mut idle_reader = BufReader::new(idle.try_clone().unwrap());
        let mut line = ServeRequest::query("idle", demo_query(), 2).to_json_line();
        line.push('\n');
        (&idle).write_all(line.as_bytes()).unwrap();
        let mut answer = String::new();
        idle_reader.read_line(&mut answer).unwrap();
        assert!(ServeResponse::from_json_line(answer.trim_end()).unwrap().ok);
        let ack = client_roundtrip(&sock, &[ServeRequest::shutdown("stop")]).unwrap();
        assert!(ack[0].ok);
        let served = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("serve returns although a client is still connected");
        assert!(served.unwrap().is_empty(), "tracing was off");
        // the idle client sees the daemon close its connection
        let mut rest = String::new();
        assert_eq!(idle_reader.read_line(&mut rest).unwrap(), 0);
        assert!(!sock.exists(), "socket file cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipe_batching_is_answer_invariant() {
        let engine = demo_engine(false);
        let mut input = String::new();
        for i in 0..6 {
            input.push_str(&ServeRequest::query(format!("q{i}"), demo_query(), 2).to_json_line());
            input.push('\n');
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        run_pipe(&engine, input.as_bytes(), &mut a, 1).unwrap();
        run_pipe(&engine, input.as_bytes(), &mut b, 64).unwrap();
        assert_eq!(a, b, "batch size must not change any response byte");
    }

    #[test]
    fn socket_daemon_roundtrips_and_shuts_down() {
        let dir = std::env::temp_dir().join(format!("sdtw-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("daemon.sock");
        let server = SocketServer::bind(&sock).unwrap();
        let engine = Arc::new(demo_engine(false));
        let path = sock.clone();
        let handle = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || server.serve(engine))
        };
        let reqs = vec![
            ServeRequest::query("a", demo_query(), 2),
            ServeRequest::query("b", demo_query(), 4),
        ];
        let resps = client_roundtrip(&path, &reqs).unwrap();
        assert_eq!(resps.len(), 2);
        assert!(resps.iter().all(|r| r.ok));
        assert_eq!(resps[0].id, "a");
        assert_eq!(resps[1].id, "b");
        let ack = client_roundtrip(&path, &[ServeRequest::shutdown("stop")]).unwrap();
        assert!(ack[0].ok);
        let traces = handle.join().unwrap().unwrap();
        assert!(traces.is_empty(), "tracing was off");
        assert!(!sock.exists(), "socket file cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
