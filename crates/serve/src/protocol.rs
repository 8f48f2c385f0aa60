//! The serve wire protocol: line-delimited JSON, one request or response
//! per line, over a Unix socket or a stdin/stdout pipe.
//!
//! Framing matches the trace NDJSON discipline: every value on one line,
//! `f64` payloads round-tripping bit-exactly (the `serde_json` layer
//! guarantees shortest-round-trip float encoding), so a response carries
//! the very distance bits the engine computed.

use serde::{Deserialize, Serialize};

/// What a request asks the daemon to do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestOp {
    /// Run the two-level pattern search for `values`.
    #[default]
    Query,
    /// Stop the daemon after this request is acknowledged (socket mode;
    /// pipe mode also stops at EOF).
    Shutdown,
}

/// One client request line.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeRequest {
    /// Caller-assigned request id, echoed in the response and stamped on
    /// the request's trace.
    pub id: String,
    /// Query vs shutdown.
    pub op: RequestOp,
    /// How many hits to return (`0` = the daemon's configured default).
    pub k: usize,
    /// Optional inclusive distance ceiling (`None` = unbounded).
    pub tau: Option<f64>,
    /// Ask for a [`QueryTrace`](sdtw_obs::QueryTrace) even when the
    /// daemon does not trace by default.
    pub trace: bool,
    /// The query pattern samples (empty for `Shutdown`).
    pub values: Vec<f64>,
}

impl ServeRequest {
    /// A plain query request with defaults for everything else.
    pub fn query(id: impl Into<String>, values: Vec<f64>, k: usize) -> ServeRequest {
        ServeRequest {
            id: id.into(),
            op: RequestOp::Query,
            k,
            tau: None,
            trace: false,
            values,
        }
    }

    /// The shutdown sentinel.
    pub fn shutdown(id: impl Into<String>) -> ServeRequest {
        ServeRequest {
            id: id.into(),
            op: RequestOp::Shutdown,
            ..ServeRequest::default()
        }
    }

    /// Encodes as one NDJSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("request serialisation is total")
    }

    /// Parses one NDJSON line.
    ///
    /// # Errors
    ///
    /// A human-readable parse/shape error.
    pub fn from_json_line(line: &str) -> Result<ServeRequest, String> {
        serde_json::from_str(line).map_err(|e| e.to_string())
    }

    /// Decodes one request line for a daemon transport, or builds the
    /// `ok = false` response that answers it. The line is parsed once;
    /// when it is JSON but not a valid request, the response still
    /// echoes its string `id`, so the client can pair the error with its
    /// request. Text that is not JSON is answered with an empty `id`.
    ///
    /// # Errors
    ///
    /// The error response for a malformed line.
    pub fn decode_line(line: &str) -> Result<ServeRequest, ServeResponse> {
        let bad = |id: &str, e: serde_json::Error| {
            ServeResponse::error(id, format!("bad request line: {e}"))
        };
        let value = serde_json::parse(line).map_err(|e| bad("", e))?;
        <ServeRequest as Deserialize>::from_json(&value)
            .map_err(|e| bad(value.get("id").and_then(|v| v.as_str()).unwrap_or(""), e))
    }
}

/// One subsequence hit of a pattern search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeHit {
    /// Corpus entry the window lives in.
    pub entry: usize,
    /// Window start offset inside that entry.
    pub offset: usize,
    /// Exact engine distance (bit-identical to the oracle's).
    pub distance: f64,
}

/// One daemon response line, paired to a request by `id`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeResponse {
    /// The request's id, echoed.
    pub id: String,
    /// Whether the request was answered (`false` → see `error`).
    pub ok: bool,
    /// Error description when `ok` is `false`, empty otherwise.
    pub error: String,
    /// The k best hits, ascending `(distance, entry, offset)`.
    pub hits: Vec<ServeHit>,
    /// Corpus entries skipped whole by the admissible level-1 floor.
    pub entries_pruned: u64,
    /// Corpus entries the level-2 matcher actually swept.
    pub entries_swept: u64,
}

impl ServeResponse {
    /// An error response for a request id.
    pub fn error(id: impl Into<String>, error: impl Into<String>) -> ServeResponse {
        ServeResponse {
            id: id.into(),
            ok: false,
            error: error.into(),
            ..ServeResponse::default()
        }
    }

    /// Encodes as one NDJSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("response serialisation is total")
    }

    /// Parses one NDJSON line.
    ///
    /// # Errors
    ///
    /// A human-readable parse/shape error.
    pub fn from_json_line(line: &str) -> Result<ServeResponse, String> {
        serde_json::from_str(line).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_with_float_bits_intact() {
        let mut req = ServeRequest::query("q1", vec![0.1, -2.5e-300, f64::MIN_POSITIVE], 5);
        req.tau = Some(1.25);
        req.trace = true;
        let back = ServeRequest::from_json_line(&req.to_json_line()).unwrap();
        assert_eq!(back, req);
        for (a, b) in back.values.iter().zip(&req.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn shutdown_op_roundtrips() {
        let req = ServeRequest::shutdown("bye");
        let back = ServeRequest::from_json_line(&req.to_json_line()).unwrap();
        assert_eq!(back.op, RequestOp::Shutdown);
        assert!(back.values.is_empty());
    }

    #[test]
    fn response_roundtrips_and_reports_errors() {
        let resp = ServeResponse {
            id: "q1".into(),
            ok: true,
            error: String::new(),
            hits: vec![ServeHit {
                entry: 3,
                offset: 17,
                distance: 0.062_499_999_999_999_99,
            }],
            entries_pruned: 7,
            entries_swept: 2,
        };
        let back = ServeResponse::from_json_line(&resp.to_json_line()).unwrap();
        assert_eq!(back, resp);
        assert_eq!(
            back.hits[0].distance.to_bits(),
            resp.hits[0].distance.to_bits()
        );
        let err = ServeResponse::error("q2", "boom");
        assert!(!err.ok);
        assert_eq!(err.error, "boom");
        assert!(ServeRequest::from_json_line("not json").is_err());
    }

    #[test]
    fn malformed_lines_keep_their_id_when_they_have_one() {
        let req = ServeRequest::query("q1", vec![1.0, 2.0], 3);
        assert_eq!(ServeRequest::decode_line(&req.to_json_line()), Ok(req));
        // valid JSON, wrong shape: the error echoes the request's id
        let line = r#"{"id":"q7","op":"Query","k":1,"tau":null,"trace":false,"values":"oops"}"#;
        let resp = ServeRequest::decode_line(line).unwrap_err();
        assert_eq!(resp.id, "q7");
        assert!(!resp.ok);
        assert!(resp.error.starts_with("bad request line"), "{}", resp.error);
        // no JSON at all, or an id that is not a string: nothing to echo
        for line in ["not json", r#"{"id":7,"values":[]}"#] {
            let resp = ServeRequest::decode_line(line).unwrap_err();
            assert_eq!(resp.id, "", "{line}");
            assert!(!resp.ok);
        }
    }
}
