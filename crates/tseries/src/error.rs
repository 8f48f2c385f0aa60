//! Error type shared by the time-series substrate.

use std::fmt;

/// Errors produced while constructing, transforming or parsing time series.
#[derive(Debug)]
pub enum TsError {
    /// A series was constructed from an empty sample vector.
    Empty,
    /// A sample was NaN or infinite at the given index.
    NonFinite {
        /// Index of the offending sample.
        index: usize,
        /// The offending value (printed for diagnostics).
        value: f64,
    },
    /// Two series were expected to have the same length.
    LengthMismatch {
        /// Length of the left operand.
        left: usize,
        /// Length of the right operand.
        right: usize,
    },
    /// A requested length (resampling target, window size, …) was invalid.
    InvalidLength {
        /// The requested length.
        requested: usize,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A parameter was outside its legal domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// A UCR-format line could not be parsed.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A persisted snapshot (index, trace, …) failed to decode.
    ///
    /// Shared by every snapshot codec so callers see *where* a payload
    /// went bad: the codec that rejected it, the byte offset when one is
    /// known, and the field or entry being decoded.
    SnapshotDecode {
        /// The codec that rejected the payload (`"binary-v3"`).
        format: &'static str,
        /// Byte offset of the failure within the payload, when known.
        offset: Option<u64>,
        /// Field/entry context plus the underlying reason.
        context: String,
    },
    /// Wrapper around I/O failures while reading/writing dataset files.
    Io(std::io::Error),
}

impl fmt::Display for TsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsError::Empty => write!(f, "time series must contain at least one sample"),
            TsError::NonFinite { index, value } => {
                write!(f, "non-finite sample {value} at index {index}")
            }
            TsError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            TsError::InvalidLength { requested, reason } => {
                write!(f, "invalid length {requested}: {reason}")
            }
            TsError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            TsError::Parse { line, reason } => write!(f, "parse error on line {line}: {reason}"),
            TsError::SnapshotDecode {
                format,
                offset,
                context,
            } => match offset {
                Some(at) => {
                    write!(
                        f,
                        "snapshot decode error ({format}) at byte {at}: {context}"
                    )
                }
                None => write!(f, "snapshot decode error ({format}): {context}"),
            },
            TsError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for TsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TsError {
    fn from(e: std::io::Error) -> Self {
        TsError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TsError::NonFinite {
            index: 3,
            value: f64::NAN,
        };
        let s = e.to_string();
        assert!(s.contains("index 3"), "got: {s}");

        let e = TsError::LengthMismatch { left: 4, right: 7 };
        assert!(e.to_string().contains("4 vs 7"));

        let e = TsError::Parse {
            line: 12,
            reason: "bad float".into(),
        };
        assert!(e.to_string().contains("line 12"));

        let e = TsError::SnapshotDecode {
            format: "binary-v3",
            offset: Some(36),
            context: "section table truncated".into(),
        };
        let s = e.to_string();
        assert!(s.contains("binary-v3") && s.contains("byte 36"), "got: {s}");
        let e = TsError::SnapshotDecode {
            format: "binary-v3",
            offset: None,
            context: "serialising config: entry 3".into(),
        };
        let s = e.to_string();
        assert!(s.contains("binary-v3") && s.contains("entry 3"), "got: {s}");
        assert!(!s.contains("byte"), "got: {s}");
    }

    #[test]
    fn io_error_wraps_source() {
        use std::error::Error as _;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e = TsError::from(io);
        assert!(e.source().is_some());
    }
}
