//! UCR-format time-series I/O.
//!
//! The paper evaluates on datasets from the UCR time-series archive. The
//! archive's text format is one series per line: the class label first,
//! then the samples, separated by commas or whitespace. This module parses
//! and writes that format so that real archives can be dropped into the
//! experiment harness when available (the repository ships synthetic
//! stand-ins; see `sdtw-datasets`).

use crate::error::TsError;
use crate::series::TimeSeries;
use std::io::{BufRead, Write};
use std::path::Path;

/// Parses a single UCR line: `label, v1, v2, ...` (comma or whitespace
/// separated). The label must be a non-negative integer-valued number
/// (UCR labels are sometimes written as `1.0`).
fn parse_line(line: &str, line_no: usize) -> Result<Option<TimeSeries>, TsError> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let mut fields = trimmed
        .split(|c: char| c == ',' || c.is_whitespace())
        .filter(|s| !s.is_empty());
    let label_raw = fields.next().ok_or_else(|| TsError::Parse {
        line: line_no,
        reason: "missing label field".into(),
    })?;
    let label_f: f64 = label_raw.parse().map_err(|_| TsError::Parse {
        line: line_no,
        reason: format!("label `{label_raw}` is not numeric"),
    })?;
    if label_f < 0.0 || label_f.fract() != 0.0 || label_f > u32::MAX as f64 {
        return Err(TsError::Parse {
            line: line_no,
            reason: format!("label `{label_raw}` is not a non-negative integer"),
        });
    }
    let mut values = Vec::new();
    for field in fields {
        let v: f64 = field.parse().map_err(|_| TsError::Parse {
            line: line_no,
            reason: format!("sample `{field}` is not numeric"),
        })?;
        values.push(v);
    }
    if values.is_empty() {
        return Err(TsError::Parse {
            line: line_no,
            reason: "series has a label but no samples".into(),
        });
    }
    let ts = TimeSeries::with_label(values, label_f as u32).map_err(|e| TsError::Parse {
        line: line_no,
        reason: e.to_string(),
    })?;
    Ok(Some(ts))
}

/// Reads a UCR-format corpus from any reader. Blank lines are skipped.
/// Series are assigned sequential ids (0, 1, 2, …) in file order.
pub fn read_ucr<R: BufRead>(reader: R) -> Result<Vec<TimeSeries>, TsError> {
    let mut corpus = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if let Some(ts) = parse_line(&line, idx + 1)? {
            let id = corpus.len() as u64;
            corpus.push(ts.identified(id));
        }
    }
    Ok(corpus)
}

/// Reads a UCR-format corpus from a file path.
pub fn read_ucr_file<P: AsRef<Path>>(path: P) -> Result<Vec<TimeSeries>, TsError> {
    let file = std::fs::File::open(path)?;
    read_ucr(std::io::BufReader::new(file))
}

/// Writes a corpus in UCR format (comma separated). Unlabeled series are
/// written with label `0`.
pub fn write_ucr<W: Write>(mut writer: W, corpus: &[TimeSeries]) -> Result<(), TsError> {
    for ts in corpus {
        write!(writer, "{}", ts.label().unwrap_or(0))?;
        for v in ts.values() {
            write!(writer, ",{v}")?;
        }
        writeln!(writer)?;
    }
    Ok(())
}

/// Writes a corpus to a file path in UCR format.
pub fn write_ucr_file<P: AsRef<Path>>(path: P, corpus: &[TimeSeries]) -> Result<(), TsError> {
    let file = std::fs::File::create(path)?;
    write_ucr(std::io::BufWriter::new(file), corpus)
}

/// Binary helpers of the index snapshot codec: the header checksum.
pub mod binio {
    /// FNV-1a 64-bit hash — the snapshot header checksum. Deterministic,
    /// dependency-free, and adequate for corruption detection (the
    /// snapshot trust model matches any database file: integrity, not
    /// authentication).
    pub fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comma_separated() {
        let corpus = read_ucr("1,0.5,0.7,0.9\n2,1.0,1.1,1.2\n".as_bytes()).unwrap();
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus[0].label(), Some(1));
        assert_eq!(corpus[0].values(), &[0.5, 0.7, 0.9]);
        assert_eq!(corpus[1].label(), Some(2));
        assert_eq!(corpus[0].id(), Some(0));
        assert_eq!(corpus[1].id(), Some(1));
    }

    #[test]
    fn parses_whitespace_separated_and_float_labels() {
        let corpus = read_ucr("1.0  0.5 0.7\n".as_bytes()).unwrap();
        assert_eq!(corpus[0].label(), Some(1));
        assert_eq!(corpus[0].values(), &[0.5, 0.7]);
    }

    #[test]
    fn skips_blank_lines() {
        let corpus = read_ucr("\n1,2.0\n\n2,3.0\n\n".as_bytes()).unwrap();
        assert_eq!(corpus.len(), 2);
    }

    #[test]
    fn rejects_bad_label() {
        let e = read_ucr("x,1.0\n".as_bytes()).unwrap_err();
        assert!(matches!(e, TsError::Parse { line: 1, .. }));
        let e = read_ucr("1.5,1.0\n".as_bytes()).unwrap_err();
        assert!(matches!(e, TsError::Parse { line: 1, .. }));
        let e = read_ucr("-2,1.0\n".as_bytes()).unwrap_err();
        assert!(matches!(e, TsError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_bad_sample_and_empty_series() {
        let e = read_ucr("1,abc\n".as_bytes()).unwrap_err();
        assert!(matches!(e, TsError::Parse { line: 1, .. }));
        let e = read_ucr("1\n".as_bytes()).unwrap_err();
        assert!(matches!(e, TsError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_nan_sample_with_line_number() {
        let e = read_ucr("1,2.0\n3,NaN\n".as_bytes()).unwrap_err();
        assert!(matches!(e, TsError::Parse { line: 2, .. }), "{e}");
    }

    #[test]
    fn write_read_round_trip() {
        let corpus = vec![
            TimeSeries::with_label(vec![1.0, 2.0], 3).unwrap(),
            TimeSeries::new(vec![0.25]).unwrap(),
        ];
        let mut buf = Vec::new();
        write_ucr(&mut buf, &corpus).unwrap();
        let back = read_ucr(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].label(), Some(3));
        assert_eq!(back[0].values(), corpus[0].values());
        // unlabeled series round-trips with label 0
        assert_eq!(back[1].label(), Some(0));
        assert_eq!(back[1].values(), corpus[1].values());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("sdtw_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.txt");
        let corpus = vec![TimeSeries::with_label(vec![5.0, 6.0, 7.0], 1).unwrap()];
        write_ucr_file(&path, &corpus).unwrap();
        let back = read_ucr_file(&path).unwrap();
        assert_eq!(back[0].values(), corpus[0].values());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let e = read_ucr_file("/nonexistent/sdtw/corpus.txt").unwrap_err();
        assert!(matches!(e, TsError::Io(_)));
    }

    #[test]
    fn fnv1a64_matches_known_vectors() {
        use super::binio::fnv1a64;
        // published FNV-1a test vectors
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        // and is sensitive to single-byte corruption
        assert_ne!(fnv1a64(b"foobar"), fnv1a64(b"foobas"));
    }
}
