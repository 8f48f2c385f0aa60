//! The index snapshot codec: a version-tagged binary layout that stores
//! the configuration and the corpus, nothing derived from them.
//!
//! # The binary layout (format version 3)
//!
//! A snapshot is a fixed header, a checksummed section table, and the
//! section payloads laid out contiguously in table order:
//!
//! ```text
//! bytes 0..8     magic  "SDTWIDX3"
//! bytes 8..12    format version, u32 LE (= 3)
//! bytes 12..20   entry count, u64 LE
//! bytes 20..28   section count, u64 LE (= 5)
//! bytes 28..36   header checksum, u64 LE — FNV-1a-64 of the table bytes
//! bytes 36..116  section table: 5 × (offset u64, len u64) LE
//! then           the payloads, ascending and gap-free:
//!                config_json  the IndexConfig as JSON text
//!                entry_lens   u64 per entry
//!                labels       u64 per entry (u64::MAX = no label)
//!                ids          (flag, value) u64 pair per entry
//!                samples      every stored series concatenated, f64 bits
//! ```
//!
//! The samples are the *stored* series, already z-normalised when the
//! index normalises. Loading decodes them and hands them to the same
//! per-entry derivation [`SdtwIndex::build`] runs after its optional
//! normalisation, so the envelopes, LB_Kim summaries, coarse PAA
//! envelopes and salient features of a loaded index are bit-identical
//! to a fresh build's by construction. A hostile file reaches only the
//! configuration blob (validated like any configuration) and the series
//! columns (every sample must be finite).
//!
//! The header checksum covers the section table, so corruption of the
//! structure (offsets, lengths) is caught before any column is read.
//! Each column's byte length must agree exactly with the entry count
//! and the `entry_lens` column, computed with checked arithmetic, and
//! columns are read incrementally, so a length field cannot make the
//! decoder reserve memory the payload does not back.
//!
//! Version 2 snapshots (which also stored the derived data) and JSON
//! trees are refused with an error naming their format; rebuild them
//! from the corpus with `sdtw index build`.

use crate::config::IndexConfig;
use crate::index::SdtwIndex;
use sdtw_tseries::io::binio;
use sdtw_tseries::{TimeSeries, TsError};
use std::io::Read;
use std::path::Path;

/// The 8-byte magic opening every binary snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SDTWIDX3";

/// The binary snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 3;

/// The label decode errors carry.
const FORMAT: &str = "binary-v3";

/// What a refused snapshot should be replaced with.
const REBUILD: &str = "rebuild it from its corpus with `sdtw index build`";

/// Number of sections, in table order.
const SECTION_COUNT: usize = 5;

/// Bytes before the first payload: the fixed header plus the table.
const HEADER_LEN: u64 = 36 + 16 * SECTION_COUNT as u64;

/// Section indices (table order = payload order).
const SEC_CONFIG_JSON: usize = 0;
const SEC_ENTRY_LENS: usize = 1;
const SEC_LABELS: usize = 2;
const SEC_IDS: usize = 3;
const SEC_SAMPLES: usize = 4;

/// Human-readable section names for decode errors.
const SECTION_NAMES: [&str; SECTION_COUNT] =
    ["config_json", "entry_lens", "labels", "ids", "samples"];

/// Sentinel in the `labels` column for a series without a label
/// (labels are `u32`, so `u64::MAX` is unambiguous).
const NO_LABEL: u64 = u64::MAX;

/// The on-disk representation of an index snapshot: the binary family,
/// of which this build reads and writes version [`SNAPSHOT_VERSION`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFormat {
    /// The binary layout described in the module docs (the variant keeps
    /// its name from version 2; it writes the current version).
    BinaryV2,
}

/// Convenience for decode errors carrying a byte offset.
fn bin_err(offset: u64, context: impl Into<String>) -> TsError {
    TsError::SnapshotDecode {
        format: FORMAT,
        offset: Some(offset),
        context: context.into(),
    }
}

/// A reader that tracks how many bytes it has yielded, so every decode
/// error can name the byte offset it happened at.
struct CountingReader<R> {
    inner: R,
    pos: u64,
}

impl<R: Read> CountingReader<R> {
    fn new(inner: R) -> Self {
        Self { inner, pos: 0 }
    }

    fn read_exact(&mut self, buf: &mut [u8], what: &str) -> Result<(), TsError> {
        let at = self.pos;
        self.inner
            .read_exact(buf)
            .map_err(|e| bin_err(at, format!("reading {what}: {e}")))?;
        self.pos += buf.len() as u64;
        Ok(())
    }

    fn read_u32(&mut self, what: &str) -> Result<u32, TsError> {
        let mut buf = [0u8; 4];
        self.read_exact(&mut buf, what)?;
        Ok(u32::from_le_bytes(buf))
    }

    fn read_u64(&mut self, what: &str) -> Result<u64, TsError> {
        let mut buf = [0u8; 8];
        self.read_exact(&mut buf, what)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads `len` little-endian words, growing the column as the bytes
    /// arrive instead of reserving `len` up front.
    fn read_words(&mut self, len: usize, what: &str) -> Result<Vec<u64>, TsError> {
        const CHUNK: usize = 1024;
        let mut out = Vec::new();
        let mut buf = [0u8; 8 * CHUNK];
        let mut left = len;
        while left > 0 {
            let take = left.min(CHUNK);
            self.read_exact(&mut buf[..8 * take], what)?;
            out.extend(
                buf[..8 * take]
                    .chunks_exact(8)
                    .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk"))),
            );
            left -= take;
        }
        Ok(out)
    }
}

/// The snapshot codec seam: every consumer (CLI, serve daemon, tests)
/// encodes and decodes indexes through these associated functions.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotCodec;

impl SnapshotCodec {
    /// Serialises an index: its configuration and stored series.
    ///
    /// # Errors
    ///
    /// Serialisation failures of the configuration blob.
    pub fn encode(index: &SdtwIndex, format: SnapshotFormat) -> Result<Vec<u8>, TsError> {
        let SnapshotFormat::BinaryV2 = format;
        encode_binary(index)
    }

    /// Decodes a snapshot and rebuilds the index's derived data from the
    /// stored series.
    ///
    /// # Errors
    ///
    /// [`TsError::SnapshotDecode`] naming the byte offset and the failing
    /// field (a version 2 or JSON-tree snapshot among them), and the
    /// configuration's validation errors.
    pub fn decode(bytes: &[u8]) -> Result<SdtwIndex, TsError> {
        decode_binary(CountingReader::new(bytes))
    }

    /// Decodes a snapshot from a reader, consuming the header, table and
    /// columns sequentially.
    ///
    /// # Errors
    ///
    /// As [`SnapshotCodec::decode`], with I/O errors surfaced as decode
    /// errors at the failing byte offset.
    pub fn decode_reader<R: Read>(reader: R) -> Result<SdtwIndex, TsError> {
        decode_binary(CountingReader::new(reader))
    }

    /// Writes an index snapshot to a file.
    ///
    /// # Errors
    ///
    /// Encoding or I/O failures.
    pub fn write_file<P: AsRef<Path>>(
        index: &SdtwIndex,
        path: P,
        format: SnapshotFormat,
    ) -> Result<(), TsError> {
        let bytes = Self::encode(index, format)?;
        std::fs::write(path, bytes)?;
        Ok(())
    }

    /// Loads an index snapshot from a file.
    ///
    /// # Errors
    ///
    /// I/O and decode failures.
    pub fn read_file<P: AsRef<Path>>(path: P) -> Result<SdtwIndex, TsError> {
        let file = std::fs::File::open(path)?;
        Self::decode_reader(std::io::BufReader::new(file))
    }
}

/// Assembles the binary byte image of an index.
fn encode_binary(index: &SdtwIndex) -> Result<Vec<u8>, TsError> {
    let entries = index.entries();
    let config_json =
        serde_json::to_string(index.config()).map_err(|e| TsError::SnapshotDecode {
            format: FORMAT,
            offset: None,
            context: format!("serialising config: {e}"),
        })?;
    let mut payloads: [Vec<u8>; SECTION_COUNT] = Default::default();
    payloads[SEC_CONFIG_JSON] = config_json.into_bytes();
    for e in entries {
        let s = &e.series;
        let (flag, id) = s.id().map_or((0, 0), |id| (1, id));
        let words = [
            (SEC_ENTRY_LENS, s.len() as u64),
            (SEC_LABELS, s.label().map_or(NO_LABEL, u64::from)),
            (SEC_IDS, flag),
            (SEC_IDS, id),
        ];
        for (sec, word) in words {
            payloads[sec].extend_from_slice(&word.to_le_bytes());
        }
        for v in s.values() {
            payloads[SEC_SAMPLES].extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    let mut table = Vec::with_capacity(SECTION_COUNT * 16);
    let mut offset = HEADER_LEN;
    for payload in &payloads {
        table.extend_from_slice(&offset.to_le_bytes());
        table.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        offset += payload.len() as u64;
    }
    let mut out = Vec::with_capacity(offset as usize);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    out.extend_from_slice(&(SECTION_COUNT as u64).to_le_bytes());
    out.extend_from_slice(&binio::fnv1a64(&table).to_le_bytes());
    out.extend_from_slice(&table);
    for payload in &payloads {
        out.extend_from_slice(payload);
    }
    Ok(out)
}

/// Refuses anything but a version-3 header: a JSON tree, an older or
/// newer binary version, or bytes of no snapshot format at all.
fn check_magic<R: Read>(r: &mut CountingReader<R>) -> Result<(), TsError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic, "magic")?;
    if magic.iter().find(|b| !b.is_ascii_whitespace()) == Some(&b'{') {
        return Err(bin_err(
            0,
            format!("a JSON-tree index snapshot, a format this build no longer reads; {REBUILD}"),
        ));
    }
    if magic[..7] != SNAPSHOT_MAGIC[..7] {
        return Err(bin_err(
            0,
            format!(
                "bad magic {:?} — not an sDTW index snapshot",
                String::from_utf8_lossy(&magic)
            ),
        ));
    }
    let version = r.read_u32("format version")?;
    if version != SNAPSHOT_VERSION {
        return Err(bin_err(
            8,
            format!(
                "unsupported index snapshot format version {version} \
                 (this build reads version {SNAPSHOT_VERSION}); {REBUILD}"
            ),
        ));
    }
    if magic != SNAPSHOT_MAGIC {
        return Err(bin_err(
            0,
            format!(
                "bad magic {:?} for format version {SNAPSHOT_VERSION}",
                String::from_utf8_lossy(&magic)
            ),
        ));
    }
    Ok(())
}

/// Reads the header and the section table: each section's
/// `(offset, len)`, checked against the checksum and for a contiguous,
/// ascending layout.
fn read_table<R: Read>(
    r: &mut CountingReader<R>,
) -> Result<(u64, [(u64, u64); SECTION_COUNT]), TsError> {
    check_magic(r)?;
    let entry_count = r.read_u64("entry count")?;
    let section_count = r.read_u64("section count")?;
    if section_count != SECTION_COUNT as u64 {
        return Err(bin_err(
            20,
            format!("expected {SECTION_COUNT} sections, header says {section_count}"),
        ));
    }
    let checksum = r.read_u64("header checksum")?;
    let mut table = [0u8; SECTION_COUNT * 16];
    r.read_exact(&mut table, "section table")?;
    let actual = binio::fnv1a64(&table);
    if actual != checksum {
        return Err(bin_err(
            28,
            format!(
                "header checksum mismatch (stored {checksum:#018x}, \
                 computed {actual:#018x}) — snapshot is corrupt"
            ),
        ));
    }
    let word = |at: usize| u64::from_le_bytes(table[at..at + 8].try_into().expect("8 bytes"));
    let mut sections = [(0u64, 0u64); SECTION_COUNT];
    let mut expected_offset = HEADER_LEN;
    for (i, section) in sections.iter_mut().enumerate() {
        let (offset, len) = (word(16 * i), word(16 * i + 8));
        if offset != expected_offset {
            return Err(bin_err(
                36,
                format!(
                    "section {i} ({}) starts at {offset}, expected {expected_offset} \
                     (sections must be contiguous and ascending)",
                    SECTION_NAMES[i]
                ),
            ));
        }
        expected_offset = offset.checked_add(len).ok_or_else(|| {
            bin_err(
                36,
                format!("section {i} ({}) length overflows", SECTION_NAMES[i]),
            )
        })?;
        *section = (offset, len);
    }
    Ok((entry_count, sections))
}

/// Streams the binary layout from a reader and rebuilds the index from
/// the stored series.
fn decode_binary<R: Read>(mut r: CountingReader<R>) -> Result<SdtwIndex, TsError> {
    let (entry_count, sections) = read_table(&mut r)?;
    // a column's byte length must be exactly what the entry count (or
    // the entry_lens total) implies; `None` is an overflowing product.
    // Returns the column's length in 8-byte words.
    let column_words = |sec: usize, count: u64, width: u64| -> Result<usize, TsError> {
        let (offset, got) = sections[sec];
        match count.checked_mul(width) {
            Some(want) if want == got => usize::try_from(want / 8)
                .map_err(|_| bin_err(offset, format!("{count} values overflow this target"))),
            want => Err(bin_err(
                offset,
                format!(
                    "section `{}` holds {got} bytes but {count} values of {width} bytes \
                     imply {} — column lengths disagree",
                    SECTION_NAMES[sec],
                    want.map_or("more than 2^64".to_string(), |w| w.to_string()),
                ),
            )),
        }
    };

    // ---- configuration ---------------------------------------------------
    let (config_at, config_len) = sections[SEC_CONFIG_JSON];
    let mut config_bytes = Vec::new();
    (&mut r.inner)
        .take(config_len)
        .read_to_end(&mut config_bytes)
        .map_err(|e| bin_err(config_at, format!("reading config_json section: {e}")))?;
    if config_bytes.len() as u64 != config_len {
        return Err(bin_err(
            config_at + config_bytes.len() as u64,
            "reading config_json section: unexpected end of input",
        ));
    }
    r.pos += config_len;
    let config_text = std::str::from_utf8(&config_bytes).map_err(|e| {
        bin_err(
            config_at + e.valid_up_to() as u64,
            "config blob is not UTF-8",
        )
    })?;
    let config: IndexConfig = serde_json::from_str(config_text)
        .map_err(|e| bin_err(config_at, format!("decoding config: {e}")))?;

    // ---- the corpus columns ----------------------------------------------
    let n = column_words(SEC_ENTRY_LENS, entry_count, 8)?;
    let lens = r.read_words(n, "entry_lens column")?;
    let mut total = 0u64;
    for (i, &len) in lens.iter().enumerate() {
        let at = sections[SEC_ENTRY_LENS].0 + 8 * i as u64;
        if len == 0 {
            return Err(bin_err(at, format!("entry {i} has length 0")));
        }
        total = total
            .checked_add(len)
            .ok_or_else(|| bin_err(at, "total sample count overflows"))?;
    }
    let labels = r.read_words(column_words(SEC_LABELS, entry_count, 8)?, "labels column")?;
    let ids = r.read_words(column_words(SEC_IDS, entry_count, 16)?, "ids column")?;
    let samples = r.read_words(column_words(SEC_SAMPLES, total, 8)?, "samples column")?;

    let mut corpus = Vec::with_capacity(n);
    let mut at = 0usize;
    for (i, &len) in lens.iter().enumerate() {
        // every length fits: they sum to the column's usize length
        let len = len as usize;
        let values = samples[at..at + len]
            .iter()
            .map(|&bits| f64::from_bits(bits))
            .collect();
        let mut series = TimeSeries::new(values).map_err(|e| {
            bin_err(
                sections[SEC_SAMPLES].0 + 8 * at as u64,
                format!("entry {i}: {e}"),
            )
        })?;
        if labels[i] != NO_LABEL {
            let label = u32::try_from(labels[i]).map_err(|_| {
                bin_err(
                    sections[SEC_LABELS].0 + 8 * i as u64,
                    format!("entry {i}: label {} overflows u32", labels[i]),
                )
            })?;
            series = series.labeled(label);
        }
        if ids[2 * i] != 0 {
            series = series.identified(ids[2 * i + 1]);
        }
        corpus.push(series);
        at += len;
    }
    SdtwIndex::from_stored(config, corpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(n_entries: usize, len: usize) -> Vec<TimeSeries> {
        (0..n_entries)
            .map(|k| {
                TimeSeries::new(
                    (0..len)
                        .map(|i| ((i as f64) / 7.0 + k as f64 * 0.9).sin())
                        .collect(),
                )
                .unwrap()
                .labeled((k % 3) as u32)
                .identified(k as u64)
            })
            .collect()
    }

    fn encode(index: &SdtwIndex) -> Vec<u8> {
        SnapshotCodec::encode(index, SnapshotFormat::BinaryV2).unwrap()
    }

    #[test]
    fn binary_round_trip_preserves_every_artefact() {
        let index = SdtwIndex::build(&corpus(9, 41), IndexConfig::exact_banded(0.2)).unwrap();
        let bytes = encode(&index);
        assert_eq!(&bytes[..8], &SNAPSHOT_MAGIC);
        let back = SnapshotCodec::decode(&bytes).unwrap();
        assert_eq!(back.entries(), index.entries());
        assert_eq!(back.config(), index.config());
        // and the re-encoding is a byte-for-byte fixed point
        assert_eq!(bytes, encode(&back));
    }

    #[test]
    fn streamed_decode_matches_buffered_decode() {
        let index = SdtwIndex::build(&corpus(5, 27), IndexConfig::exact_banded(0.15)).unwrap();
        let bytes = encode(&index);
        let streamed = SnapshotCodec::decode_reader(bytes.as_slice()).unwrap();
        assert_eq!(streamed.entries(), index.entries());
    }

    #[test]
    fn corrupted_table_is_caught_by_the_checksum() {
        let index = SdtwIndex::build(&corpus(4, 20), IndexConfig::exact_banded(0.2)).unwrap();
        let mut bytes = encode(&index);
        bytes[40] ^= 0xff; // inside the section table
        let err = SnapshotCodec::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "got: {err}");
    }

    #[test]
    fn truncated_snapshot_reports_the_failing_offset() {
        let index = SdtwIndex::build(&corpus(4, 20), IndexConfig::exact_banded(0.2)).unwrap();
        let bytes = encode(&index);
        for cut in [4, 30, bytes.len() / 2, bytes.len() - 1] {
            let err = SnapshotCodec::decode_reader(&bytes[..cut]).unwrap_err();
            match err {
                TsError::SnapshotDecode { format, offset, .. } => {
                    assert_eq!(format, FORMAT);
                    assert!(offset.is_some());
                }
                other => panic!("expected SnapshotDecode, got {other}"),
            }
        }
    }

    #[test]
    fn column_length_disagreement_is_rejected_by_name() {
        let index = SdtwIndex::build(&corpus(4, 20), IndexConfig::exact_banded(0.2)).unwrap();
        let mut bytes = encode(&index);
        // lower the entry count without touching the (checksummed) table:
        // columns now hold more bytes than the count implies
        bytes[12] -= 1;
        let err = SnapshotCodec::decode(&bytes).unwrap_err().to_string();
        assert!(
            err.contains("`entry_lens`") && err.contains("disagree"),
            "got: {err}"
        );
        // a count whose byte length overflows is refused the same way
        bytes[12..20].copy_from_slice(&(u64::MAX / 4).to_le_bytes());
        let err = SnapshotCodec::decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("more than 2^64"), "got: {err}");
    }

    #[test]
    fn other_formats_are_refused_by_name() {
        let err = SnapshotCodec::decode(b"PK\x03\x04zipfile").unwrap_err();
        assert!(
            err.to_string().contains("not an sDTW index snapshot"),
            "{err}"
        );
        let err = SnapshotCodec::decode(b"  {\"config\":{},\"entries\":[]}").unwrap_err();
        assert!(
            err.to_string().contains("JSON-tree") && err.to_string().contains("rebuild"),
            "{err}"
        );
    }
}
