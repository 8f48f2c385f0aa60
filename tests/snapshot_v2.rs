//! Binary snapshot wire-format ratchet, mirroring `trace_schema.rs`: the
//! columnar v2 encoding of a deterministic golden index is pinned to a
//! committed fixture byte-for-byte, and foreign format versions are
//! rejected with a clear error — the on-disk layout only changes
//! deliberately, together with this file and the fixture.
//!
//! The golden index is built from a seeded synthetic corpus with fixed
//! constants (ragged lengths, labels, ids — every column populated), so
//! regeneration is exact:
//!
//! ```text
//! cargo test --test snapshot_v2 -- --ignored regenerate_fixture
//! ```

use sdtw_suite::prelude::*;

/// The committed golden binary snapshot.
const FIXTURE: &[u8] = include_bytes!("fixtures/index_v2.bin");

/// A deterministic index exercising every column of the v2 layout:
/// ragged entry lengths (the `entry_lens`/`samples`/`coarse_*` splits),
/// labels and ids on some-but-not-all entries (both sentinel encodings),
/// and the default PAA width (coarse columns populated).
fn golden_index() -> SdtwIndex {
    let corpus: Vec<TimeSeries> = (0..7)
        .map(|k| {
            let len = 19 + 5 * k; // ragged, never a multiple of the width
            let values = (0..len)
                .map(|i| ((i as f64) / 5.5 + (k as f64) * 1.3).sin() + (k as f64) * 0.01)
                .collect();
            let mut s = TimeSeries::new(values).unwrap();
            if k % 2 == 0 {
                s = s.labeled(k as u32);
            }
            if k % 3 != 0 {
                s = s.identified(1000 + k as u64);
            }
            s
        })
        .collect();
    SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap()
}

#[test]
fn golden_snapshot_encodes_byte_for_byte() {
    let bytes = SnapshotCodec::encode(&golden_index(), SnapshotFormat::BinaryV2).unwrap();
    assert_eq!(
        bytes, FIXTURE,
        "binary layout drifted; if intentional, regenerate \
         tests/fixtures/index_v2.bin (see module docs) and bump the \
         snapshot format version"
    );
}

#[test]
fn golden_fixture_decodes_back_identically() {
    let index = golden_index();
    let parsed = SnapshotCodec::decode(FIXTURE).expect("fixture decodes");
    assert_eq!(parsed.entries(), index.entries());
    assert_eq!(parsed.config(), index.config());
    // and re-encoding the parsed index is a byte-for-byte fixed point
    let again = SnapshotCodec::encode(&parsed, SnapshotFormat::BinaryV2).unwrap();
    assert_eq!(again, FIXTURE);
}

#[test]
fn golden_fixture_answers_queries_identically_to_a_fresh_build() {
    let fresh = golden_index();
    let loaded = SnapshotCodec::decode(FIXTURE).unwrap();
    for (q, entry) in fresh.entries().iter().enumerate() {
        let a = fresh.query(&entry.series, 3).unwrap();
        let b = loaded.query(&entry.series, 3).unwrap();
        assert_eq!(a.neighbors, b.neighbors, "query {q}");
        assert_eq!(a.stats, b.stats, "query {q}");
    }
}

#[test]
fn foreign_format_versions_are_rejected() {
    // flip the version field (bytes 8..12, u32 LE) to a future version
    let mut foreign = FIXTURE.to_vec();
    foreign[8] = 3;
    let err = SnapshotCodec::decode(&foreign).unwrap_err().to_string();
    assert!(
        err.contains("version 3") && err.contains("reads version 2"),
        "err was: {err}"
    );
}

#[test]
fn corrupted_fixture_bytes_are_rejected() {
    // structural corruption (section table) trips the header checksum
    let mut corrupt = FIXTURE.to_vec();
    corrupt[40] ^= 0x01;
    assert!(SnapshotCodec::decode(&corrupt).is_err());
}

/// The section table of a binary v2 snapshot: 15 × (offset, len).
const TABLE: std::ops::Range<usize> = 36..36 + 15 * 16;

/// The sections holding the configuration and the cached features (JSON
/// blobs), the first and the last.
const CONFIG_SECTION: usize = 0;
const FEATURES_SECTION: usize = 14;

/// Section `section`'s payload within a binary v2 snapshot.
fn section(bytes: &[u8], section: usize) -> &[u8] {
    let read = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let at = TABLE.start + 16 * section;
    &bytes[read(at)..][..read(at + 8)]
}

/// Replaces section `section`'s payload of a binary v2 snapshot, moving
/// the later sections' absolute offsets and re-sealing the table
/// checksum, so the result is well-formed apart from that payload.
fn with_section(bytes: &[u8], section: usize, payload: &[u8]) -> Vec<u8> {
    let read = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let at = TABLE.start + 16 * section;
    let (offset, len) = (read(at) as usize, read(at + 8) as usize);
    let grown = payload.len() as u64;
    let mut out = bytes[..offset].to_vec();
    out[at + 8..at + 16].copy_from_slice(&grown.to_le_bytes());
    for later in TABLE.step_by(16).skip(section + 1) {
        let moved = read(later) - len as u64 + grown;
        out[later..later + 8].copy_from_slice(&moved.to_le_bytes());
    }
    let checksum = sdtw_suite::tseries::io::binio::fnv1a64(&out[TABLE]);
    out[28..36].copy_from_slice(&checksum.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&bytes[offset + len..]);
    out
}

#[test]
fn oversized_extraction_configs_are_refused_at_load() {
    let index = golden_index();
    let config_json = serde_json::to_string(index.config()).unwrap();
    let json =
        String::from_utf8(SnapshotCodec::encode(&index, SnapshotFormat::Json).unwrap()).unwrap();
    let binary = SnapshotCodec::encode(&index, SnapshotFormat::BinaryV2).unwrap();
    // the blob swap itself is sound: a longer, valid blob loads
    let wider = config_json.replace("\"samples_per_cell\":4", "\"samples_per_cell\":16");
    let loaded =
        SnapshotCodec::decode(&with_section(&binary, CONFIG_SECTION, wider.as_bytes())).unwrap();
    assert_eq!(loaded.config().sdtw.salient.descriptor.samples_per_cell, 16);
    assert_eq!(loaded.entries(), index.entries());
    // each value used to abort on allocation or hang the first extraction
    for (field, from, to) in [
        ("octaves", "\"octaves\":null", "\"octaves\":1099511627776"),
        (
            "levels_per_octave",
            "\"levels_per_octave\":2",
            "\"levels_per_octave\":50000000",
        ),
        (
            "base_sigma",
            "\"base_sigma\":1.6",
            "\"base_sigma\":1000000000000",
        ),
        ("bins", "\"bins\":64", "\"bins\":1099511627776"),
        (
            "samples_per_cell",
            "\"samples_per_cell\":4",
            "\"samples_per_cell\":4294967296",
        ),
    ] {
        assert_eq!(
            config_json.matches(from).count(),
            1,
            "{field}: {config_json}"
        );
        assert_eq!(json.matches(from).count(), 1, "{field}");
        let snapshots = [
            ("json", json.replace(from, to).into_bytes()),
            (
                "binary",
                with_section(
                    &binary,
                    CONFIG_SECTION,
                    config_json.replace(from, to).as_bytes(),
                ),
            ),
        ];
        for (format, bytes) in snapshots {
            match SnapshotCodec::decode_reader(bytes.as_slice()) {
                Err(TsError::InvalidParameter { name, .. }) => {
                    assert_eq!(name, field, "{format} snapshot")
                }
                Err(other) => panic!("{format} snapshot with {field}: {other}"),
                Ok(_) => panic!("{format} snapshot with {field} was accepted"),
            }
        }
    }
}

/// Replaces the value of the first `"key":` at or after `from` in a JSON
/// text (the value ends at the next `,`, `}` or `]` outside brackets).
fn replace_value(json: &str, from: usize, key: &str, value: &str) -> String {
    let start = from + json[from..].find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
    let mut depth = 0;
    let end = start
        + json[start..]
            .find(|c: char| {
                match c {
                    '[' | '{' => depth += 1,
                    ']' | '}' if depth > 0 => depth -= 1,
                    ',' | '}' | ']' if depth == 0 => return true,
                    _ => {}
                }
                false
            })
            .expect("value ends");
    format!("{}{value}{}", &json[..start], &json[end..])
}

#[test]
fn malformed_cached_features_are_refused_at_load() {
    let corpus: Vec<TimeSeries> = UcrAnalog::Gun
        .generate(5)
        .series
        .into_iter()
        .take(4)
        .collect();
    let index = SdtwIndex::build(&corpus, IndexConfig::sdtw_bands()).unwrap();
    assert!(index.entries().iter().all(|e| !e.features.is_empty()));
    let json =
        String::from_utf8(SnapshotCodec::encode(&index, SnapshotFormat::Json).unwrap()).unwrap();
    let binary = SnapshotCodec::encode(&index, SnapshotFormat::BinaryV2).unwrap();
    let features = std::str::from_utf8(section(&binary, FEATURES_SECTION))
        .unwrap()
        .to_string();
    // the payload swap itself is sound: the same features load and answer
    let same = SnapshotCodec::decode(&with_section(
        &binary,
        FEATURES_SECTION,
        features.as_bytes(),
    ))
    .unwrap();
    assert_eq!(same.entries(), index.entries());
    assert_eq!(
        same.query(&corpus[0], 2).unwrap().neighbors,
        index.query(&corpus[0], 2).unwrap().neighbors
    );
    // (key, replacement, words the error must name); the first of these
    // used to decode and then panic the first query
    let poisoned = format!("[0.5,1e999{}]", ",0.5".repeat(62));
    let cases = [
        ("scope_len", "1e999", "scope_len"),
        ("amplitude", "-1e999", "amplitude"),
        ("sigma", "0.0", "sigma"),
        ("sigma", "-1.5", "sigma"),
        ("sigma", "1e999", "sigma"),
        ("descriptor", "[0.5]", "64 bins"),
        ("descriptor", "[]", "64 bins"),
        ("descriptor", &poisoned, "descriptor value 1 is inf"),
    ];
    let first_feature = |text: &str| text.find("\"keypoint\":").expect("a cached feature");
    for (key, value, named) in cases {
        let snapshots = [
            (
                "json",
                replace_value(&json, first_feature(&json), key, value).into_bytes(),
            ),
            (
                "binary",
                with_section(
                    &binary,
                    FEATURES_SECTION,
                    replace_value(&features, first_feature(&features), key, value).as_bytes(),
                ),
            ),
        ];
        for (format, bytes) in snapshots {
            match SnapshotCodec::decode(&bytes) {
                Err(TsError::SnapshotDecode { context, .. }) => assert!(
                    context.contains("entry 0: cached feature 0") && context.contains(named),
                    "{format} snapshot with {key} = {value}: {context}"
                ),
                Err(other) => panic!("{format} snapshot with {key} = {value}: {other}"),
                Ok(_) => panic!("{format} snapshot with {key} = {value} was accepted"),
            }
        }
    }
}

/// Regenerates the committed fixture. Run explicitly (see module docs);
/// `golden_snapshot_encodes_byte_for_byte` then proves it is current.
#[test]
#[ignore = "writes tests/fixtures/index_v2.bin"]
fn regenerate_fixture() {
    let bytes = SnapshotCodec::encode(&golden_index(), SnapshotFormat::BinaryV2).unwrap();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/index_v2.bin");
    std::fs::write(path, bytes).unwrap();
}
