//! Binary snapshot wire-format ratchet, mirroring `trace_schema.rs`: the
//! encoding of a deterministic golden index is pinned to a committed
//! fixture byte-for-byte, foreign format versions are rejected with a
//! clear error, and no single-byte corruption of the fixture panics the
//! loader — the on-disk layout only changes deliberately, together with
//! this file and the fixture. (The file keeps the name it had under
//! format version 2; it pins the current version, 3.)
//!
//! The golden index is a z-normalised sDTW-band index built from a
//! seeded synthetic corpus with fixed constants (ragged lengths, labels
//! and ids on some entries — every column populated, and salient
//! features extracted on load), so regeneration is exact:
//!
//! ```text
//! cargo test --test snapshot_v2 -- --ignored regenerate_fixture
//! ```

use sdtw_suite::prelude::*;

/// The committed golden binary snapshot.
const FIXTURE: &[u8] = include_bytes!("fixtures/index_v3.bin");

/// The golden corpus: ragged entry lengths (the `entry_lens`/`samples`
/// splits), labels and ids on some-but-not-all entries (both sentinel
/// encodings; entry 3 has neither). Kept small so the byte-flip sweep
/// stays quick in debug builds.
fn golden_corpus() -> Vec<TimeSeries> {
    (0..4)
        .map(|k| {
            let len = 25 + 5 * k; // ragged, never a multiple of the PAA width
            let values = (0..len)
                .map(|i| {
                    let t = i as f64;
                    (t / 3.5 + (k as f64) * 1.3).sin() + 2.0 * (-(t - 14.0).powi(2) / 8.0).exp()
                })
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
        .collect()
}

/// A z-normalised sDTW-band index with the default PAA width.
fn golden_index() -> SdtwIndex {
    let config = IndexConfig {
        z_normalize: true,
        ..IndexConfig::sdtw_bands()
    };
    SdtwIndex::build(&golden_corpus(), config).unwrap()
}

fn encode(index: &SdtwIndex) -> Vec<u8> {
    SnapshotCodec::encode(index, SnapshotFormat::BinaryV2).unwrap()
}

#[test]
fn golden_snapshot_encodes_byte_for_byte() {
    let index = golden_index();
    assert!(
        index.entries().iter().all(|e| !e.features.is_empty()),
        "every golden entry carries salient features"
    );
    assert_eq!(
        encode(&index),
        FIXTURE,
        "binary layout drifted; if intentional, regenerate \
         tests/fixtures/index_v3.bin (see module docs) and bump the \
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
    assert_eq!(encode(&parsed), FIXTURE);
}

#[test]
fn golden_fixture_answers_queries_identically_to_a_fresh_build() {
    let fresh = golden_index();
    let loaded = SnapshotCodec::decode(FIXTURE).unwrap();
    let mut scratch = DtwScratch::new();
    for (q, query) in golden_corpus().iter().enumerate() {
        let a = fresh.query_with_scratch(query, 3, &mut scratch).unwrap();
        let b = loaded.query_with_scratch(query, 3, &mut scratch).unwrap();
        assert_eq!(a.neighbors, b.neighbors, "query {q}");
        assert_eq!(a.stats, b.stats, "query {q}");
    }
}

#[test]
fn foreign_format_versions_are_rejected() {
    // a future version in the version field (bytes 8..12, u32 LE)
    let mut foreign = FIXTURE.to_vec();
    foreign[8] = 4;
    let err = SnapshotCodec::decode(&foreign).unwrap_err().to_string();
    assert!(
        err.contains("version 4") && err.contains("reads version 3"),
        "err was: {err}"
    );
    // a version 2 header, which also stored the derived data
    let mut v2 = b"SDTWIDX2".to_vec();
    v2.extend_from_slice(&2u32.to_le_bytes());
    v2.extend_from_slice(&7u64.to_le_bytes());
    v2.extend_from_slice(&15u64.to_le_bytes());
    v2.resize(276, 0);
    let err = SnapshotCodec::decode_reader(v2.as_slice())
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("version 2")
            && err.contains("reads version 3")
            && err.contains("sdtw index build"),
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

#[test]
fn every_single_byte_flip_is_refused_or_answers() {
    // a flipped bit anywhere in the file must come back as an error or
    // as an index that answers a query; it used to panic the decoder
    // ("capacity overflow") when it hit the entry count or the top byte
    // of an entry length
    let query = &golden_corpus()[1];
    let mut scratch = DtwScratch::new();
    let mut refused = 0;
    for at in 0..FIXTURE.len() {
        for mask in [0x01, 0x80] {
            let mut bytes = FIXTURE.to_vec();
            bytes[at] ^= mask;
            match SnapshotCodec::decode(&bytes) {
                Err(_) => refused += 1,
                Ok(index) => {
                    let got = index.query_with_scratch(query, 2, &mut scratch);
                    assert!(got.is_ok(), "byte {at} ^ {mask:#04x}: {got:?}");
                }
            }
        }
    }
    assert!(refused > 0);
}

/// The section table of a binary snapshot: 5 × (offset, len).
const TABLE: std::ops::Range<usize> = 36..36 + 5 * 16;

/// The section holding the configuration (a JSON blob), the first.
const CONFIG_SECTION: usize = 0;

/// Replaces section `section`'s payload of a binary snapshot, moving
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
    let binary = encode(&index);
    // the blob swap itself is sound: a longer, valid blob loads
    let wider = config_json.replace("\"samples_per_cell\":4", "\"samples_per_cell\":16");
    let loaded =
        SnapshotCodec::decode(&with_section(&binary, CONFIG_SECTION, wider.as_bytes())).unwrap();
    assert_eq!(loaded.config().sdtw.salient.descriptor.samples_per_cell, 16);
    assert_eq!(
        loaded.entries()[0].series,
        index.entries()[0].series,
        "the stored series load unchanged"
    );
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
        let bytes = with_section(
            &binary,
            CONFIG_SECTION,
            config_json.replace(from, to).as_bytes(),
        );
        match SnapshotCodec::decode_reader(bytes.as_slice()) {
            Err(TsError::InvalidParameter { name, .. }) => assert_eq!(name, field),
            Err(other) => panic!("snapshot with {field}: {other}"),
            Ok(_) => panic!("snapshot with {field} was accepted"),
        }
    }
}

/// The golden snapshot with its configuration blob as builds that still
/// had a step pattern and a normalisation option wrote it: those two
/// keys, holding `step_pattern` and `normalization`, in the DP options.
fn with_legacy_cost_model(step_pattern: &str, normalization: &str) -> Vec<u8> {
    let index = golden_index();
    let config_json = serde_json::to_string(index.config()).unwrap();
    let current = "\"compute_path\":false,";
    assert_eq!(config_json.matches(current).count(), 1, "{config_json}");
    let legacy = config_json.replace(
        current,
        &format!(
            "{current}\"step_pattern\":\"{step_pattern}\",\"normalization\":\"{normalization}\","
        ),
    );
    with_section(&encode(&index), CONFIG_SECTION, legacy.as_bytes())
}

#[test]
fn legacy_cost_model_keys_load_and_answer_like_a_fresh_build() {
    let fresh = golden_index();
    let loaded = SnapshotCodec::decode(&with_legacy_cost_model("Symmetric1", "None")).unwrap();
    assert_eq!(loaded.config(), fresh.config());
    assert_eq!(loaded.entries(), fresh.entries());
    let mut scratch = DtwScratch::new();
    for (q, query) in golden_corpus().iter().enumerate() {
        let a = fresh.query_with_scratch(query, 3, &mut scratch).unwrap();
        let b = loaded.query_with_scratch(query, 3, &mut scratch).unwrap();
        assert_eq!(a.neighbors, b.neighbors, "query {q}");
        assert_eq!(a.stats, b.stats, "query {q}");
    }
    // the loaded index writes the current blob, without the two keys
    assert_eq!(encode(&loaded), FIXTURE);
}

#[test]
fn removed_cost_models_are_refused_by_field() {
    for (field, bytes) in [
        ("step_pattern", with_legacy_cost_model("Symmetric2", "None")),
        (
            "normalization",
            with_legacy_cost_model("Symmetric1", "LengthSum"),
        ),
    ] {
        let err = SnapshotCodec::decode_reader(bytes.as_slice())
            .unwrap_err()
            .to_string();
        assert!(
            err.contains(&format!("`{field}`")) && err.contains("rebuild"),
            "{field}: {err}"
        );
    }
}

/// Regenerates the committed fixture. Run explicitly (see module docs);
/// `golden_snapshot_encodes_byte_for_byte` then proves it is current.
#[test]
#[ignore = "writes tests/fixtures/index_v3.bin"]
fn regenerate_fixture() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/index_v3.bin");
    std::fs::write(path, encode(&golden_index())).unwrap();
}
