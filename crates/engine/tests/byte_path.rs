//! Satellite (a): the byte-slice scan path accepts arbitrary (non-UTF-8)
//! input end to end, while the `str` shim reports invalid sequences with a
//! typed error instead of panicking.

use s3_engine::{
    run_job, run_job_legacy, BlockStore, ExecConfig, MapReduceJob, ServerConfig, SharedScanServer,
};

/// Counts raw byte tokens without ever converting to `str`: keys are the
/// token bytes themselves, so invalid UTF-8 flows through untouched.
struct ByteTokenCount;

impl MapReduceJob for ByteTokenCount {
    type K = Vec<u8>;
    type V = i64;
    type Out = i64;

    fn map(&self, line: &str, emit: &mut dyn FnMut(Vec<u8>, i64)) {
        for w in line.split_whitespace() {
            emit(w.as_bytes().to_vec(), 1);
        }
    }

    fn map_bytes(&self, line: &[u8], emit: &mut dyn FnMut(Vec<u8>, i64)) {
        for w in memchr::tokens(line) {
            emit(w.to_vec(), 1);
        }
    }

    fn reduce(&self, _k: &Vec<u8>, v: &[i64]) -> Option<i64> {
        Some(v.iter().sum())
    }
}

/// A corpus whose middle block is not valid UTF-8 (lone continuation and
/// overlong-ish bytes around ordinary ASCII words).
fn invalid_utf8_store() -> BlockStore {
    BlockStore::from_byte_blocks(vec![
        b"alpha beta alpha\n".to_vec(),
        b"raw \xff\xfe bytes \x80mid\x80word\n".to_vec(),
        b"gamma \xf0\x28\x8c\x28 delta\n".to_vec(),
    ])
}

#[test]
fn block_str_reports_invalid_blocks_with_a_typed_error() {
    let s = invalid_utf8_store();
    assert!(s.block_str(0).is_ok());
    let err = s.block_str(1).unwrap_err();
    assert_eq!(err.block, 1);
    assert_eq!(err.valid_up_to, 4, "valid through \"raw \"");
    assert!(err.to_string().contains("not valid UTF-8"));
    // The byte view hands out the payload unmodified.
    assert_eq!(s.block(1), b"raw \xff\xfe bytes \x80mid\x80word\n");
}

#[test]
fn run_job_scans_invalid_utf8_byte_for_byte() {
    let s = invalid_utf8_store();
    let cfg = ExecConfig {
        num_threads: 2,
        num_reducers: 2,
    };
    let out = run_job(&ByteTokenCount, &s, &cfg);
    // Tokens with invalid bytes arrive intact — no replacement characters.
    assert_eq!(out.records[&b"\xff\xfe".to_vec()], 1);
    assert_eq!(out.records[&b"\x80mid\x80word".to_vec()], 1);
    assert_eq!(out.records[&b"\xf0\x28\x8c\x28".to_vec()], 1);
    assert_eq!(out.records[&b"alpha".to_vec()], 2);
    let total: i64 = out.records.values().sum();
    assert_eq!(total, 10, "every whitespace-delimited token counted");
    assert_eq!(out.stats.bytes_scanned as usize, s.total_bytes());
}

#[test]
fn the_reference_degrades_lossily_but_does_not_panic() {
    let s = invalid_utf8_store();
    let out = run_job_legacy(&ByteTokenCount, &s);
    // The reference lossily converts, so invalid sequences become U+FFFD
    // — but valid tokens are identical to the byte path and nothing panics.
    assert_eq!(out.records[&b"alpha".to_vec()], 2);
    assert_eq!(out.records[&b"gamma".to_vec()], 1);
    let total: i64 = out.records.values().sum();
    assert_eq!(total, 10);
    assert!(out
        .records
        .keys()
        .any(|k| String::from_utf8_lossy(k).contains('\u{FFFD}')));
}

#[test]
fn shared_scan_server_serves_invalid_utf8_stores() {
    let s = invalid_utf8_store();
    let reference = run_job(
        &ByteTokenCount,
        &s,
        &ExecConfig {
            num_threads: 1,
            num_reducers: 2,
        },
    );
    let server = SharedScanServer::with_config(s, ServerConfig::new(2, 2));
    let out = server.submit(ByteTokenCount).wait().expect("job completes");
    assert_eq!(out.records, reference.records);
    server.shutdown();
}

#[test]
fn from_bytes_round_trips_an_invalid_corpus() {
    let raw: Vec<u8> = (0u8..=255).cycle().take(4096).collect();
    let s = BlockStore::from_bytes(&raw, 512);
    // Line-aligned re-blocking preserves every payload byte (modulo the
    // normalized trailing newline); scanning it must not panic.
    let cfg = ExecConfig {
        num_threads: 4,
        num_reducers: 2,
    };
    let out = run_job(&ByteTokenCount, &s, &cfg);
    assert_eq!(out.stats.bytes_scanned as usize, s.total_bytes());
    assert!(out.records.values().all(|&c| c > 0));
}
