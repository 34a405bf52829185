//! Degenerate-configuration hardening: zero reducers and zero threads.
//!
//! Historically `ExecConfig { num_reducers: 0, .. }` reached the shuffle's
//! `hash % num_reducers` and died with an integer division-by-zero deep in
//! the reduce phase. The engine now clamps degenerate reducer counts to
//! one shard at every entry point, and [`ExecConfig::try_new`] is the
//! typed front door that reports the bad shape as a [`ConfigError`]
//! instead of ever constructing it.

use s3_engine::{run_job, BlockStore, ConfigError, ExecConfig, MapReduceJob};

/// Plain word count.
struct Count;

impl MapReduceJob for Count {
    type K = String;
    type V = i64;
    type Out = i64;
    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        for w in line.split_whitespace() {
            emit(w.to_string(), 1);
        }
    }
    fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
        Some(v.iter().sum())
    }
}

#[test]
fn try_new_rejects_zero_reducers() {
    assert_eq!(
        ExecConfig::try_new(2, 0).map(|_| ()),
        Err(ConfigError::ZeroReducers)
    );
    assert_eq!(
        ExecConfig::try_new(2, 0).unwrap_err().to_string(),
        "config needs at least one reducer"
    );
}

#[test]
fn try_new_rejects_zero_threads() {
    assert_eq!(
        ExecConfig::try_new(0, 4).map(|_| ()),
        Err(ConfigError::ZeroThreads)
    );
    // Both zero: the thread check fires first, but either way it's an Err.
    assert!(ExecConfig::try_new(0, 0).is_err());
}

#[test]
fn try_new_accepts_positive_shape() {
    let cfg = ExecConfig::try_new(3, 5).expect("valid shape");
    assert_eq!(cfg.num_threads, 3);
    assert_eq!(cfg.num_reducers, 5);
}

/// A hand-built zero-reducer config no longer divides by zero: every
/// entry point clamps to one shard and the output is exact.
#[test]
fn zero_reducers_clamps_to_one_shard() {
    let store = BlockStore::from_text("a b b c c c\n", 4);
    let reference = run_job(
        &Count,
        &store,
        &ExecConfig::try_new(2, 1).expect("valid shape"),
    );
    let cfg = ExecConfig {
        num_threads: 2,
        num_reducers: 0,
    };
    let out = run_job(&Count, &store, &cfg);
    assert_eq!(out.records, reference.records);
    assert_eq!(out.records.get("c"), Some(&3));
}
