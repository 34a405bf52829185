//! Reference results, computed without the engine, and the 64-bit record
//! digests every engine output is compared by.
//!
//! The references use only the standard library: wordcount is
//! `split_ascii_whitespace` + prefix filter + `HashMap`; selection splits
//! each row on `|`, filters on the quantity column and copies the projected
//! columns as text. Neither calls the engine, `vendor/memchr`, or the job
//! types' own map/reduce code.

use crate::gen::{fnv1a64_from, FNV_OFFSET};
use s3_engine::JobResult;
use std::collections::{BTreeMap, HashMap};

/// Order-dependent digest of an output relation, with its record count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub hash: u64,
    pub records: u64,
}

impl Digest {
    pub const EMPTY: Digest = Digest { hash: FNV_OFFSET, records: 0 };

    /// Fold one `(key, value)` record in; separators keep `("ab","c")` and
    /// `("a","bc")` apart.
    pub fn push(&mut self, key: &[u8], value: &[u8]) {
        let h = fnv1a64_from(self.hash, key);
        let h = fnv1a64_from(h, &[0x1f]);
        let h = fnv1a64_from(h, value);
        self.hash = fnv1a64_from(h, &[0x1e]);
        self.records += 1;
    }
}

/// Jobs whose results were checked, and how many were wrong: a mismatch, an
/// error or a refusal each count as one failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as usize;
    }
}

/// What the digest and the self-test need from an output value.
pub trait Value {
    fn with_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R;
    /// Minimal damage, for the corrupted-output self-test.
    fn corrupt(&mut self);
}

impl Value for i64 {
    fn with_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.to_le_bytes())
    }

    fn corrupt(&mut self) {
        *self ^= 1;
    }
}

impl Value for String {
    fn with_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(self.as_bytes())
    }

    fn corrupt(&mut self) {
        let last = self.pop().unwrap_or('0');
        self.push(if last == '0' { '1' } else { '0' });
    }
}

pub fn digest_records<V: Value>(records: &BTreeMap<String, V>) -> Digest {
    let mut d = Digest::EMPTY;
    for (k, v) in records {
        v.with_bytes(|b| d.push(k.as_bytes(), b));
    }
    d
}

/// Whether a job resolved to exactly the expected relation. An error or a
/// refusal is a failure like any mismatch. `corrupt` is the self-test: it
/// alters one record before comparing, so the check must then fail.
pub fn verify<V: Value>(result: JobResult<String, V>, expect: Digest, corrupt: bool) -> bool {
    let Ok(mut out) = result else {
        return false;
    };
    if corrupt {
        match out.records.values_mut().next() {
            Some(v) => v.corrupt(),
            None => return false,
        }
    }
    digest_records(&out.records) == expect
}

/// Expected digest of "count the words starting with `prefix`", for each
/// prefix, from one pass over the text.
pub fn wordcount(text: &[u8], prefixes: &[String]) -> Vec<Digest> {
    let text = std::str::from_utf8(text).expect("generated text is ASCII");
    let mut counts: HashMap<&str, i64> = HashMap::new();
    for w in text.split_ascii_whitespace() {
        *counts.entry(w).or_insert(0) += 1;
    }
    prefixes
        .iter()
        .map(|p| {
            let mut hits: Vec<(&str, i64)> = counts
                .iter()
                .filter(|(w, _)| w.starts_with(p.as_str()))
                .map(|(w, c)| (*w, *c))
                .collect();
            hits.sort_unstable();
            let mut d = Digest::EMPTY;
            for (w, c) in hits {
                d.push(w.as_bytes(), &c.to_le_bytes());
            }
            d
        })
        .collect()
}

/// Expected digest of `SELECT l_orderkey, l_extendedprice, l_discount
/// WHERE l_quantity > t`, for each threshold `t`. Rows carry ascending
/// unique order keys, so row order is key order.
pub fn selection(rows: &[u8], thresholds: &[u32]) -> Vec<Digest> {
    let rows = std::str::from_utf8(rows).expect("generated rows are ASCII");
    let mut digests = vec![Digest::EMPTY; thresholds.len()];
    let mut last_key = 0u64;
    for row in rows.lines() {
        let f: Vec<&str> = row.split('|').collect();
        let orderkey: u64 = f[0].parse().expect("order key");
        assert!(orderkey > last_key, "order keys must ascend for row order to be key order");
        last_key = orderkey;
        let quantity: u32 = f[4].parse().expect("quantity");
        let key = format!("{orderkey:012}");
        let value = format!("{}|{}|{}", f[0], f[5], f[6]);
        for (d, &t) in digests.iter_mut().zip(thresholds) {
            if quantity > t {
                d.push(key.as_bytes(), value.as_bytes());
            }
        }
    }
    digests
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use s3_engine::{run_job, BlockStore, ExecConfig};
    use s3_workloads::jobs::{PatternWordCount, SelectionJob};

    #[test]
    fn references_agree_with_the_engine_on_small_corpora() {
        let cfg = ExecConfig::try_new(2, 2).unwrap();
        let text = gen::text(3, 300_000);
        let store = BlockStore::from_bytes(&text, 16 * 1024);
        let prefixes = [gen::prefix(1), gen::prefix(7), "zz".to_string()];
        for (p, want) in prefixes.iter().zip(wordcount(&text, &prefixes)) {
            let out = run_job(&PatternWordCount::prefix(p.clone()), &store, &cfg);
            assert_eq!(digest_records(&out.records), want, "prefix {p}");
            assert!(verify(Ok(out), want, false));
        }
        let rows = gen::lineitem(3, 300_000);
        let store = BlockStore::from_bytes(&rows, 16 * 1024);
        for (t, want) in [5u32, 45].into_iter().zip(selection(&rows, &[5, 45])) {
            let out = run_job(&SelectionJob { quantity_threshold: t }, &store, &cfg);
            assert!(want.records > 0);
            assert_eq!(digest_records(&out.records), want, "threshold {t}");
        }
    }

    #[test]
    fn one_flipped_record_or_an_error_fails_verification() {
        let mut records = BTreeMap::new();
        records.insert("ta".to_string(), 5i64);
        records.insert("tane".to_string(), 2i64);
        let want = digest_records(&records);
        let out = |records: BTreeMap<String, i64>| s3_engine::JobOutput {
            records,
            stats: Default::default(),
        };
        assert!(verify(Ok(out(records.clone())), want, false));
        assert!(!verify(Ok(out(records.clone())), want, true));
        assert!(!verify::<i64>(Err(s3_engine::JobError::Aborted), want, false));
        records.remove("tane");
        assert!(!verify(Ok(out(records)), want, false));

        let mut rows = BTreeMap::new();
        rows.insert("000000000001".to_string(), "1|9.50|0.04".to_string());
        let want = digest_records(&rows);
        let out = s3_engine::JobOutput { records: rows, stats: Default::default() };
        assert!(!verify(Ok(out), want, true));
    }

    #[test]
    fn digest_separates_key_from_value() {
        let (mut a, mut b) = (Digest::EMPTY, Digest::EMPTY);
        a.push(b"ab", b"c");
        b.push(b"a", b"bc");
        assert_ne!(a, b);
    }
}
