//! Property-based tests of the real engine: merged-scan equivalence and
//! configuration independence under randomized inputs.

use proptest::prelude::*;
use s3_engine::{run_job, run_merged, BlockStore, ExecConfig, MapReduceJob};

/// Counts words with a given prefix (combiner on).
struct Prefix(String);

impl MapReduceJob for Prefix {
    type K = String;
    type V = i64;
    type Out = i64;
    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        for w in line.split_whitespace() {
            if w.starts_with(&self.0) {
                emit(w.to_string(), 1);
            }
        }
    }
    fn combine(&self, _k: &String, v: Vec<i64>) -> Vec<i64> {
        vec![v.iter().sum()]
    }
    fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
        Some(v.iter().sum())
    }
}

/// A word strategy over a tiny alphabet so prefixes collide often.
fn word() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(vec!['a', 'b', 'c']), 1..5)
        .prop_map(|cs| cs.into_iter().collect())
}

fn corpus() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::collection::vec(word(), 1..12), 1..60)
        .prop_map(|lines| {
            lines
                .into_iter()
                .map(|ws| ws.join(" "))
                .collect::<Vec<_>>()
                .join("\n")
                + "\n"
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any corpus, block size, and set of prefixes: the merged run
    /// equals the independent runs, record for record.
    #[test]
    fn merged_equals_independent(
        text in corpus(),
        block_bytes in 8usize..256,
        prefixes in prop::collection::vec(word(), 1..6),
        threads in 1usize..5,
        reducers in 1usize..9,
    ) {
        let store = BlockStore::from_text(&text, block_bytes);
        let jobs: Vec<Prefix> = prefixes.into_iter().map(Prefix).collect();
        let refs: Vec<&Prefix> = jobs.iter().collect();
        let cfg = ExecConfig { num_threads: threads, num_reducers: reducers };
        let merged = run_merged(&refs, &store, &cfg);
        for (job, m) in jobs.iter().zip(&merged) {
            let solo = run_job(job, &store, &cfg);
            prop_assert_eq!(&m.records, &solo.records, "prefix {:?}", job.0);
            prop_assert_eq!(m.stats.map_output_records, solo.stats.map_output_records);
        }
    }

    /// The total count over all words equals the corpus token count,
    /// independent of blocking and parallelism.
    #[test]
    fn counts_are_conserved(
        text in corpus(),
        block_bytes in 8usize..256,
        threads in 1usize..5,
        reducers in 1usize..9,
    ) {
        let store = BlockStore::from_text(&text, block_bytes);
        let cfg = ExecConfig { num_threads: threads, num_reducers: reducers };
        let out = run_job(&Prefix(String::new()), &store, &cfg);
        let counted: i64 = out.records.values().sum();
        let expected = text.split_whitespace().count() as i64;
        prop_assert_eq!(counted, expected);
        prop_assert_eq!(out.stats.bytes_scanned as usize, text.len());
    }

    /// Blocking at any size preserves the corpus byte-for-byte.
    #[test]
    fn block_store_preserves_text(text in corpus(), block_bytes in 1usize..512) {
        let store = BlockStore::from_text(&text, block_bytes);
        let rejoined: Vec<u8> = store.iter().flatten().copied().collect();
        prop_assert_eq!(rejoined, text.into_bytes());
    }

    /// A prefix job's output is always a sub-multiset of the catch-all
    /// job's output.
    #[test]
    fn filtered_output_is_contained(text in corpus(), p in word()) {
        let store = BlockStore::from_text(&text, 64);
        let cfg = ExecConfig { num_threads: 2, num_reducers: 3 };
        let all = run_job(&Prefix(String::new()), &store, &cfg);
        let filtered = run_job(&Prefix(p), &store, &cfg);
        for (k, v) in &filtered.records {
            prop_assert_eq!(all.records.get(k), Some(v));
        }
        prop_assert!(filtered.stats.map_output_records <= all.stats.map_output_records);
    }
}
