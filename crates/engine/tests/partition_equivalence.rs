//! Property-based proof that skew-aware weighted partitioning is a pure
//! scheduling change: for any corpus, any thread count and any split
//! factor, [`PartitionMode::Weighted`] produces output record-identical to
//! [`PartitionMode::Hash`] and to the sequential reference — same keys,
//! same values, same stats. Only the shard boundaries (and therefore tail
//! latency) move.

use proptest::prelude::*;
use s3_engine::{
    run_job, run_job_legacy, run_merged, run_merged_legacy, BlockStore, ExecConfig, MapReduceJob,
    PartitionMode,
};

/// Prefix wordcount with the fold-combiner and per-token map fast paths
/// switchable per instance, so one batch covers all three accumulator
/// shapes the sketch observes (fold arenas, token arenas, buffered).
struct FlexPrefix {
    prefix: String,
    fold: bool,
    token: bool,
}

impl MapReduceJob for FlexPrefix {
    type K = String;
    type V = i64;
    type Out = i64;
    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        for w in line.split_whitespace() {
            if w.starts_with(&self.prefix) {
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
    fn combine_is_fold(&self) -> bool {
        self.fold
    }
    fn combine_fold(&self, acc: &mut i64, next: i64) {
        *acc += next;
    }
    fn map_is_per_token(&self) -> bool {
        self.token
    }
    fn map_token(&self, token: &str, emit: &mut dyn FnMut(String, i64)) {
        if token.starts_with(&self.prefix) {
            emit(token.to_string(), 1);
        }
    }
}

/// A word strategy over a tiny alphabet so prefixes collide often and a
/// handful of head keys dominate — miniature Zipf, which is exactly the
/// regime weighted partitioning reshapes.
fn word() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(vec!['a', 'b', 'c']), 1..5)
        .prop_map(|cs| cs.into_iter().collect())
}

fn corpus() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::collection::vec(word(), 1..12), 1..60).prop_map(|lines| {
        lines
            .into_iter()
            .map(|ws| ws.join(" "))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n"
    })
}

/// The fixed thread grid from the issue: solo (private claim counter),
/// moderate, and oversubscribed relative to the test corpus.
const THREADS: [usize; 3] = [1, 4, 8];

fn cfg(threads: usize, reducers: usize, partition: PartitionMode) -> ExecConfig {
    ExecConfig {
        num_threads: threads,
        num_reducers: reducers,
        partition,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Weighted ≡ hash ≡ reference for solo jobs across the thread grid,
    /// over all accumulator shapes.
    #[test]
    fn weighted_equals_hash_solo(
        text in corpus(),
        block_bytes in 8usize..256,
        prefix in word(),
        flags in 0u32..4,
        reducers in 1usize..9,
        split_x1000 in prop::sample::select(vec![0u32, 1000, 1250, 3000]),
    ) {
        let store = BlockStore::from_text(&text, block_bytes);
        let job = FlexPrefix {
            prefix,
            fold: flags & 1 == 1,
            token: flags & 2 == 2,
        };
        let weighted = PartitionMode::Weighted { split_factor_x1000: split_x1000 };
        let reference = run_job_legacy(&job, &store);
        for threads in THREADS {
            for partition in [PartitionMode::Hash, weighted] {
                let out = run_job(&job, &store, &cfg(threads, reducers, partition));
                prop_assert_eq!(&out, &reference, "{:?}, threads {}", partition, threads);
            }
        }
    }

    /// Weighted ≡ hash ≡ reference for merged batches mixing
    /// fold/token/buffered jobs, across the thread grid.
    #[test]
    fn weighted_equals_hash_merged(
        text in corpus(),
        block_bytes in 8usize..256,
        prefixes in prop::collection::vec(word(), 1..5),
        flag_bits in 0u32..256,
        reducers in 1usize..9,
    ) {
        let store = BlockStore::from_text(&text, block_bytes);
        let jobs: Vec<FlexPrefix> = prefixes
            .iter()
            .enumerate()
            .map(|(i, p)| FlexPrefix {
                prefix: p.clone(),
                fold: (flag_bits >> (2 * i)) & 1 == 1,
                token: (flag_bits >> (2 * i + 1)) & 1 == 1,
            })
            .collect();
        let refs: Vec<&FlexPrefix> = jobs.iter().collect();
        let reference = run_merged_legacy(&refs, &store);
        for threads in THREADS {
            for partition in [PartitionMode::Hash, PartitionMode::weighted()] {
                let merged = run_merged(&refs, &store, &cfg(threads, reducers, partition));
                for ((job, m), r) in jobs.iter().zip(&merged).zip(&reference) {
                    prop_assert_eq!(m, r,
                        "{:?}, prefix {:?} threads {} fold={} token={}",
                        partition, &job.prefix, threads, job.fold, job.token);
                }
            }
        }
    }

    /// Weighted ≡ hash through the external (spilling) engine, where the
    /// plan regroups fine-grained spill bins instead of routing records.
    #[test]
    fn weighted_equals_hash_external(
        text in corpus(),
        block_bytes in 8usize..256,
        spill_records in 1usize..64,
        threads in prop::sample::select(THREADS.to_vec()),
        reducers in 1usize..6,
    ) {
        use s3_engine::{run_job_external, ExternalConfig};
        let store = BlockStore::from_text(&text, block_bytes);
        let job = FlexPrefix { prefix: "a".into(), fold: false, token: false };
        let reference = run_job(&job, &store, &cfg(threads, reducers, PartitionMode::Hash));
        let (out, _) = run_job_external(&job, &store, &ExternalConfig {
            exec: cfg(threads, reducers, PartitionMode::weighted()),
            spill_records,
            tmp_dir: None,
        }).expect("spill io");
        prop_assert_eq!(out.records, reference.records);
        prop_assert_eq!(out.stats.map_output_records, reference.stats.map_output_records);
    }

    /// Weighted ≡ hash through the shared-scan server: the finish pipeline
    /// builds the plan from the accumulated combiner state and may spawn
    /// extra reduce tasks, yet the published relation never moves.
    #[test]
    fn weighted_equals_hash_server(
        text in corpus(),
        block_bytes in 8usize..128,
        prefixes in prop::collection::vec(word(), 1..4),
        flag_bits in 0u32..64,
        threads in prop::sample::select(THREADS.to_vec()),
        split_x1000 in prop::sample::select(vec![0u32, 1000]),
    ) {
        use s3_engine::{ServerConfig, SharedScanServer};
        let store = BlockStore::from_text(&text, block_bytes);
        let base = cfg(1, 3, PartitionMode::Hash);
        let refs: Vec<_> = prefixes
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let job = FlexPrefix {
                    prefix: p.clone(),
                    fold: (flag_bits >> (2 * i)) & 1 == 1,
                    token: (flag_bits >> (2 * i + 1)) & 1 == 1,
                };
                run_job(&job, &store, &base).records
            })
            .collect();

        let mut scfg = ServerConfig::new(4, threads);
        scfg.partition = PartitionMode::Weighted { split_factor_x1000: split_x1000 };
        let server = SharedScanServer::with_config(store, scfg);
        let handles = server.submit_all(
            prefixes
                .iter()
                .enumerate()
                .map(|(i, p)| FlexPrefix {
                    prefix: p.clone(),
                    fold: (flag_bits >> (2 * i)) & 1 == 1,
                    token: (flag_bits >> (2 * i + 1)) & 1 == 1,
                })
                .collect(),
        );
        for ((h, reference), p) in handles.into_iter().zip(&refs).zip(&prefixes) {
            let out = h.wait().expect("no faults injected");
            prop_assert_eq!(&out.records, reference,
                "prefix {:?} threads {} split {}", p, threads, split_x1000);
        }
        server.shutdown();
    }
}
