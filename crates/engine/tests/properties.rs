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

/// The same prefix count as [`Prefix`], but with the fold-combiner and
/// per-token map fast paths switchable per instance — so one merged batch
/// can mix streamed and buffered jobs, exercising both engine paths at
/// once. Outputs must be identical regardless of the flags.
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

    /// The fold-combiner / per-token fast paths compute exactly what the
    /// buffered paths compute, solo and in merged batches that mix
    /// streamed and buffered jobs.
    #[test]
    fn fold_and_token_paths_equal_buffered_paths(
        text in corpus(),
        block_bytes in 8usize..256,
        prefixes in prop::collection::vec(word(), 1..5),
        flag_bits in 0u32..256,
        threads in 1usize..5,
        reducers in 1usize..9,
    ) {
        let store = BlockStore::from_text(&text, block_bytes);
        let cfg = ExecConfig { num_threads: threads, num_reducers: reducers };
        // Two flag bits per job, unpacked from one sampled integer.
        let flex: Vec<FlexPrefix> = prefixes
            .iter()
            .enumerate()
            .map(|(i, p)| FlexPrefix {
                prefix: p.clone(),
                fold: (flag_bits >> (2 * i)) & 1 == 1,
                token: (flag_bits >> (2 * i + 1)) & 1 == 1,
            })
            .collect();
        // Solo: each flag combination equals the plain buffered job.
        for job in &flex {
            let fast = run_job(job, &store, &cfg);
            let plain = run_job(&Prefix(job.prefix.clone()), &store, &cfg);
            prop_assert_eq!(&fast.records, &plain.records,
                "prefix {:?} fold={} token={}", job.prefix, job.fold, job.token);
            prop_assert_eq!(fast.stats.map_output_records, plain.stats.map_output_records);
        }
        // Merged: a batch mixing fold/buffered and token/line jobs still
        // equals the independent runs.
        let refs: Vec<&FlexPrefix> = flex.iter().collect();
        let merged = run_merged(&refs, &store, &cfg);
        for (job, m) in flex.iter().zip(&merged) {
            let solo = run_job(&Prefix(job.prefix.clone()), &store, &cfg);
            prop_assert_eq!(&m.records, &solo.records,
                "merged prefix {:?} fold={} token={}", job.prefix, job.fold, job.token);
            prop_assert_eq!(m.stats.map_output_records, solo.stats.map_output_records);
        }
    }

    /// The adaptive shared-scan server computes exactly what a solo run
    /// computes for any corpus, blocking, clamp window, and job set — even
    /// with a cadence target aggressive enough to force resizes on nearly
    /// every boundary.
    #[test]
    fn adaptive_server_equals_independent(
        text in corpus(),
        block_bytes in 8usize..128,
        prefixes in prop::collection::vec(word(), 1..4),
        base_bps in 1usize..6,
        max_bps in 1usize..10,
        threads in 1usize..4,
    ) {
        use s3_engine::{AdaptiveConfig, Obs, ServerConfig, SharedScanServer};
        use std::time::Duration;
        let store = BlockStore::from_text(&text, block_bytes);
        let cfg = ExecConfig { num_threads: 1, num_reducers: 3 };
        let refs: Vec<_> = prefixes
            .iter()
            .map(|p| run_job(&Prefix(p.clone()), &store, &cfg).records)
            .collect();

        let mut scfg = ServerConfig::new(base_bps, threads);
        scfg.obs = Obs::new();
        scfg.adaptive = AdaptiveConfig {
            enabled: true,
            // Microsecond cadence over microsecond blocks: the computed
            // ideal size swings hard, so clamping does real work here.
            target_cadence: Duration::from_micros(50),
            min_blocks_per_segment: 1,
            max_blocks_per_segment: max_bps,
        };
        let obs = scfg.obs.clone();
        let server = SharedScanServer::with_config(store, scfg);
        let handles = server.submit_all(
            prefixes.iter().map(|p| Prefix(p.clone())).collect(),
        );
        for (h, reference) in handles.into_iter().zip(&refs) {
            let out = h.wait().expect("no faults injected");
            prop_assert_eq!(&out.records, reference);
        }
        server.shutdown();

        let lo = 1u64;
        let hi = max_bps.max(1) as u64;
        let core = obs.core().expect("observed");
        for ev in core.tracer.drain().iter().filter(|e| e.name == "segment_resized") {
            prop_assert!(
                (lo..=hi).contains(&ev.ids.seg),
                "resize to {} escapes the clamp [{}, {}]", ev.ids.seg, lo, hi
            );
        }
    }

    /// The shared-scan server computes exactly what solo runs compute for
    /// any corpus, thread count 1..=16, segment size (one block, a few
    /// blocks, exactly the whole file, more than the whole file), scan
    /// path (cooperative broadcast vs resilient claim/commit), tail mode
    /// (work-assist vs legacy deadline speculation), and adaptive sizing
    /// on or off. This is the byte-identity half of the work-assisting
    /// proof: however the claim loop interleaves — including solo workers
    /// taking the coordination-free fast path and degenerate segments
    /// larger than the file — outputs never move.
    #[test]
    fn work_assisting_server_equals_independent(
        text in corpus(),
        block_bytes in 8usize..128,
        prefixes in prop::collection::vec(word(), 1..4),
        threads in 1usize..17,
        bps_sel in 0usize..4,
        speculative in any::<bool>(),
        assist in any::<bool>(),
        adaptive in any::<bool>(),
    ) {
        use s3_engine::{AdaptiveConfig, FtConfig, ServerConfig, SharedScanServer};
        use std::time::Duration;
        let store = BlockStore::from_text(&text, block_bytes);
        let n = store.num_blocks();
        let bps = [1, 3.min(n.max(1)), n.max(1), n + 7][bps_sel];
        let cfg = ExecConfig { num_threads: 1, num_reducers: 3 };
        let refs: Vec<_> = prefixes
            .iter()
            .map(|p| run_job(&Prefix(p.clone()), &store, &cfg).records)
            .collect();

        let mut scfg = ServerConfig::new(bps, threads);
        scfg.ft = FtConfig {
            speculation: speculative,
            assist,
            // Tight enough that real interleavings cross it, so the
            // legacy deadline path actually speculates here too.
            deadline_floor: Duration::from_millis(1),
            ..FtConfig::default()
        };
        if adaptive {
            scfg.adaptive = AdaptiveConfig {
                enabled: true,
                target_cadence: Duration::from_micros(50),
                min_blocks_per_segment: 1,
                max_blocks_per_segment: bps.max(4),
            };
        }
        let server = SharedScanServer::with_config(store, scfg);
        let handles = server.submit_all(
            prefixes.iter().map(|p| Prefix(p.clone())).collect(),
        );
        for ((h, reference), p) in handles.into_iter().zip(&refs).zip(&prefixes) {
            let out = h.wait().expect("no faults injected");
            prop_assert_eq!(
                &out.records, reference,
                "prefix {:?} threads {} bps {} spec {} assist {} adaptive {}",
                p, threads, bps, speculative, assist, adaptive
            );
        }
        server.shutdown();
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
