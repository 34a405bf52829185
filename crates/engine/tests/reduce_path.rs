//! The reduce path of jobs without a fold combiner, on [`SharedScanServer`]
//! and on the batch front that shares its core: records are routed to their
//! reduce shard and grouped by key at emit (one hash per record, a hot key
//! held once per worker), the shard stable-sorts the groups by key, and the
//! published relation equals the reference's — on both scan loops, at any
//! thread count and block cut. Hash is the only partitioner;
//! `PartitionMode::weighted()` is an alias for it and routes identically.

use proptest::prelude::*;
use s3_engine::{
    run_job, run_job_legacy, run_merged, BlockStore, ExecConfig, FtConfig, JobError, JobOutput,
    MapReduceJob, Obs, PartitionMode, ServerConfig, SharedScanServer,
};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sum of line lengths per word with the given prefix; words whose total is
/// divisible by three are dropped by `reduce`. Every word is emitted once
/// per occurrence, so keys repeat across blocks, workers, segments and
/// shards; `combine` shrinks a run to its sum.
#[derive(Clone)]
struct LineWeight {
    prefix: String,
}

impl MapReduceJob for LineWeight {
    type K = String;
    type V = i64;
    type Out = i64;
    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        for w in line.split_whitespace() {
            if w.starts_with(&self.prefix) {
                emit(w.to_string(), line.len() as i64);
            }
        }
    }
    fn combine(&self, _k: &String, v: Vec<i64>) -> Vec<i64> {
        vec![v.iter().sum()]
    }
    fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
        let total: i64 = v.iter().sum();
        (total % 3 != 0).then_some(total)
    }
}

/// The row of [`server_modes`] built with the retired skew-aware mode's name.
const ALIAS: &str = "cooperative/weighted-alias";

/// The scan loops a server can be built with, plus one row that still sets
/// `PartitionMode::weighted()`, which must route exactly as hash.
fn server_modes() -> Vec<(&'static str, FtConfig, PartitionMode)> {
    vec![
        ("cooperative/hash", FtConfig::default(), PartitionMode::Hash),
        ("resilient/hash", FtConfig::resilient(), PartitionMode::Hash),
        (ALIAS, FtConfig::default(), PartitionMode::weighted()),
    ]
}

fn server_config(bps: usize, threads: usize, ft: &FtConfig, partition: PartitionMode) -> ServerConfig {
    let mut cfg = ServerConfig::new(bps, threads);
    cfg.ft = ft.clone();
    cfg.partition = partition;
    cfg
}

/// Submit `jobs` one segment apart (or 2 ms apart, if the scan has
/// already gone idle), so that later jobs join mid-revolution and wrap.
fn submit_staggered<J: MapReduceJob + 'static>(
    server: &SharedScanServer<J>,
    jobs: Vec<J>,
) -> Vec<s3_engine::JobHandle<J::K, J::Out>> {
    jobs.into_iter()
        .map(|job| {
            let seen = server.iterations();
            let handle = server.submit(job);
            let t0 = Instant::now();
            while server.iterations() == seen && t0.elapsed() < Duration::from_millis(2) {
                std::thread::yield_now();
            }
            handle
        })
        .collect()
}

/// A word strategy over a tiny alphabet, so a handful of keys dominate and
/// every key repeats.
fn word() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(vec!['a', 'b', 'c']), 1..5)
        .prop_map(|cs| cs.into_iter().collect())
}

fn corpus() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::collection::vec(word(), 1..12), 1..60).prop_map(|lines| {
        lines.into_iter().map(|ws| ws.join(" ")).collect::<Vec<_>>().join("\n") + "\n"
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Multi-value non-fold riders, staggered, equal the legacy executor's
    /// records and map-output counts in every server mode.
    #[test]
    fn non_fold_riders_equal_the_legacy_oracle(
        text in corpus(),
        block_bytes in 8usize..200,
        bps in 1usize..6,
        prefixes in prop::collection::vec(word(), 1..4),
    ) {
        let store = BlockStore::from_text(&text, block_bytes);
        let jobs: Vec<LineWeight> = prefixes.iter().map(|p| LineWeight { prefix: p.clone() }).collect();
        let oracle: Vec<_> = jobs
            .iter()
            .map(|j| run_job_legacy(j, &store))
            .collect();
        for (mode, ft, partition) in server_modes() {
            for threads in [1, 2, 4] {
                let server = SharedScanServer::with_config(store.clone(), server_config(bps, threads, &ft, partition));
                let handles = submit_staggered(&server, jobs.clone());
                for ((h, want), job) in handles.into_iter().zip(&oracle).zip(&jobs) {
                    let out = h.wait().expect("no faults injected");
                    prop_assert_eq!(&out.records, &want.records, "{} threads {} prefix {:?}", mode, threads, &job.prefix);
                    prop_assert_eq!(out.stats.map_output_records, want.stats.map_output_records);
                    prop_assert_eq!(out.stats.reduce_output_records, want.records.len() as u64);
                }
                server.shutdown();
            }
        }
    }
}

/// 2640 records over five keys weighing 600, 600, 480, 480 and 480: no
/// assignment of whole keys balances two or four shards, so some shard
/// always reduces more than its share.
fn repeated_text() -> String {
    let cycle = "hot warm cold mild cool\n".repeat(4) + "hot warm\n";
    cycle.repeat(120)
}

/// A key that counts how often it is hashed and how often it is ordered.
#[derive(Clone)]
struct CountedKey {
    word: String,
    hashes: Arc<AtomicU64>,
    compares: Arc<AtomicU64>,
}

impl PartialEq for CountedKey {
    fn eq(&self, other: &Self) -> bool {
        self.word == other.word
    }
}
impl Eq for CountedKey {}
impl PartialOrd for CountedKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CountedKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.compares.fetch_add(1, Ordering::Relaxed);
        self.word.cmp(&other.word)
    }
}
impl Hash for CountedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.hashes.fetch_add(1, Ordering::Relaxed);
        self.word.hash(state);
    }
}

/// Non-fold word count under [`CountedKey`]s.
struct CountedWords {
    hashes: Arc<AtomicU64>,
    compares: Arc<AtomicU64>,
}

impl CountedWords {
    fn new() -> Self {
        CountedWords { hashes: Arc::default(), compares: Arc::default() }
    }
}

impl MapReduceJob for CountedWords {
    type K = CountedKey;
    type V = i64;
    type Out = i64;
    fn map(&self, line: &str, emit: &mut dyn FnMut(CountedKey, i64)) {
        for w in line.split_whitespace() {
            let key = CountedKey {
                word: w.to_string(),
                hashes: Arc::clone(&self.hashes),
                compares: Arc::clone(&self.compares),
            };
            emit(key, 1);
        }
    }
    fn reduce(&self, _k: &CountedKey, v: &[i64]) -> Option<i64> {
        Some(v.iter().sum())
    }
}

/// `run_job` of one [`CountedWords`] rider, or `run_merged` of several, on
/// two threads and three reduce shards: each rider with its output.
fn counted_batch(store: &BlockStore, riders: usize) -> Vec<(CountedWords, JobOutput<CountedKey, i64>)> {
    let jobs: Vec<CountedWords> = (0..riders).map(|_| CountedWords::new()).collect();
    let refs: Vec<&CountedWords> = jobs.iter().collect();
    let cfg = ExecConfig { num_threads: 2, num_reducers: 3 };
    let outs = match refs[..] {
        [job] => vec![run_job(job, store, &cfg)],
        _ => run_merged(&refs, store, &cfg),
    };
    jobs.into_iter().zip(outs).collect()
}

/// The design in one number: a non-fold job's record is hashed when it is
/// emitted, to pick its reduce shard and its group there, and never again —
/// not by the resilient loop's merge, not at finish, not to group, not to
/// publish. Two of
/// every three keys are unique, the shape on which grouping in hash maps
/// cost three hashes a record and their resizes.
#[test]
fn a_non_fold_record_is_hashed_exactly_once() {
    let text: String = (0..600).map(|i| format!("u{i} v{i} hot\n")).collect();
    let store = BlockStore::from_text(&text, 512);
    for (ft, threads) in [
        (FtConfig::default(), 2),
        (FtConfig::resilient(), 1),
        (FtConfig::resilient(), 2),
    ] {
        let job = CountedWords::new();
        let hashes = Arc::clone(&job.hashes);
        let server =
            SharedScanServer::with_config(store.clone(), server_config(3, threads, &ft, PartitionMode::Hash));
        let out = server.submit(job).wait().expect("job completes");
        server.shutdown();
        let records = out.stats.map_output_records;
        assert_eq!(records, 1800);
        assert_eq!(out.records.len(), 1201);
        let hashed = hashes.load(Ordering::Relaxed);
        if ft.speculation && threads > 1 {
            // Work assist may map a block a second time, and the losing
            // execution hashes what it emits too: at most one of a
            // segment's three blocks with two workers.
            assert!(
                (records..2 * records).contains(&hashed),
                "{hashed} hashes for {records} records: only re-executed blocks may hash again"
            );
        } else {
            assert_eq!(
                hashed, records,
                "speculation {}: one hash per emitted record",
                ft.speculation
            );
        }
    }
    // The batch front runs the same core: nothing between emit and output
    // hashes a record again, for a solo job or for each of three riders.
    for riders in [1, 3] {
        for (job, out) in counted_batch(&store, riders) {
            assert_eq!((out.stats.map_output_records, out.records.len()), (1800, 1201));
            assert_eq!(
                job.hashes.load(Ordering::Relaxed),
                1800,
                "{riders} riders: one hash per emitted record"
            );
        }
    }
}

/// A key emitted over and over stays in the worker's table of recent keys
/// and is held once, so ordering the output costs compares in the number of
/// distinct keys — not in the number of records, as sorting the records
/// themselves would.
#[test]
fn hot_keys_are_ordered_once_per_worker_not_once_per_record() {
    let text = repeated_text();
    let store = BlockStore::from_text(&text, 256);
    for (mode, ft, partition) in server_modes() {
        let job = CountedWords::new();
        let compares = Arc::clone(&job.compares);
        let server = SharedScanServer::with_config(store.clone(), server_config(4, 2, &ft, partition));
        let out = server.submit(job).wait().expect("job completes");
        server.shutdown();
        let records = out.stats.map_output_records;
        assert_eq!((records, out.records.len()), (2640, 5));
        let compared = compares.load(Ordering::Relaxed);
        assert!(
            compared < records / 10,
            "{mode}: {compared} key compares for 5 keys on 2 workers ({records} records)"
        );
    }
    for riders in [1, 3] {
        for (job, out) in counted_batch(&store, riders) {
            assert_eq!((out.stats.map_output_records, out.records.len()), (2640, 5));
            let compared = job.compares.load(Ordering::Relaxed);
            assert!(
                compared < 2640 / 10,
                "{riders} riders: {compared} key compares for 5 keys on 2 workers"
            );
        }
    }
}

/// Every emitted value is a ticket from one global counter, so tickets
/// grow in emission order. `combine` is the identity, but it checks what it
/// is handed: a worker appends to its own group of the key in emission
/// order and a shard lines the workers' groups up whole, so a key's values
/// are at most `max_runs` ascending runs — unless the grouping sort
/// reordered equal keys.
struct Ticketed {
    next: AtomicU64,
    max_runs: usize,
}

impl MapReduceJob for Ticketed {
    type K = String;
    type V = u64;
    type Out = u64;
    fn map(&self, line: &str, emit: &mut dyn FnMut(String, u64)) {
        for w in line.split_whitespace() {
            emit(w.to_string(), self.next.fetch_add(1, Ordering::Relaxed));
        }
    }
    fn combine(&self, k: &String, v: Vec<u64>) -> Vec<u64> {
        let runs = 1 + v.windows(2).filter(|w| w[0] > w[1]).count();
        assert!(
            runs <= self.max_runs,
            "key {k:?}: {} values in {runs} ascending runs, at most {} workers: {v:?}",
            v.len(),
            self.max_runs
        );
        v
    }
    fn reduce(&self, _k: &String, v: &[u64]) -> Option<u64> {
        Some(v.len() as u64)
    }
}

#[test]
fn a_keys_values_reach_combine_in_worker_then_emission_order() {
    // Three passes over 20 000 words: more keys than a worker's table of
    // recent keys holds, so a key comes back after dropping out of it and
    // is held in several groups, which the shard must put together in order.
    let many_keys: String = (0..3)
        .flat_map(|_| (0..2_000).map(|line| (0..10).map(|w| format!("w{} ", line * 10 + w)).collect::<String>() + "\n"))
        .collect();
    for (text, skewed) in [(repeated_text(), true), (many_keys, false)] {
        let store = BlockStore::from_text(&text, if skewed { 256 } else { 4096 });
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for w in text.split_whitespace() {
            *counts.entry(w.to_string()).or_default() += 1;
        }
        for (mode, ft, partition) in server_modes() {
            for threads in [1, 2, 4] {
                let obs = Obs::new();
                let mut cfg = server_config(4, threads, &ft, partition);
                cfg.obs = obs.clone();
                let server = SharedScanServer::with_config(store.clone(), cfg);
                let out = server
                    .submit(Ticketed { next: AtomicU64::new(0), max_runs: threads })
                    .wait()
                    .unwrap_or_else(|e| panic!("{mode} threads {threads}: {e}"));
                server.shutdown();
                assert_eq!(out.records, counts, "{mode} threads {threads}");
                if skewed && mode == ALIAS && threads > 1 {
                    // No whole-key assignment is balanced, yet the alias plans
                    // nothing: one hash-routed reduce shard per pool worker.
                    let events = obs.core().expect("obs is on").tracer.drain();
                    let named = |name: &str| events.iter().filter(|e| e.name == name).count();
                    assert_eq!(named("partition_plan"), 0, "{mode} threads {threads}: a plan was built");
                    assert_eq!(named("reduce_shard"), threads, "{mode} threads {threads}: reduce shards");
                }
            }
        }
    }
}

/// A panic in a non-fold job's `combine` (inside a reduce shard) and a
/// panic in the finish-time flush (`token_key`, inside the shard split) each
/// fail exactly their own job and publish nothing for it.
#[test]
fn panics_on_the_finish_path_fail_only_their_own_job() {
    /// Word count that panics in `combine` on the word `cold` when armed.
    #[derive(Clone)]
    struct CombineBomb {
        armed: bool,
    }
    impl MapReduceJob for CombineBomb {
        type K = String;
        type V = i64;
        type Out = i64;
        fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
            for w in line.split_whitespace() {
                emit(w.to_string(), 1);
            }
        }
        fn combine(&self, k: &String, v: Vec<i64>) -> Vec<i64> {
            assert!(!(self.armed && k == "cold"), "combine bomb on {k}");
            v
        }
        fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
            Some(v.iter().sum())
        }
    }
    /// Token-identity word count that panics materializing `cold` when armed.
    #[derive(Clone)]
    struct FlushBomb {
        armed: bool,
    }
    impl MapReduceJob for FlushBomb {
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
        fn combine_is_fold(&self) -> bool {
            true
        }
        fn combine_fold(&self, acc: &mut i64, next: i64) {
            *acc += next;
        }
        fn map_is_per_token(&self) -> bool {
            true
        }
        fn map_token(&self, token: &str, emit: &mut dyn FnMut(String, i64)) {
            emit(token.to_string(), 1);
        }
        fn map_emits_token(&self) -> bool {
            true
        }
        fn token_value(&self, _token: &[u8]) -> Option<i64> {
            Some(1)
        }
        fn token_key(&self, token: &[u8]) -> String {
            assert!(!(self.armed && token == b"cold"), "flush bomb on cold");
            String::from_utf8_lossy(token).into_owned()
        }
    }

    fn check<J: MapReduceJob<K = String, Out = i64> + Clone + 'static>(doomed: J, survivor: J, message: &str) {
        let store = BlockStore::from_text(&repeated_text(), 512);
        for (mode, ft, partition) in server_modes() {
            let obs = Obs::new();
            let mut cfg = server_config(3, 2, &ft, partition);
            cfg.obs = obs.clone();
            let server = SharedScanServer::with_config(store.clone(), cfg);
            let mut handles = server.submit_all(vec![doomed.clone(), survivor.clone()]).into_iter();
            match handles.next().expect("two handles").wait() {
                Err(JobError::Panicked(msg)) => assert!(msg.contains(message), "{mode}: {msg}"),
                other => panic!("{mode}: expected the bomb's panic, got {other:?}"),
            }
            let out = handles.next().expect("two handles").wait().expect("co-rider unaffected");
            assert_eq!(out.records["hot"], 600, "{mode}");
            assert_eq!(out.records["cold"], 480, "{mode}");
            server.shutdown();
            let snap = obs.snapshot().expect("obs is on");
            assert_eq!(snap.counter("engine.jobs_quarantined"), 1, "{mode}");
            assert_eq!(snap.counter("engine.jobs_completed"), 1, "{mode}");
        }
    }
    check(CombineBomb { armed: true }, CombineBomb { armed: false }, "combine bomb");
    check(FlushBomb { armed: true }, FlushBomb { armed: false }, "flush bomb");
}
