//! Single-job execution: map over blocks in parallel, shuffle by key hash,
//! reduce partitions in parallel — all phases running on a persistent
//! [`WorkerPool`] instead of respawning OS threads per phase.

use crate::arena::TokenMap;
use crate::fanout::{RiderIndex, Selection, TokenSink};
use crate::partition::{key_hash, shard_of_hash, KeySketch, PartitionPlan};
use crate::pool::{BlockClaims, WorkProgress, WorkerPool};
use crate::reduce::{concat, fold_into, reduce_folded, sort_group_reduce, Groups};
use crate::store::BlockStore;
use crate::types::{ConfigError, MapReduceJob, PartitionMode};
use fxhash::FxHashMap;
use parking_lot::Mutex;
use s3_obs::trace::Ids;
use s3_obs::Obs;
use std::collections::BTreeMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Execution parameters.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker threads for the map and reduce phases. (Ignored by the
    /// [`run_job_on`]/[`crate::run_merged_on`] variants, which size to the
    /// pool they are given.)
    pub num_threads: usize,
    /// Number of reduce partitions.
    pub num_reducers: usize,
    /// How reduce shards are assigned to keys (see [`PartitionMode`]).
    /// Defaults to [`PartitionMode::Hash`] for bit-compatibility.
    pub partition: PartitionMode,
}

impl ExecConfig {
    /// Validated construction: a typed [`ConfigError`] instead of a
    /// div-by-zero panic deep inside the reduce phase.
    ///
    /// # Errors
    /// [`ConfigError::ZeroThreads`] / [`ConfigError::ZeroReducers`] when a
    /// count is zero.
    pub fn try_new(num_threads: usize, num_reducers: usize) -> Result<Self, ConfigError> {
        if num_threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if num_reducers == 0 {
            return Err(ConfigError::ZeroReducers);
        }
        Ok(ExecConfig {
            num_threads,
            num_reducers,
            partition: PartitionMode::Hash,
        })
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            num_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            num_reducers: 8,
            partition: PartitionMode::Hash,
        }
    }
}

/// Which scan implementation walks the blocks.
///
/// [`ScanPath::Kernel`] is the production path: blocks are borrowed `&[u8]`
/// slices split by the vendored SWAR kernel (`memchr::lines` /
/// `memchr::for_each_token`) and fed to the byte-level job entry points,
/// with the token-identity arena fast path when the job declares it.
/// Per-token jobs go through the rider fan-out kernel, which tokenizes a
/// block once for all of them and hands each job only the tokens that start
/// with its declared [`MapReduceJob::token_prefix`].
///
/// [`ScanPath::Legacy`] is the pre-kernel `String` path kept as the
/// byte-equality **oracle**: each block is UTF-8-converted (lossily for
/// invalid bytes) and walked with `str::lines` / `split_whitespace` into the
/// `&str` job entry points — every job sees every token, no index, no
/// declared prefix. The equivalence proptests run both and require
/// byte-identical outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanPath {
    /// Byte-slice SWAR kernel path (default).
    #[default]
    Kernel,
    /// Legacy `&str` path, kept as the equivalence oracle.
    Legacy,
}

/// Counters from one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Blocks read from the store.
    pub blocks_scanned: u64,
    /// Bytes read from the store.
    pub bytes_scanned: u64,
    /// Intermediate records emitted by map functions (pre-combiner).
    pub map_output_records: u64,
    /// Final output records.
    pub reduce_output_records: u64,
}

/// The result of one job: its output relation plus counters.
///
/// `PartialEq` compares records and stats — with [`crate::JobResult`]'s
/// `Result` wrapper this lets tests and the chaos fuzzer assert whole
/// outcomes (`Ok(output)` vs `Err(JobError::…)`) directly.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput<K: Ord, Out> {
    /// Final key → output value, totally ordered for easy comparison.
    pub records: BTreeMap<K, Out>,
    /// Execution counters.
    pub stats: ScanStats,
}

pub(crate) fn partition_of<K: Hash>(key: &K, num_reducers: usize) -> usize {
    // Bias-free widening-multiply reduction (see `partition::shard_of_hash`);
    // a zero reducer count clamps to one partition instead of faulting.
    shard_of_hash(key_hash(key), num_reducers)
}

/// Run one job's map over one block on the chosen scan path.
///
/// Kernel: borrowed byte slices into the byte-level entry points — per-token
/// jobs through the fan-out kernel (`fan` indexes this one job as rider 0),
/// line jobs through the SWAR line iterator. Legacy: the pre-kernel
/// behavior — UTF-8 convert (lossily if invalid), `str::lines`, `&str` map.
pub(crate) fn map_block<J: MapReduceJob>(
    job: &J,
    block: &[u8],
    scan_path: ScanPath,
    fan: &RiderIndex,
    sel: &mut Selection,
    emit: &mut dyn FnMut(J::K, J::V),
) {
    match scan_path {
        ScanPath::Kernel => {
            if job.map_is_per_token() {
                fan.select(block, sel);
                fan.map_rider(sel, 0, job, block, TokenSink::Emit(emit));
            } else {
                for line in memchr::lines(block) {
                    job.map_bytes(line, emit);
                }
            }
        }
        ScanPath::Legacy => {
            let text = String::from_utf8_lossy(block);
            for line in text.lines() {
                job.map(line, emit);
            }
        }
    }
}

/// Run one job over the whole store.
///
/// Spawns one [`WorkerPool`] for the call and reuses it across the map and
/// reduce phases; to amortize pool creation over many calls, create a pool
/// once and use [`run_job_on`].
///
/// # Panics
/// Panics if `cfg` has zero threads or reducers.
pub fn run_job<J: MapReduceJob>(job: &J, store: &BlockStore, cfg: &ExecConfig) -> JobOutput<J::K, J::Out> {
    assert!(cfg.num_threads > 0, "need at least one thread");
    let pool = WorkerPool::new(cfg.num_threads);
    run_job_on(&pool, job, store, cfg)
}

/// Run one job on an existing pool (thread creation stays O(pools) no
/// matter how many jobs run). `cfg.num_threads` is ignored; the phases fan
/// out to the pool's worker count.
///
/// # Panics
/// Panics if `cfg.num_reducers` is zero.
pub fn run_job_on<J: MapReduceJob>(
    pool: &WorkerPool,
    job: &J,
    store: &BlockStore,
    cfg: &ExecConfig,
) -> JobOutput<J::K, J::Out> {
    run_job_observed(pool, job, store, cfg, &Obs::off())
}

/// [`run_job_on`] with telemetry: records `map_phase`/`reduce_phase` spans
/// plus the `engine.*` scan, shuffle, and combiner counters into `obs`.
/// Passing [`Obs::off`] is exactly [`run_job_on`] — one branch per phase.
///
/// # Panics
/// Panics if `cfg.num_reducers` is zero.
pub fn run_job_observed<J: MapReduceJob>(
    pool: &WorkerPool,
    job: &J,
    store: &BlockStore,
    cfg: &ExecConfig,
    obs: &Obs,
) -> JobOutput<J::K, J::Out> {
    run_job_path(pool, job, store, cfg, obs, ScanPath::Kernel)
}

/// Run one job over the legacy `&str` scan path (see [`ScanPath::Legacy`]).
///
/// This is the byte-equality oracle: same outputs, same stats, none of the
/// kernel machinery. Spawns its own pool like [`run_job`].
///
/// # Panics
/// Panics if `cfg` has zero threads or reducers.
pub fn run_job_legacy<J: MapReduceJob>(
    job: &J,
    store: &BlockStore,
    cfg: &ExecConfig,
) -> JobOutput<J::K, J::Out> {
    assert!(cfg.num_threads > 0, "need at least one thread");
    let pool = WorkerPool::new(cfg.num_threads);
    run_job_path(&pool, job, store, cfg, &Obs::off(), ScanPath::Legacy)
}

fn run_job_path<J: MapReduceJob>(
    pool: &WorkerPool,
    job: &J,
    store: &BlockStore,
    cfg: &ExecConfig,
    obs: &Obs,
    scan_path: ScanPath,
) -> JobOutput<J::K, J::Out> {
    // A zero reducer count clamps to one partition (validated construction
    // via [`ExecConfig::try_new`] reports it as a typed [`ConfigError`]).
    let num_reducers = cfg.num_reducers.max(1);
    // Weighted partitioning defers shard assignment to the shuffle, where
    // the merged key-distribution sketch is available: workers emit one
    // unpartitioned run plus their sketch, and the shuffle routes every
    // record through the plan. Hash mode keeps the in-worker partitioning.
    let weighted = cfg.partition.is_weighted();
    let core = obs.core();

    let num_blocks = store.num_blocks();
    let num_threads = pool.num_threads();
    // A lone worker claims blocks from a private counter — the shared
    // progress word is only touched when siblings actually race for work.
    let solo = num_threads == 1;
    let progress = WorkProgress::new(num_blocks);
    let fold = job.combine_is_fold();
    let fan = RiderIndex::over([job], scan_path);
    let fan = &fan;

    // ---- map phase ----
    let map_t0 = core.map(|c| c.tracer.now_us());
    type MapOut<K, V> = (Vec<Vec<(K, V)>>, u64, u64, KeySketch);
    let worker_outputs: Vec<MapOut<J::K, J::V>> = pool.broadcast(num_threads, &|_| {
        let mut claims = if solo {
            BlockClaims::solo(num_blocks)
        } else {
            BlockClaims::shared(&progress)
        };
        let nparts = if weighted { 1 } else { num_reducers };
        let mut partitions: Vec<Vec<(J::K, J::V)>> = (0..nparts).map(|_| Vec::new()).collect();
        let mut sketch = KeySketch::new();
        let mut emitted = 0u64;
        let mut bytes = 0u64;
        let mut sel = Selection::default();
        if fold && scan_path == ScanPath::Kernel && job.map_emits_token() {
            // Token-identity fast path: fold under the raw token bytes in a
            // per-worker arena; each distinct token's key is built exactly
            // once, at flush.
            let mut local: TokenMap<J::V> = TokenMap::new();
            while let Some(idx) = claims.claim() {
                let block = store.block(idx);
                bytes += block.len() as u64;
                fan.select(block, &mut sel);
                let sink = TokenSink::Arena { map: &mut local, emitted: &mut emitted };
                fan.map_rider(&sel, 0, job, block, sink);
            }
            local.drain_into(|tok, v| {
                let k = job.token_key(tok);
                if weighted {
                    sketch.observe(key_hash(&k), 1);
                    partitions[0].push((k, v));
                } else {
                    let p = partition_of(&k, num_reducers);
                    partitions[p].push((k, v));
                }
            });
        } else if fold {
            // One accumulator per key for the worker's whole run: no
            // per-value buffering, no deferred combine pass.
            let mut local: FxHashMap<J::K, J::V> = FxHashMap::default();
            {
                let mut sink = |k: J::K, v: J::V| {
                    emitted += 1;
                    fold_into(job, &mut local, k, v);
                };
                while let Some(idx) = claims.claim() {
                    let block = store.block(idx);
                    bytes += block.len() as u64;
                    map_block(job, block, scan_path, fan, &mut sel, &mut sink);
                }
            }
            for (k, v) in local {
                if weighted {
                    sketch.observe(key_hash(&k), 1);
                    partitions[0].push((k, v));
                } else {
                    let p = partition_of(&k, num_reducers);
                    partitions[p].push((k, v));
                }
            }
        } else {
            while let Some(idx) = claims.claim() {
                let block = store.block(idx);
                bytes += block.len() as u64;
                // Block-local grouping so the combiner can fold.
                let mut local: FxHashMap<J::K, Vec<J::V>> = FxHashMap::default();
                map_block(job, block, scan_path, fan, &mut sel, &mut |k, v| {
                    emitted += 1;
                    local.entry(k).or_default().push(v);
                });
                for (k, vs) in local {
                    let folded = job.combine(&k, vs);
                    let p = if weighted { 0 } else { partition_of(&k, num_reducers) };
                    let h = weighted.then(|| key_hash(&k));
                    let mut folded = folded.into_iter().peekable();
                    while let Some(v) = folded.next() {
                        if let Some(h) = h {
                            sketch.observe(h, 1);
                        }
                        if folded.peek().is_some() {
                            partitions[p].push((k.clone(), v));
                        } else {
                            // Move the key into the last record.
                            partitions[p].push((k, v));
                            break;
                        }
                    }
                }
            }
        }
        (partitions, emitted, bytes, sketch.finish())
    });

    // ---- shuffle: merge worker partitions ----
    let mut map_output_records = 0u64;
    let mut bytes_scanned = 0u64;
    let mut merged_sketch = KeySketch::new();
    type WorkerParts<K, V> = Vec<Vec<(K, V)>>;
    let mut worker_parts: Vec<WorkerParts<J::K, J::V>> = Vec::with_capacity(num_threads);
    for (parts, emitted, bytes, sketch) in worker_outputs {
        map_output_records += emitted;
        bytes_scanned += bytes;
        if weighted {
            merged_sketch.merge(sketch);
        }
        worker_parts.push(parts);
    }
    // Weighted: build the plan from the merged sketches, then route every
    // record through it — "shuffle partitions by the same plan". Hash:
    // workers already partitioned; concatenate.
    let plan = weighted.then(|| {
        PartitionPlan::build(
            &merged_sketch,
            num_reducers,
            cfg.partition.split_factor_x1000(),
        )
    });
    let shuffled: Vec<Vec<(J::K, J::V)>> = match &plan {
        Some(plan) => {
            let mut shuffled: Vec<Vec<(J::K, J::V)>> =
                (0..plan.nbins()).map(|_| Vec::new()).collect();
            for parts in worker_parts {
                for part in parts {
                    for (k, v) in part {
                        shuffled[plan.bin_of_hash(key_hash(&k))].push((k, v));
                    }
                }
            }
            shuffled
        }
        None => {
            let mut shuffled: Vec<Vec<(J::K, J::V)>> =
                (0..num_reducers).map(|_| Vec::new()).collect();
            for parts in worker_parts {
                for (p, mut recs) in parts.into_iter().enumerate() {
                    shuffled[p].append(&mut recs);
                }
            }
            shuffled
        }
    };
    if let (Some(c), Some(t0)) = (core, map_t0) {
        c.tracer
            .span("map_phase", t0, Ids::none().jobs(num_threads as u64));
        let shuffle_records: u64 = shuffled.iter().map(|p| p.len() as u64).sum();
        let m = &c.metrics;
        m.counter("engine.map_records").add(map_output_records);
        m.counter("engine.blocks_scanned").add(num_blocks as u64);
        m.counter("engine.bytes_scanned").add(bytes_scanned);
        m.counter("engine.shuffle_records").add(shuffle_records);
        // Combiner effectiveness, post hoc: every emitted record the
        // map-side combine absorbed is one record the shuffle never saw.
        m.counter("engine.combiner_fold_hits")
            .add(map_output_records.saturating_sub(shuffle_records));
    }

    // ---- reduce phase: workers take partitions by move ----
    let reduce_t0 = core.map(|c| c.tracer.now_us());
    let next_partition = AtomicUsize::new(0);
    let num_partitions = shuffled.len();
    type LockedPartition<J> =
        Mutex<Vec<(<J as MapReduceJob>::K, <J as MapReduceJob>::V)>>;
    let shuffled: Vec<LockedPartition<J>> = shuffled.into_iter().map(Mutex::new).collect();
    let shuffled = &shuffled;
    let reduced: Vec<Vec<(J::K, J::Out)>> = pool.broadcast(num_threads, &|_| {
        let mut out = Vec::new();
        loop {
            let p = next_partition.fetch_add(1, Ordering::Relaxed);
            if p >= num_partitions {
                break;
            }
            let part = std::mem::take(&mut *shuffled[p].lock());
            reduce_partition(job, part, &mut out);
        }
        out
    });

    // Each key lives in exactly one partition and each partition's part is
    // sorted, so the concatenation is a duplicate-free sequence of sorted
    // runs: `from_iter`'s stable sort merges them, then bulk-builds.
    let records = BTreeMap::from_iter(concat(reduced));
    if let (Some(c), Some(t0)) = (core, reduce_t0) {
        c.tracer
            .span("reduce_phase", t0, Ids::none().jobs(num_partitions as u64));
    }
    let stats = ScanStats {
        blocks_scanned: num_blocks as u64,
        bytes_scanned,
        map_output_records,
        reduce_output_records: records.len() as u64,
    };
    JobOutput { records, stats }
}

/// Group one owned partition by key — moving records, never cloning — and
/// reduce each group, appending the partition's part to `out` sorted by key.
fn reduce_partition<J: MapReduceJob>(
    job: &J,
    part: Vec<(J::K, J::V)>,
    out: &mut Vec<(J::K, J::Out)>,
) {
    if job.combine_is_fold() {
        let mut grouped: FxHashMap<J::K, J::V> = FxHashMap::default();
        for (k, v) in part {
            fold_into(job, &mut grouped, k, v);
        }
        reduce_folded(job, grouped, out);
    } else {
        sort_group_reduce(job, [Groups::from_run(part)], out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::test_jobs::PrefixCount;

    fn store() -> BlockStore {
        let text = "apple banana apple\ncherry apple banana\napricot cherry\n".repeat(50);
        BlockStore::from_text(&text, 200)
    }

    #[test]
    fn wordcount_is_correct() {
        let out = run_job(
            &PrefixCount { prefix: "".into() },
            &store(),
            &ExecConfig {
                num_threads: 4,
                num_reducers: 4,
            ..ExecConfig::default()
            },
        );
        assert_eq!(out.records["apple"], 150);
        assert_eq!(out.records["banana"], 100);
        assert_eq!(out.records["cherry"], 100);
        assert_eq!(out.records["apricot"], 50);
        assert_eq!(out.stats.map_output_records, 400);
        assert_eq!(out.stats.reduce_output_records, 4);
    }

    #[test]
    fn prefix_filter_restricts_output() {
        let out = run_job(
            &PrefixCount { prefix: "ap".into() },
            &store(),
            &ExecConfig::default(),
        );
        assert_eq!(out.records.len(), 2); // apple, apricot
        assert_eq!(out.records["apple"], 150);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let base = run_job(
            &PrefixCount { prefix: "".into() },
            &store(),
            &ExecConfig {
                num_threads: 1,
                num_reducers: 3,
            ..ExecConfig::default()
            },
        );
        for threads in [2, 4, 8] {
            let out = run_job(
                &PrefixCount { prefix: "".into() },
                &store(),
                &ExecConfig {
                    num_threads: threads,
                    num_reducers: 3,
                ..ExecConfig::default()
                },
            );
            assert_eq!(out.records, base.records, "threads={threads}");
        }
    }

    #[test]
    fn reducer_count_does_not_change_results() {
        let base = run_job(
            &PrefixCount { prefix: "".into() },
            &store(),
            &ExecConfig {
                num_threads: 4,
                num_reducers: 1,
            ..ExecConfig::default()
            },
        );
        for reducers in [2, 7, 16] {
            let out = run_job(
                &PrefixCount { prefix: "".into() },
                &store(),
                &ExecConfig {
                    num_threads: 4,
                    num_reducers: reducers,
                ..ExecConfig::default()
                },
            );
            assert_eq!(out.records, base.records, "reducers={reducers}");
        }
    }

    #[test]
    fn stats_count_all_bytes() {
        let s = store();
        let out = run_job(&PrefixCount { prefix: "".into() }, &s, &ExecConfig::default());
        assert_eq!(out.stats.bytes_scanned as usize, s.total_bytes());
        assert_eq!(out.stats.blocks_scanned as usize, s.num_blocks());
    }

    #[test]
    fn pool_reuse_across_jobs_matches_fresh_pools() {
        let s = store();
        let cfg = ExecConfig {
            num_threads: 2,
            num_reducers: 4,
        ..ExecConfig::default()
        };
        let pool = WorkerPool::new(2);
        for prefix in ["", "ap", "ba", "zz"] {
            let job = PrefixCount { prefix: prefix.into() };
            let on_pool = run_job_on(&pool, &job, &s, &cfg);
            let fresh = run_job(&job, &s, &cfg);
            assert_eq!(on_pool.records, fresh.records, "prefix {prefix:?}");
            assert_eq!(on_pool.stats, fresh.stats, "prefix {prefix:?}");
        }
        assert_eq!(pool.threads_spawned(), 2, "one pool for all four jobs");
    }
}
