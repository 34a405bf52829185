//! Shared-scan execution: many jobs, one pass over the data.
//!
//! This is the execution primitive both MRShare batches and S³ merged
//! sub-jobs rely on: each block is read and parsed **once**, every job's
//! map function runs over the same records, and intermediate tuples are
//! tagged with their job index (MRShare's tuple tagging) so the reduce side
//! can keep the jobs' groups apart.
//!
//! Beyond sharing the *read*, jobs that declare
//! [`map_is_per_token`](crate::MapReduceJob::map_is_per_token) also share
//! the *parse*: each line is tokenized once and every such job's
//! [`map_token`](crate::MapReduceJob::map_token) runs over the shared
//! tokens — removing the dominant per-job cost once I/O is shared.
//!
//! The correctness contract — outputs identical to running each job alone —
//! is what makes shared scanning a pure optimization; the test suite and
//! `tests/` integration tests enforce it record-for-record.

use crate::arena::TokenMap;
use crate::exec::{partition_of, ExecConfig, JobOutput, ScanPath, ScanStats};
use crate::fanout::{RiderIndex, Selection, TokenSink};
use crate::partition::{key_hash, KeySketch, PartitionPlan};
use crate::pool::WorkerPool;
use crate::reduce::{fold_into, reduce_folded, sort_group_reduce, Groups};
use crate::store::BlockStore;
use crate::types::MapReduceJob;
use fxhash::FxHashMap;
use parking_lot::Mutex;
use s3_obs::trace::Ids;
use s3_obs::Obs;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run every job in `jobs` over one shared scan of `store`.
///
/// Returns one [`JobOutput`] per job, in order. Each output's
/// `stats.blocks_scanned` reports the *shared* scan (the store is read once
/// in total, not once per job); `map_output_records` is per job.
///
/// Spawns one [`WorkerPool`] for the call; to amortize pool creation over
/// many calls, create a pool once and use [`run_merged_on`].
///
/// # Panics
/// Panics if `jobs` is empty or `cfg` has zero threads or reducers.
pub fn run_merged<J: MapReduceJob>(
    jobs: &[&J],
    store: &BlockStore,
    cfg: &ExecConfig,
) -> Vec<JobOutput<J::K, J::Out>> {
    assert!(cfg.num_threads > 0, "need at least one thread");
    let pool = WorkerPool::new(cfg.num_threads);
    run_merged_on(&pool, jobs, store, cfg)
}

/// Run a shared scan on an existing pool (thread creation stays O(pools)
/// no matter how many merged batches run). `cfg.num_threads` is ignored;
/// the phases fan out to the pool's worker count.
///
/// # Panics
/// Panics if `jobs` is empty or `cfg.num_reducers` is zero.
pub fn run_merged_on<J: MapReduceJob>(
    pool: &WorkerPool,
    jobs: &[&J],
    store: &BlockStore,
    cfg: &ExecConfig,
) -> Vec<JobOutput<J::K, J::Out>> {
    run_merged_observed(pool, jobs, store, cfg, &Obs::off())
}

/// [`run_merged_on`] with telemetry: records `merged_map_phase` /
/// `merged_reduce_phase` spans (the `n` id carries the merged job count)
/// plus the `engine.*` scan, shuffle, and combiner counters into `obs`.
/// Passing [`Obs::off`] is exactly [`run_merged_on`].
///
/// # Panics
/// Panics if `jobs` is empty or `cfg.num_reducers` is zero.
pub fn run_merged_observed<J: MapReduceJob>(
    pool: &WorkerPool,
    jobs: &[&J],
    store: &BlockStore,
    cfg: &ExecConfig,
    obs: &Obs,
) -> Vec<JobOutput<J::K, J::Out>> {
    run_merged_path(pool, jobs, store, cfg, obs, ScanPath::Kernel)
}

/// Run a shared scan over the legacy `&str` path (see
/// [`ScanPath::Legacy`](crate::ScanPath::Legacy)) — the byte-equality
/// oracle for [`run_merged`]. Spawns its own pool.
///
/// # Panics
/// Panics if `jobs` is empty or `cfg` has zero threads or reducers.
pub fn run_merged_legacy<J: MapReduceJob>(
    jobs: &[&J],
    store: &BlockStore,
    cfg: &ExecConfig,
) -> Vec<JobOutput<J::K, J::Out>> {
    assert!(cfg.num_threads > 0, "need at least one thread");
    let pool = WorkerPool::new(cfg.num_threads);
    run_merged_path(&pool, jobs, store, cfg, &Obs::off(), ScanPath::Legacy)
}

fn run_merged_path<J: MapReduceJob>(
    pool: &WorkerPool,
    jobs: &[&J],
    store: &BlockStore,
    cfg: &ExecConfig,
    obs: &Obs,
    scan_path: ScanPath,
) -> Vec<JobOutput<J::K, J::Out>> {
    assert!(!jobs.is_empty(), "merged run needs at least one job");
    // Degenerate reducer counts clamp to one shard instead of faulting
    // mid-reduce; `ExecConfig::try_new` is the typed front door.
    let num_reducers = cfg.num_reducers.max(1);
    let weighted = cfg.partition.is_weighted();
    let core = obs.core();

    let next_block = AtomicUsize::new(0);
    let num_blocks = store.num_blocks();
    let num_jobs = jobs.len();
    let num_threads = pool.num_threads();

    let fold_flags: Vec<bool> = jobs.iter().map(|j| j.combine_is_fold()).collect();
    // Jobs that share the tokenization pass vs. jobs that see whole lines.
    let token_jobs: Vec<usize> = (0..num_jobs).filter(|&ji| jobs[ji].map_is_per_token()).collect();
    let line_jobs: Vec<usize> = (0..num_jobs).filter(|&ji| !jobs[ji].map_is_per_token()).collect();
    // Token-identity fast path (kernel only): fold under raw token bytes in
    // a per-worker arena, building each distinct key once at flush.
    let fast_flags: Vec<bool> = (0..num_jobs)
        .map(|ji| {
            scan_path == ScanPath::Kernel && fold_flags[ji] && jobs[ji].map_emits_token()
        })
        .collect();
    let fast_flags = &fast_flags;
    let fan = RiderIndex::over(jobs.iter().copied(), scan_path);
    let fan = &fan;

    // ---- shared map phase: tag tuples with their job index ----
    let map_t0 = core.map(|c| c.tracer.now_us());
    type Tagged<K, V> = (usize, K, V);
    type MapOut<K, V> = (Vec<Vec<Tagged<K, V>>>, Vec<u64>, u64, KeySketch);
    let worker_outputs: Vec<MapOut<J::K, J::V>> = pool.broadcast(num_threads, &|_| {
        // Weighted mode defers partitioning to the shuffle: each worker
        // emits one unpartitioned run plus a key-frequency sketch, and the
        // merged sketches drive a weighted plan over all workers' records.
        let nparts = if weighted { 1 } else { num_reducers };
        let mut partitions: Vec<Vec<Tagged<J::K, J::V>>> =
            (0..nparts).map(|_| Vec::new()).collect();
        let mut sketch = KeySketch::new();
        let mut emitted = vec![0u64; num_jobs];
        let mut bytes = 0u64;
        // Fold jobs stream into one accumulator per key for the worker's
        // whole run; buffering jobs group per block and combine at block end.
        let mut fold_accs: Vec<FxHashMap<J::K, J::V>> =
            (0..num_jobs).map(|_| FxHashMap::default()).collect();
        let mut bufs: Vec<FxHashMap<J::K, Vec<J::V>>> =
            (0..num_jobs).map(|_| FxHashMap::default()).collect();
        let mut tok_maps: Vec<TokenMap<J::V>> = (0..num_jobs).map(|_| TokenMap::new()).collect();
        let mut sel = Selection::default();
        loop {
            let idx = next_block.fetch_add(1, Ordering::Relaxed);
            if idx >= num_blocks {
                break;
            }
            let block = store.block(idx);
            bytes += block.len() as u64;
            match scan_path {
                ScanPath::Kernel => {
                    // One pass over the records. Token jobs share a single
                    // tokenization and predicate lookup of the block, then
                    // each maps only the tokens the index picked for it.
                    fan.select(block, &mut sel);
                    for &ji in &token_jobs {
                        let job = jobs[ji];
                        let cnt = &mut emitted[ji];
                        if fast_flags[ji] {
                            let sink = TokenSink::Arena { map: &mut tok_maps[ji], emitted: cnt };
                            fan.map_rider(&sel, ji, job, block, sink);
                        } else if fold_flags[ji] {
                            let acc = &mut fold_accs[ji];
                            let mut emit = |k, v| {
                                *cnt += 1;
                                fold_into(job, acc, k, v);
                            };
                            fan.map_rider(&sel, ji, job, block, TokenSink::Emit(&mut emit));
                        } else {
                            let buf = &mut bufs[ji];
                            let mut emit = |k, v| {
                                *cnt += 1;
                                buf.entry(k).or_default().push(v);
                            };
                            fan.map_rider(&sel, ji, job, block, TokenSink::Emit(&mut emit));
                        }
                    }
                    if !line_jobs.is_empty() {
                        for line in memchr::lines(block) {
                            for &ji in &line_jobs {
                                let job = jobs[ji];
                                let cnt = &mut emitted[ji];
                                if fold_flags[ji] {
                                    let acc = &mut fold_accs[ji];
                                    job.map_bytes(line, &mut |k, v| {
                                        *cnt += 1;
                                        fold_into(job, acc, k, v);
                                    });
                                } else {
                                    let buf = &mut bufs[ji];
                                    job.map_bytes(line, &mut |k, v| {
                                        *cnt += 1;
                                        buf.entry(k).or_default().push(v);
                                    });
                                }
                            }
                        }
                    }
                }
                ScanPath::Legacy => {
                    // Pre-kernel behavior, kept as the oracle: `&str` lines,
                    // per-line shared tokenization.
                    let text = String::from_utf8_lossy(block);
                    for line in text.lines() {
                        if !token_jobs.is_empty() {
                            for token in line.split_whitespace() {
                                for &ji in &token_jobs {
                                    let job = jobs[ji];
                                    let cnt = &mut emitted[ji];
                                    if fold_flags[ji] {
                                        let acc = &mut fold_accs[ji];
                                        job.map_token(token, &mut |k, v| {
                                            *cnt += 1;
                                            fold_into(job, acc, k, v);
                                        });
                                    } else {
                                        let buf = &mut bufs[ji];
                                        job.map_token(token, &mut |k, v| {
                                            *cnt += 1;
                                            buf.entry(k).or_default().push(v);
                                        });
                                    }
                                }
                            }
                        }
                        for &ji in &line_jobs {
                            let job = jobs[ji];
                            let cnt = &mut emitted[ji];
                            if fold_flags[ji] {
                                let acc = &mut fold_accs[ji];
                                job.map(line, &mut |k, v| {
                                    *cnt += 1;
                                    fold_into(job, acc, k, v);
                                });
                            } else {
                                let buf = &mut bufs[ji];
                                job.map(line, &mut |k, v| {
                                    *cnt += 1;
                                    buf.entry(k).or_default().push(v);
                                });
                            }
                        }
                    }
                }
            }
            // Flush buffering jobs through their combiner at block end.
            for (ji, buf) in bufs.iter_mut().enumerate() {
                for (k, vs) in buf.drain() {
                    let folded = jobs[ji].combine(&k, vs);
                    if weighted {
                        sketch.observe(key_hash(&k), folded.len() as u64);
                        for v in folded {
                            partitions[0].push((ji, k.clone(), v));
                        }
                    } else {
                        let p = partition_of(&k, num_reducers);
                        for v in folded {
                            partitions[p].push((ji, k.clone(), v));
                        }
                    }
                }
            }
        }
        // Flush fold accumulators: one record per key for the whole worker.
        for (ji, acc) in fold_accs.into_iter().enumerate() {
            for (k, v) in acc {
                let p = if weighted {
                    sketch.observe(key_hash(&k), 1);
                    0
                } else {
                    partition_of(&k, num_reducers)
                };
                partitions[p].push((ji, k, v));
            }
        }
        // Flush arena maps: build each distinct token's key exactly once.
        // The sketch hashes the *materialized* key — `token_key` may
        // collapse distinct tokens — so sketch and shuffle agree.
        for (ji, m) in tok_maps.into_iter().enumerate() {
            let job = jobs[ji];
            m.drain_into(|tok, v| {
                let k = job.token_key(tok);
                let p = if weighted {
                    sketch.observe(key_hash(&k), 1);
                    0
                } else {
                    partition_of(&k, num_reducers)
                };
                partitions[p].push((ji, k, v));
            });
        }
        (partitions, emitted, bytes, sketch.finish())
    });

    // ---- shuffle ----
    // Weighted: merge the per-worker sketches into one plan and route every
    // record by its key hash; the plan may split hot bins past the base
    // width (the reduce loop iterates partition count, not pool width).
    let plan = weighted.then(|| {
        let mut merged = KeySketch::new().finish();
        for (_, _, _, s) in &worker_outputs {
            merged.merge(s.clone());
        }
        PartitionPlan::build(&merged, num_reducers, cfg.partition.split_factor_x1000())
    });
    let nbins = plan.as_ref().map_or(num_reducers, PartitionPlan::nbins);
    let mut shuffled: Vec<Vec<Tagged<J::K, J::V>>> = (0..nbins).map(|_| Vec::new()).collect();
    let mut per_job_emitted = vec![0u64; num_jobs];
    let mut bytes_scanned = 0u64;
    for (parts, emitted, bytes, _) in worker_outputs {
        bytes_scanned += bytes;
        for (ji, e) in emitted.into_iter().enumerate() {
            per_job_emitted[ji] += e;
        }
        match &plan {
            Some(plan) => {
                for recs in parts {
                    for (ji, k, v) in recs {
                        shuffled[plan.bin_of_hash(key_hash(&k))].push((ji, k, v));
                    }
                }
            }
            None => {
                for (p, mut recs) in parts.into_iter().enumerate() {
                    shuffled[p].append(&mut recs);
                }
            }
        }
    }
    if let (Some(c), Some(t0)) = (core, map_t0) {
        c.tracer
            .span("merged_map_phase", t0, Ids::none().jobs(num_jobs as u64));
        let emitted_total: u64 = per_job_emitted.iter().sum();
        let shuffle_records: u64 = shuffled.iter().map(|p| p.len() as u64).sum();
        let m = &c.metrics;
        m.counter("engine.map_records").add(emitted_total);
        m.counter("engine.blocks_scanned").add(num_blocks as u64);
        m.counter("engine.bytes_scanned").add(bytes_scanned);
        m.counter("engine.shuffle_records").add(shuffle_records);
        m.counter("engine.combiner_fold_hits")
            .add(emitted_total.saturating_sub(shuffle_records));
    }

    // ---- reduce phase: group by (job, key), moving records ----
    let reduce_t0 = core.map(|c| c.tracer.now_us());
    let next_partition = AtomicUsize::new(0);
    let num_partitions = shuffled.len();
    type LockedPartition<J> =
        Mutex<Vec<Tagged<<J as MapReduceJob>::K, <J as MapReduceJob>::V>>>;
    let shuffled: Vec<LockedPartition<J>> = shuffled.into_iter().map(Mutex::new).collect();
    let shuffled = &shuffled;
    let fold_flags = &fold_flags;
    // Per job and per reduce worker: the sorted parts of the partitions the
    // worker took, back to back.
    type ReducedParts<J> = Vec<Vec<(<J as MapReduceJob>::K, <J as MapReduceJob>::Out)>>;
    let reduced: Vec<ReducedParts<J>> = pool.broadcast(num_threads, &|_| {
        let mut out: ReducedParts<J> = (0..num_jobs).map(|_| Vec::new()).collect();
        loop {
            let p = next_partition.fetch_add(1, Ordering::Relaxed);
            if p >= num_partitions {
                break;
            }
            let part = std::mem::take(&mut *shuffled[p].lock());
            // Untag: fold jobs merge into one value per key, the others
            // group their values per key for the shared sort-group-reduce.
            let mut folded: Vec<FxHashMap<J::K, J::V>> =
                (0..num_jobs).map(|_| FxHashMap::default()).collect();
            let mut grouped: Vec<Groups<J::K, J::V>> = (0..num_jobs).map(|_| Groups::new()).collect();
            for (ji, k, v) in part {
                if fold_flags[ji] {
                    fold_into(jobs[ji], &mut folded[ji], k, v);
                } else {
                    grouped[ji].push(key_hash(&k), k, v);
                }
            }
            for (ji, (map, groups)) in folded.into_iter().zip(grouped).enumerate() {
                reduce_folded(jobs[ji], map, &mut out[ji]);
                sort_group_reduce(jobs[ji], [groups], &mut out[ji]);
            }
        }
        out
    });

    // Per job: each key lives in one partition and each partition's part is
    // sorted, so the concatenation is a duplicate-free sequence of sorted
    // runs: `from_iter`'s stable sort merges them, then bulk-builds.
    let mut flat: Vec<Vec<(J::K, J::Out)>> = (0..num_jobs).map(|_| Vec::new()).collect();
    for worker in reduced {
        for (ji, mut part) in worker.into_iter().enumerate() {
            flat[ji].append(&mut part);
        }
    }
    let records: Vec<BTreeMap<J::K, J::Out>> = flat.into_iter().map(BTreeMap::from_iter).collect();
    if let (Some(c), Some(t0)) = (core, reduce_t0) {
        c.tracer
            .span("merged_reduce_phase", t0, Ids::none().jobs(num_jobs as u64));
    }

    records
        .into_iter()
        .enumerate()
        .map(|(ji, recs)| {
            let stats = ScanStats {
                blocks_scanned: num_blocks as u64,
                bytes_scanned,
                map_output_records: per_job_emitted[ji],
                reduce_output_records: recs.len() as u64,
            };
            JobOutput {
                records: recs,
                stats,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_job;
    use crate::types::test_jobs::PrefixCount;

    fn store() -> BlockStore {
        let text =
            "alpha beta alpha gamma\nbeta delta alpha\nepsilon beta gamma delta\n".repeat(40);
        BlockStore::from_text(&text, 256)
    }

    fn cfg() -> ExecConfig {
        ExecConfig {
            num_threads: 4,
            num_reducers: 5,
        ..ExecConfig::default()
        }
    }

    #[test]
    fn merged_equals_independent() {
        // The central correctness property of shared scanning.
        let jobs = [
            PrefixCount { prefix: "a".into() },
            PrefixCount { prefix: "b".into() },
            PrefixCount { prefix: "".into() },
            PrefixCount { prefix: "zz".into() }, // empty output
        ];
        let refs: Vec<&PrefixCount> = jobs.iter().collect();
        let merged = run_merged(&refs, &store(), &cfg());
        for (job, m) in jobs.iter().zip(&merged) {
            let solo = run_job(job, &store(), &cfg());
            assert_eq!(m.records, solo.records, "prefix {:?}", job.prefix);
            assert_eq!(
                m.stats.map_output_records, solo.stats.map_output_records,
                "map output must match per job"
            );
        }
    }

    #[test]
    fn merged_scans_once() {
        let jobs = [
            PrefixCount { prefix: "a".into() },
            PrefixCount { prefix: "b".into() },
        ];
        let refs: Vec<&PrefixCount> = jobs.iter().collect();
        let s = store();
        let merged = run_merged(&refs, &s, &cfg());
        // Every output reports the single shared scan, not one per job.
        for m in &merged {
            assert_eq!(m.stats.blocks_scanned as usize, s.num_blocks());
            assert_eq!(m.stats.bytes_scanned as usize, s.total_bytes());
        }
    }

    #[test]
    fn single_job_merge_degenerates_to_run_job() {
        let j = PrefixCount { prefix: "d".into() };
        let merged = run_merged(&[&j], &store(), &cfg());
        let solo = run_job(&j, &store(), &cfg());
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].records, solo.records);
    }

    #[test]
    fn merged_on_shared_pool_equals_fresh_pools() {
        let jobs = [
            PrefixCount { prefix: "a".into() },
            PrefixCount { prefix: "ga".into() },
        ];
        let refs: Vec<&PrefixCount> = jobs.iter().collect();
        let s = store();
        let pool = WorkerPool::new(3);
        let on_pool = run_merged_on(&pool, &refs, &s, &cfg());
        let fresh = run_merged(&refs, &s, &cfg());
        for (a, b) in on_pool.iter().zip(&fresh) {
            assert_eq!(a.records, b.records);
            assert_eq!(a.stats, b.stats);
        }
        assert_eq!(pool.threads_spawned(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_merge_panics() {
        let refs: Vec<&PrefixCount> = vec![];
        run_merged(&refs, &store(), &cfg());
    }
}
