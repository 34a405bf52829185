//! Batch execution: one or many jobs over one pass of the store, on a
//! persistent [`WorkerPool`].
//!
//! This is the execution primitive both MRShare batches and S³ merged
//! sub-jobs rely on: each block is read **once**, per-token jobs share one
//! tokenization and one predicate lookup of it, and every job's map runs
//! over the same records into its own accumulator. The correctness
//! contract — outputs identical to running each job alone — is what makes
//! shared scanning a pure optimization; a solo job is simply a one-rider
//! merged scan, so [`run_job`] *is* [`run_merged`] of one.
//!
//! There is one batch function, [`run_merged_observed`]. It owns only the
//! block walk; what happens to a block and to the accumulators afterwards
//! is the map core (`fanout::scan_block_for_job`) and the reduce core
//! (`reduce::{split_into_bins, reduce_bin, assemble}`) the
//! [`SharedScanServer`](crate::SharedScanServer) runs too.
//! [`run_job_legacy`] is the reference all of them are tested against: a
//! sequential function that shares none of that code.

use crate::fanout::{scan_block_for_job, Plan, RiderIndex, Selection};
use crate::pool::{BlockClaims, WorkProgress, WorkerPool};
use crate::reduce::{assemble, reduce_bin, split_into_bins, JobAcc, JobPartial};
use crate::store::BlockStore;
use crate::types::{ConfigError, MapReduceJob};
use parking_lot::Mutex;
use s3_obs::trace::Ids;
use s3_obs::Obs;
use std::collections::BTreeMap;

/// Execution parameters.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker threads for the map and reduce phases. (Ignored by
    /// [`run_merged_observed`], which sizes to the pool it is given.)
    pub num_threads: usize,
    /// Number of reduce shards; a key goes to the shard its hash picks.
    /// Zero clamps to one.
    pub num_reducers: usize,
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
        }
    }
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

/// Run one job over the whole store: [`run_merged`] of one rider.
///
/// # Panics
/// Panics if `cfg` has zero threads, and with the job's own payload if its
/// code panics.
pub fn run_job<J: MapReduceJob>(job: &J, store: &BlockStore, cfg: &ExecConfig) -> JobOutput<J::K, J::Out> {
    run_merged(&[job], store, cfg)
        .pop()
        .expect("one job in, one output out")
}

/// Run every job in `jobs` over one shared scan of `store`.
///
/// Returns one [`JobOutput`] per job, in order. Each output's
/// `stats.blocks_scanned` reports the *shared* scan (the store is read once
/// in total, not once per job); `map_output_records` is per job.
///
/// Spawns one [`WorkerPool`] of `cfg.num_threads` for the call; to amortize
/// pool creation over many calls, create a pool once and use
/// [`run_merged_observed`].
///
/// # Panics
/// Panics if `jobs` is empty or `cfg` has zero threads, and with a job's
/// own payload if its code panics.
pub fn run_merged<J: MapReduceJob>(
    jobs: &[&J],
    store: &BlockStore,
    cfg: &ExecConfig,
) -> Vec<JobOutput<J::K, J::Out>> {
    assert!(cfg.num_threads > 0, "need at least one thread");
    let pool = WorkerPool::new(cfg.num_threads);
    run_merged_observed(&pool, jobs, store, cfg, &Obs::off())
}

/// The batch executor: a shared scan on an existing pool (thread creation
/// stays O(pools) however many batches run; `cfg.num_threads` is ignored),
/// recording `map_phase` / `reduce_phase` spans (the `n` id carries the
/// rider count) plus the `engine.*` scan, shuffle, and combiner counters
/// into `obs`. [`Obs::off`] costs one branch per phase.
///
/// Workers claim blocks off one cursor; each block is tokenized and
/// indexed once, then mapped rider by rider into that worker's partials.
/// Then, job by job: hand the partials over to the reduce shards, reduce
/// the shards in parallel on the pool, assemble the relation.
///
/// User code is not quarantined here: a panic in any rider's map, combine
/// or reduce code re-raises on the caller with its original payload once
/// the phase's other tasks have finished, and the pool stays usable.
///
/// # Panics
/// Panics if `jobs` is empty, and as described above.
pub fn run_merged_observed<J: MapReduceJob>(
    pool: &WorkerPool,
    jobs: &[&J],
    store: &BlockStore,
    cfg: &ExecConfig,
    obs: &Obs,
) -> Vec<JobOutput<J::K, J::Out>> {
    assert!(!jobs.is_empty(), "merged run needs at least one job");
    // A zero reducer count clamps to one shard (validated construction via
    // [`ExecConfig::try_new`] reports it as a typed [`ConfigError`]).
    let nshards = cfg.num_reducers.max(1);
    let core = obs.core();
    let num_blocks = store.num_blocks();
    let fan_out = pool.num_threads().min(num_blocks).max(1);
    let progress = WorkProgress::new(num_blocks);
    let plans: Vec<Plan> = jobs.iter().map(|job| Plan::of(*job)).collect();
    let fan = RiderIndex::over(&plans);

    // ---- map phase ----
    let map_t0 = core.map(|c| c.tracer.now_us());
    let workers: Vec<(Vec<JobPartial<J>>, u64)> = pool.broadcast(fan_out, &|_| {
        // A lone worker claims blocks from a private counter — the shared
        // progress word is only touched when siblings actually race.
        let mut claims = if fan_out == 1 {
            BlockClaims::solo(num_blocks)
        } else {
            BlockClaims::shared(&progress)
        };
        let mut partials: Vec<JobPartial<J>> =
            plans.iter().map(|plan| JobPartial::new(plan, nshards)).collect();
        let mut sel = Selection::default();
        let mut bytes = 0u64;
        while let Some(idx) = claims.claim() {
            let block = store.block(idx);
            bytes += block.len() as u64;
            fan.select(block, &mut sel);
            for (rider, (job, partial)) in jobs.iter().zip(&mut partials).enumerate() {
                scan_block_for_job(*job, block, &fan, &sel, rider, partial);
            }
        }
        (partials, bytes)
    });
    // Per job: what it emitted, and its accumulators in worker order.
    let mut bytes_scanned = 0u64;
    let mut per_job: Vec<(u64, Vec<JobAcc<J>>)> = jobs.iter().map(|_| (0, Vec::new())).collect();
    for (partials, bytes) in workers {
        bytes_scanned += bytes;
        for ((emitted, accs), partial) in per_job.iter_mut().zip(partials) {
            *emitted += partial.emitted;
            accs.push(partial.acc);
        }
    }
    if let (Some(c), Some(t0)) = (core, map_t0) {
        c.tracer
            .span("map_phase", t0, Ids::none().jobs(jobs.len() as u64));
    }

    // ---- reduce phase ----
    let reduce_t0 = core.map(|c| c.tracer.now_us());
    let mut map_records = 0u64;
    let mut shuffle_records = 0u64;
    let outputs = jobs
        .iter()
        .zip(&plans)
        .zip(per_job)
        .map(|((job, plan), (emitted, accs))| {
            let (inputs, bin_records) = split_into_bins(*job, plan, accs, nshards);
            map_records += emitted;
            shuffle_records += bin_records.iter().sum::<u64>();
            // Each bin's task takes its input by move.
            let inputs: Vec<_> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
            let parts = pool.broadcast(nshards, &|bin| {
                let input = inputs[bin].lock().take().expect("a bin is reduced once");
                reduce_bin(*job, input)
            });
            let stats = ScanStats {
                blocks_scanned: num_blocks as u64,
                bytes_scanned,
                map_output_records: emitted,
                reduce_output_records: 0, // filled by `assemble`
            };
            assemble::<J>(parts, stats)
        })
        .collect();
    if let (Some(c), Some(t0)) = (core, reduce_t0) {
        c.tracer
            .span("reduce_phase", t0, Ids::none().jobs(jobs.len() as u64));
        let m = &c.metrics;
        m.counter("engine.map_records").add(map_records);
        m.counter("engine.blocks_scanned").add(num_blocks as u64);
        m.counter("engine.bytes_scanned").add(bytes_scanned);
        m.counter("engine.shuffle_records").add(shuffle_records);
        // Combiner effectiveness, post hoc: every emitted record a fold
        // accumulator absorbed is one record the shuffle never saw.
        m.counter("engine.combiner_fold_hits")
            .add(map_records.saturating_sub(shuffle_records));
    }
    outputs
}

/// The reference executor every other one is tested against: one thread,
/// one pass, no kernel, no index, no accumulator shapes, no partitioning —
/// each block lossily decoded, split with `str::lines`, mapped through
/// [`MapReduceJob::map`], grouped in a `BTreeMap`, then
/// [`combine`](MapReduceJob::combine) and
/// [`reduce`](MapReduceJob::reduce) once per key, with exact [`ScanStats`].
/// It shares no line with the code it checks (DESIGN.md, "One map core,
/// one reduce core"), which is why it ignores every declared fast path.
pub fn run_job_legacy<J: MapReduceJob>(job: &J, store: &BlockStore) -> JobOutput<J::K, J::Out> {
    let mut stats = ScanStats::default();
    let mut groups: BTreeMap<J::K, Vec<J::V>> = BTreeMap::new();
    for block in store.iter() {
        stats.blocks_scanned += 1;
        stats.bytes_scanned += block.len() as u64;
        for line in String::from_utf8_lossy(block).lines() {
            job.map(line, &mut |k, v| {
                stats.map_output_records += 1;
                groups.entry(k).or_default().push(v);
            });
        }
    }
    let mut records = BTreeMap::new();
    for (key, values) in groups {
        let values = job.combine(&key, values);
        if let Some(out) = job.reduce(&key, &values) {
            records.insert(key, out);
        }
    }
    stats.reduce_output_records = records.len() as u64;
    JobOutput { records, stats }
}

/// [`run_job_legacy`] per job — the reference for [`run_merged`]: a merged
/// scan must compute exactly what solo runs compute.
pub fn run_merged_legacy<J: MapReduceJob>(jobs: &[&J], store: &BlockStore) -> Vec<JobOutput<J::K, J::Out>> {
    jobs.iter().map(|job| run_job_legacy(*job, store)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::test_jobs::PrefixCount;

    fn store() -> BlockStore {
        let text = "apple banana apple\ncherry apple banana\napricot cherry\n".repeat(50);
        BlockStore::from_text(&text, 200)
    }

    fn cfg(num_threads: usize, num_reducers: usize) -> ExecConfig {
        ExecConfig {
            num_threads,
            num_reducers,
        }
    }

    fn count(prefix: &str) -> PrefixCount {
        PrefixCount { prefix: prefix.into() }
    }

    #[test]
    fn wordcount_is_correct() {
        let out = run_job(&count(""), &store(), &cfg(4, 4));
        assert_eq!(out.records["apple"], 150);
        assert_eq!(out.records["banana"], 100);
        assert_eq!(out.records["cherry"], 100);
        assert_eq!(out.records["apricot"], 50);
        assert_eq!(out.stats.map_output_records, 400);
        assert_eq!(out.stats.reduce_output_records, 4);
    }

    #[test]
    fn prefix_filter_restricts_output() {
        let out = run_job(&count("ap"), &store(), &ExecConfig::default());
        assert_eq!(out.records.len(), 2); // apple, apricot
        assert_eq!(out.records["apple"], 150);
    }

    #[test]
    fn thread_and_reducer_counts_do_not_change_results() {
        let base = run_job_legacy(&count(""), &store());
        for threads in [1, 2, 4, 8] {
            for reducers in [1, 2, 3, 7, 16] {
                let out = run_job(&count(""), &store(), &cfg(threads, reducers));
                assert_eq!(out, base, "threads={threads} reducers={reducers}");
            }
        }
    }

    #[test]
    fn merged_equals_independent() {
        // The central correctness property of shared scanning.
        let jobs = [count("a"), count("b"), count(""), count("zz")]; // "zz": empty output
        let refs: Vec<&PrefixCount> = jobs.iter().collect();
        let s = store();
        let merged = run_merged(&refs, &s, &cfg(4, 5));
        assert_eq!(merged, run_merged_legacy(&refs, &s));
        for (job, m) in jobs.iter().zip(&merged) {
            assert_eq!(*m, run_job(job, &s, &cfg(4, 5)), "prefix {:?}", job.prefix);
            // Every output reports the single shared scan, not one per job.
            assert_eq!(m.stats.blocks_scanned as usize, s.num_blocks());
            assert_eq!(m.stats.bytes_scanned as usize, s.total_bytes());
        }
    }

    #[test]
    fn pool_reuse_across_batches_matches_fresh_pools() {
        let s = store();
        let pool = WorkerPool::new(3);
        for prefixes in [&["", "ap"][..], &["ba"], &["zz", "a", "ch"]] {
            let jobs: Vec<PrefixCount> = prefixes.iter().map(|p| count(p)).collect();
            let refs: Vec<&PrefixCount> = jobs.iter().collect();
            let on_pool = run_merged_observed(&pool, &refs, &s, &cfg(3, 4), &Obs::off());
            assert_eq!(on_pool, run_merged(&refs, &s, &cfg(3, 4)), "prefixes {prefixes:?}");
        }
        assert_eq!(pool.threads_spawned(), 3, "one pool for all three batches");
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_merge_panics() {
        let refs: Vec<&PrefixCount> = vec![];
        run_merged(&refs, &store(), &cfg(4, 5));
    }
}
