//! The S³ shared scan scheduler (Sections IV-B through IV-D).
//!
//! ## How it maps to the paper
//!
//! - **Round-robin data scan** (IV-B): each input file gets a scan state
//!   holding a [`Revolution`]: a circular block cursor and every queued
//!   job's blocks still to scan. Sub-jobs always cover the next run of
//!   blocks, wrapping from the last block to the first. A job admitted
//!   mid-scan starts at the cursor and finishes when the cursor has swept
//!   one full revolution past its entry point. The module is the engine's
//!   too; this scheduler cuts segments by [`Align::Shorten`]: a sub-job
//!   shrinks to its smallest member's remaining span.
//! - **Job Queue Manager** (IV-C, Algorithm 1): the set of active jobs per
//!   file is the Job Queue. Every iteration, all queued jobs that still
//!   need data are merged into one batch over the next segment — the
//!   merged sub-job — and submitted.
//! - **Partial job initialization** (IV-D): exactly one merged sub-job per
//!   scan is in its map phase at any time; its reduces overlap the next
//!   sub-job's maps on the separate reduce slots. New arrivals join the
//!   *next* iteration (dynamic sub-job adjustment); a per-sub-job
//!   submission overhead models runtime sub-job initialization.
//! - **Periodic slot checking** (IV-D-1): with a check period configured,
//!   the scheduler samples every node's effective speed on a timer,
//!   excludes slow nodes from assignment, and — under
//!   [`SubJobSizing::Dynamic`] — recomputes the next sub-job's size from
//!   the healthy slot count.
//!
//! ## Example
//!
//! Two overlapping jobs over one file share most of the scan:
//!
//! ```
//! use s3_cluster::{ClusterTopology, SlowdownSchedule};
//! use s3_core::S3Scheduler;
//! use s3_mapreduce::{job::requests_from_arrivals, simulate, CostModel, EngineConfig};
//! use s3_workloads::{per_node_file, wordcount_normal};
//!
//! let cluster = ClusterTopology::paper_cluster();
//! let dataset = per_node_file(&cluster, "in", 1, 64); // 40 GB, 640 blocks
//! let workload = requests_from_arrivals(&wordcount_normal(), dataset.file, &[0.0, 10.0]);
//! let metrics = simulate(
//!     &cluster, &SlowdownSchedule::none(), &dataset.dfs, &CostModel::default(),
//!     &workload, &mut S3Scheduler::default(), &EngineConfig::default(),
//! ).unwrap();
//! assert_eq!(metrics.outcomes.len(), 2);
//! // Far fewer than two full scans were needed.
//! assert!(metrics.blocks_read < 2 * 640);
//! assert!(metrics.mb_saved() > 0.0);
//! ```

use s3_cluster::NodeId;
use s3_dfs::{BlockId, FileId};
use s3_mapreduce::{
    Batch, BatchKey, JobId, MapTaskSpec, Priority, ReduceTaskSpec, SchedCtx, Scheduler,
};
use s3_obs::revolution::{Align, Revolution};
use s3_sim::SimDuration;
use std::collections::BTreeMap;

/// How large each merged sub-job (segment) is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubJobSizing {
    /// A fixed number of blocks per sub-job.
    FixedBlocks(u32),
    /// `waves` full waves of the cluster's map slots per sub-job
    /// (the paper's `m` blocks — one wave — times a wave multiplier).
    Waves(u32),
    /// Like [`SubJobSizing::Waves`], but sized from the *healthy* slot
    /// count sampled by periodic slot checking instead of the static total
    /// (the paper's dynamic segment-size computation).
    Dynamic {
        /// Waves per sub-job.
        waves: u32,
    },
}

/// Configuration of the S³ scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct S3Config {
    /// Sub-job (segment) sizing policy.
    pub sizing: SubJobSizing,
    /// Period of the slot-checking timer, seconds; `None` disables it.
    pub slot_check_period_s: Option<f64>,
    /// Nodes whose effective speed falls below this multiple of nominal
    /// are excluded from the next round (requires slot checking).
    pub slow_node_threshold: f64,
    /// Per-iteration Job Queue Manager latency, seconds: analyzing the
    /// queue, aligning the new sub-jobs, and assembling the merged sub-job
    /// (Algorithm 1 lines 1–3) before submission. This recurring cost is
    /// why a single MRShare batch beats S³ when all jobs arrive together
    /// (Figure 4(b)): the paper attributes it to the communication cost of
    /// the many sub-jobs (13 in that experiment).
    pub jqm_latency_s: f64,
    /// Priority-aware admission — the paper's future-work extension
    /// ("more scheduling policies, such as ... job priorities, can be
    /// added to S³"). `None` reproduces the baseline priority-oblivious
    /// behaviour.
    pub priority_policy: Option<PriorityPolicy>,
    /// How a job's per-sub-job partial outputs are collected into its
    /// final result (Section V-G's closing discussion).
    pub output_collection: OutputCollection,
}

/// Output-collection schemes for S³'s per-sub-job partial results.
///
/// A job split into `k` sub-jobs leaves `k` partial reduce outputs behind.
/// The paper's closing discussion (Section V-G, detailed in the authors'
/// tech report) studies how to stitch them together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputCollection {
    /// Leave the `k` partial files in place; consumers read them like any
    /// multi-reducer output directory. No extra cost — the default, and
    /// the right choice for selection-style jobs whose output is large and
    /// order-free.
    #[default]
    PartialFiles,
    /// A client-side merge pass at job end: read all partials and write
    /// one result. Costs time proportional to the job's total reduce
    /// output plus a per-partial overhead — negligible for wordcount's
    /// 1.5 MB, prohibitive for selection's 40 GB.
    ClientMerge,
    /// The refined scheme: each sub-job's reduce folds the previous
    /// partial aggregate in, so the final result is ready when the last
    /// sub-job finishes ("the final aggregation of all output can be
    /// started earlier without introducing a significant overhead").
    /// Modeled as a small constant finalization latency.
    Incremental,
}

/// Policy of the priority-aware S³ variant.
///
/// High- and normal-priority jobs are merged into every sub-job as usual.
/// Low-priority jobs are admitted only while the merged width stays below
/// the cap; otherwise they are deferred an iteration. Deferral is exact
/// only before a job's first sub-job (its revolution then starts later).
/// A low-priority job deferred after it has started keeps its remaining
/// count but not a contiguous unseen run, so it re-scans some blocks and
/// misses others: `s3sim run scenarios/priority.json` reports those as
/// `scan-coverage` violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorityPolicy {
    /// Maximum merged width (number of jobs) at which low-priority jobs
    /// may still join a sub-job.
    pub low_priority_width_cap: u32,
}

impl Default for S3Config {
    fn default() -> Self {
        S3Config {
            // Five waves per sub-job: on the paper cluster (40 slots) over
            // the 2560-block dataset this yields 13 sub-jobs per job,
            // matching the sub-job count reported for Figure 4(b).
            sizing: SubJobSizing::Waves(5),
            slot_check_period_s: None,
            slow_node_threshold: 0.5,
            jqm_latency_s: 1.8,
            priority_policy: None,
            output_collection: OutputCollection::PartialFiles,
        }
    }
}

/// An active job inside a scan's Job Queue.
#[derive(Debug, Clone)]
struct ActiveJob {
    id: JobId,
    /// Scheduling priority (used only by the priority-aware extension).
    priority: Priority,
    /// Sub-job batches containing this job that have not fully completed.
    outstanding_batches: u32,
    /// Sub-jobs created for this job (diagnostics; the paper's "number of
    /// rounds required to complete the job").
    subjobs_created: u32,
}

/// Per-file circular scan state.
#[derive(Debug)]
struct ScanState {
    blocks: Vec<BlockId>,
    /// The cursor and each queued job's blocks still to schedule, cut by
    /// the simulator's rule: a sub-job shrinks to its smallest member's
    /// remaining span and wraps around the end of the file.
    rev: Revolution,
    /// The Job Queue: jobs currently being served by this scan.
    queue: Vec<ActiveJob>,
    /// Jobs that finished scanning but still have reduces outstanding.
    draining: Vec<ActiveJob>,
    /// Key of the batch currently in its map phase, if any.
    current: Option<BatchKey>,
}

/// The S³ scheduler.
#[derive(Debug)]
pub struct S3Scheduler {
    config: S3Config,
    scans: BTreeMap<FileId, ScanState>,
    batches: BTreeMap<BatchKey, (FileId, Batch)>,
    next_key: u64,
    /// Nodes currently considered healthy (all, until slot checking runs).
    unhealthy: Vec<NodeId>,
    healthy_slots: Option<u32>,
    slot_check_armed: bool,
    total_subjobs: u64,
    /// Jobs whose partial outputs are being merged: `(job, due time)`.
    finalizing: Vec<(JobId, s3_sim::SimTime)>,
    /// Round-robin cursor over concurrent per-file scans (fair slot
    /// sharing between files).
    scan_rotation: u64,
}

impl Default for S3Scheduler {
    fn default() -> Self {
        Self::new(S3Config::default())
    }
}

impl S3Scheduler {
    /// Create with the given configuration.
    pub fn new(config: S3Config) -> Self {
        assert!(
            config.slow_node_threshold > 0.0 && config.slow_node_threshold <= 1.0,
            "slow-node threshold must be in (0, 1]"
        );
        S3Scheduler {
            config,
            scans: BTreeMap::new(),
            batches: BTreeMap::new(),
            next_key: 0,
            unhealthy: Vec::new(),
            healthy_slots: None,
            slot_check_armed: false,
            total_subjobs: 0,
            finalizing: Vec::new(),
            scan_rotation: 0,
        }
    }

    /// Number of merged sub-jobs submitted so far (diagnostics).
    pub fn total_subjobs(&self) -> u64 {
        self.total_subjobs
    }

    fn subjob_blocks(&self, ctx: &SchedCtx<'_>) -> u32 {
        let slots = ctx.map_slots().max(1);
        match self.config.sizing {
            SubJobSizing::FixedBlocks(b) => b.max(1),
            SubJobSizing::Waves(w) => w.max(1) * slots,
            SubJobSizing::Dynamic { waves } => {
                let healthy = self.healthy_slots.unwrap_or(slots).max(1);
                waves.max(1) * healthy
            }
        }
    }

    /// Algorithm 1, one iteration: if the scan has no sub-job in its map
    /// phase and jobs are waiting, merge them over the next segment and
    /// submit the merged sub-job.
    fn try_launch(&mut self, ctx: &mut SchedCtx<'_>, file: FileId) {
        let size = self.subjob_blocks(ctx);
        let scan = self.scans.get_mut(&file).expect("scan exists");
        if scan.current.is_some() || scan.queue.is_empty() {
            return;
        }

        // Select the jobs merged into this sub-job. Baseline S3 merges
        // everyone in the queue; the priority-aware extension admits
        // high/normal jobs always and low-priority jobs only while the
        // merged width stays under the cap (deferred jobs catch the missed
        // segments on the scan's next revolution).
        let participants: Vec<usize> = match self.config.priority_policy {
            None => (0..scan.queue.len()).collect(),
            Some(policy) => {
                let mut chosen: Vec<usize> = (0..scan.queue.len())
                    .filter(|&i| scan.queue[i].priority >= Priority::Normal)
                    .collect();
                for i in 0..scan.queue.len() {
                    if scan.queue[i].priority == Priority::Low
                        && (chosen.len() as u32) < policy.low_priority_width_cap.max(1)
                    {
                        chosen.push(i);
                    }
                }
                if chosen.is_empty() {
                    // Starvation guard: with only low-priority jobs queued
                    // and a zero cap, still admit the oldest one.
                    chosen.push(0);
                }
                chosen.sort_unstable();
                chosen
            }
        };

        // Alignment constraint: a sub-job may not overrun any member job's
        // remaining span, otherwise that job would rescan data it already
        // processed after the cursor wraps past its entry point. The
        // segment: consecutive blocks from the cursor, circular.
        let jobs: Vec<JobId> = participants.iter().map(|&i| scan.queue[i].id).collect();
        let seg = scan
            .rev
            .next(size as usize, |id| jobs.contains(&JobId(id as u32)));
        let n = scan.blocks.len();
        let seg_blocks: Vec<BlockId> = (0..seg.len)
            .map(|i| scan.blocks[(seg.start + i) % n])
            .collect();
        for &i in &participants {
            let job = &mut scan.queue[i];
            job.outstanding_batches += 1;
            job.subjobs_created += 1;
        }

        let key = BatchKey(self.next_key);
        self.next_key += 1;
        self.total_subjobs += 1;
        // Record dynamic sub-job adjustment in the trace: this launch was
        // sized from the sampled healthy slot count, not the static total.
        if matches!(self.config.sizing, SubJobSizing::Dynamic { .. })
            && self.healthy_slots.is_some_and(|h| h != ctx.map_slots())
        {
            ctx.note_subjob_adjusted(key, jobs.clone());
        }
        // Runtime sub-job initialization (Section IV-D-3): the JQM holds a
        // persistent job context and pre-stages the next batch while the
        // current one runs, so a merged sub-job pays only per-task
        // initialization — not the full job-submission base cost a fresh
        // Hadoop job (FIFO job or MRShare batch) pays.
        let ready = ctx.now
            + SimDuration::from_secs_f64(
                self.config.jqm_latency_s
                    + ctx.cost.task_init_s_per_task * seg_blocks.len() as f64,
            );
        let batch = Batch::new(key, jobs, &seg_blocks, ctx.jobs, ctx.dfs, ready, ctx.map_slots());
        scan.current = Some(key);

        // Jobs whose sweep just completed leave the queue and drain their
        // outstanding reduces.
        let (done, still): (Vec<ActiveJob>, Vec<ActiveJob>) = scan
            .queue
            .drain(..)
            .partition(|j| seg.finished.contains(&(j.id.0 as u64)));
        scan.queue = still;
        scan.draining.extend(done);

        self.batches.insert(key, (file, batch));
    }

    /// Handle a fully completed batch: decrement outstanding counts and
    /// report jobs whose work is entirely done.
    fn on_batch_complete(&mut self, ctx: &mut SchedCtx<'_>, key: BatchKey) {
        let (file, batch) = self.batches.remove(&key).expect("unknown batch");
        let scan = self.scans.get_mut(&file).expect("scan exists");
        let mut finished_jobs = Vec::new();
        for &job in batch.jobs() {
            if let Some(j) = scan.queue.iter_mut().find(|j| j.id == job) {
                j.outstanding_batches -= 1;
            } else if let Some(pos) = scan.draining.iter().position(|j| j.id == job) {
                scan.draining[pos].outstanding_batches -= 1;
                if scan.draining[pos].outstanding_batches == 0 {
                    finished_jobs.push(scan.draining.remove(pos));
                }
            } else {
                unreachable!("job in batch but not tracked by its scan");
            }
        }
        for finished in finished_jobs {
            self.finish_with_output_collection(ctx, file, finished);
        }
    }

    /// Apply the configured output-collection scheme before declaring the
    /// job complete: the `k` per-sub-job partial outputs may need a final
    /// merge (Section V-G).
    fn finish_with_output_collection(
        &mut self,
        ctx: &mut SchedCtx<'_>,
        file: FileId,
        finished: ActiveJob,
    ) {
        let finalize_s = match self.config.output_collection {
            OutputCollection::PartialFiles => 0.0,
            OutputCollection::Incremental => 0.5,
            OutputCollection::ClientMerge => {
                let profile = &ctx.jobs.get(finished.id).profile;
                let file_mb = ctx.dfs.file(file).size_bytes as f64 / s3_dfs::MB as f64;
                let out_mb = profile.reduce_output_mb(profile.map_output_mb(file_mb));
                // Open each partial, stream everything over the network,
                // write the merged result once.
                0.1 * finished.subjobs_created as f64
                    + 2.0 * out_mb / ctx.cost.shuffle_mb_s(ctx.cluster.network())
            }
        };
        if finalize_s <= 0.0 {
            ctx.complete_job(finished.id);
        } else {
            let due = ctx.now + SimDuration::from_secs_f64(finalize_s);
            self.finalizing.push((finished.id, due));
            ctx.request_wakeup(due);
        }
    }

    fn arm_slot_check(&mut self, ctx: &mut SchedCtx<'_>) {
        if self.slot_check_armed {
            return;
        }
        if let Some(period) = self.config.slot_check_period_s {
            ctx.request_wakeup(ctx.now + SimDuration::from_secs_f64(period));
            self.slot_check_armed = true;
        }
    }
}

impl Scheduler for S3Scheduler {
    fn name(&self) -> String {
        "S3".into()
    }

    fn on_job_arrival(&mut self, ctx: &mut SchedCtx<'_>, job: JobId) {
        self.arm_slot_check(ctx);
        let req = ctx.jobs.get(job);
        let file = req.file;
        let blocks = ctx.dfs.file(file).blocks.clone();
        let scan = self.scans.entry(file).or_insert_with(|| ScanState {
            rev: Revolution::new(blocks.len(), Align::Shorten),
            blocks,
            queue: Vec::new(),
            draining: Vec::new(),
            current: None,
        });
        // The job enters the Job Queue at the *next* segment to be
        // scheduled (the cursor): alignment is automatic.
        scan.rev.admit(job.0 as u64);
        scan.queue.push(ActiveJob {
            id: job,
            priority: req.priority,
            outstanding_batches: 0,
            subjobs_created: 0,
        });
        self.try_launch(ctx, file);
    }

    fn assign_map(&mut self, ctx: &mut SchedCtx<'_>, node: NodeId) -> Option<MapTaskSpec> {
        if self.unhealthy.contains(&node) {
            return None; // excluded by periodic slot checking
        }
        // Walk each scan's current sub-job. With several files being
        // scanned concurrently, rotate the starting scan per assignment so
        // slots are shared fairly between files instead of always feeding
        // the lowest file id first — the paper's closing suggestion of
        // integrating shared-scan scheduling with partial (fair) resource
        // utilization.
        let keys: Vec<BatchKey> = self
            .scans
            .values()
            .filter_map(|scan| scan.current)
            .collect();
        if keys.is_empty() {
            return None;
        }
        let start = (self.scan_rotation as usize) % keys.len();
        self.scan_rotation = self.scan_rotation.wrapping_add(1);
        for i in 0..keys.len() {
            let key = keys[(start + i) % keys.len()];
            let (_, batch) = self.batches.get_mut(&key).expect("current batch exists");
            if let Some(spec) = batch.next_map_for(node, ctx.now, ctx.dfs, ctx.cluster) {
                return Some(spec);
            }
        }
        None
    }

    fn assign_reduce(&mut self, ctx: &mut SchedCtx<'_>, node: NodeId) -> Option<ReduceTaskSpec> {
        if self.unhealthy.contains(&node) {
            return None;
        }
        self.batches
            .values_mut()
            .find_map(|(_, b)| b.next_reduce(ctx.now))
    }

    fn on_map_complete(&mut self, ctx: &mut SchedCtx<'_>, _node: NodeId, spec: &MapTaskSpec) {
        let key = spec.batch;
        let maps_complete = {
            let (_, batch) = self.batches.get_mut(&key).expect("unknown batch");
            batch.on_map_done();
            batch.maps_complete()
        };
        if maps_complete {
            // This sub-job leaves its map phase: the next iteration of
            // Algorithm 1 can launch while its reduces drain.
            let (file, _) = self.batches[&key];
            let scan = self.scans.get_mut(&file).expect("scan exists");
            if scan.current == Some(key) {
                scan.current = None;
            }
            if self.batches[&key].1.is_complete() {
                // Map-only batches finish right here.
                self.on_batch_complete(ctx, key);
            }
            self.try_launch(ctx, file);
        }
    }

    fn on_reduce_complete(&mut self, ctx: &mut SchedCtx<'_>, _node: NodeId, spec: &ReduceTaskSpec) {
        let key = spec.batch;
        let complete = {
            let (_, batch) = self.batches.get_mut(&key).expect("unknown batch");
            batch.on_reduce_done()
        };
        if complete {
            self.on_batch_complete(ctx, key);
        }
    }

    fn on_map_failed(&mut self, _ctx: &mut SchedCtx<'_>, _node: NodeId, spec: &MapTaskSpec) {
        // The merged sub-job is still in its map phase (a lost map means
        // its maps were not complete), so it is still the scan's current
        // batch and the block will be re-handed to a surviving node.
        let (_, batch) = self.batches.get_mut(&spec.batch).expect("unknown batch");
        batch.requeue_map(spec.block);
    }

    fn on_reduce_failed(&mut self, _ctx: &mut SchedCtx<'_>, _node: NodeId, spec: &ReduceTaskSpec) {
        let (_, batch) = self.batches.get_mut(&spec.batch).expect("unknown batch");
        batch.requeue_reduce(spec.partition);
    }

    fn on_wakeup(&mut self, ctx: &mut SchedCtx<'_>) {
        // Output-collection finalizations that have come due.
        let now = ctx.now;
        let mut i = 0;
        while i < self.finalizing.len() {
            if self.finalizing[i].1 <= now {
                let (job, _) = self.finalizing.swap_remove(i);
                ctx.complete_job(job);
            } else {
                i += 1;
            }
        }

        let Some(period) = self.config.slot_check_period_s else {
            return;
        };
        // Periodic slot checking: sample every node's effective speed and
        // exclude the slow ones from the next round of computation. State
        // *changes* (a node newly excluded, or a previously slow node
        // recovering and being re-admitted) are recorded in the trace so
        // the invariant checker can prove no excluded slot got work.
        let previously = std::mem::take(&mut self.unhealthy);
        let mut healthy_slots = 0u32;
        for node in ctx.cluster.nodes() {
            let nominal = node.spec.speed_factor.max(f64::MIN_POSITIVE);
            let effective = ctx.effective_speed(node.id);
            if effective / nominal < self.config.slow_node_threshold {
                self.unhealthy.push(node.id);
                if !previously.contains(&node.id) {
                    ctx.note_slot_excluded(node.id);
                }
            } else {
                healthy_slots += node.spec.map_slots;
                if previously.contains(&node.id) {
                    ctx.note_slot_readmitted(node.id);
                }
            }
        }
        self.healthy_slots = Some(healthy_slots.max(1));
        ctx.request_wakeup(ctx.now + SimDuration::from_secs_f64(period));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_cluster::{ClusterTopology, SlowdownSchedule, SpeedProfile};
    use s3_dfs::{Dfs, RoundRobinPlacement, MB};
    use s3_mapreduce::{simulate, CostModel, EngineConfig, JobProfile, RunMetrics};
    use s3_sim::SimTime;
    use std::sync::Arc;

    fn world(blocks: u64) -> (ClusterTopology, Dfs, FileId) {
        let cluster = ClusterTopology::paper_cluster();
        let mut dfs = Dfs::new();
        let file = dfs
            .create_file(
                &cluster,
                "in",
                blocks * 64 * MB,
                64 * MB,
                1,
                &mut RoundRobinPlacement::default(),
            )
            .unwrap();
        (cluster, dfs, file)
    }

    fn wc_profile() -> Arc<JobProfile> {
        Arc::new(JobProfile {
            name: "wc".into(),
            map_cpu_s_per_mb: 0.0015,
            map_output_ratio: 0.015,
            map_output_records_per_mb: 1526.0,
            reduce_cpu_s_per_mb: 0.02,
            reduce_output_ratio: 0.000625,
            num_reduce_tasks: 30,
        })
    }

    fn run_with(
        sched: &mut S3Scheduler,
        blocks: u64,
        arrivals: &[f64],
        slowdowns: &SlowdownSchedule,
    ) -> RunMetrics {
        let (cluster, dfs, file) = world(blocks);
        let workload = s3_mapreduce::job::requests_from_arrivals(&wc_profile(), file, arrivals);
        simulate(
            &cluster,
            slowdowns,
            &dfs,
            &CostModel::deterministic(),
            &workload,
            sched,
            &EngineConfig::default(),
        )
        .unwrap()
    }

    fn run(blocks: u64, arrivals: &[f64]) -> RunMetrics {
        run_with(
            &mut S3Scheduler::default(),
            blocks,
            arrivals,
            &SlowdownSchedule::none(),
        )
    }

    #[test]
    fn single_job_scans_file_once() {
        let m = run(80, &[0.0]);
        assert_eq!(m.outcomes.len(), 1);
        assert_eq!(m.blocks_read, 80);
        assert!(m.tet().as_secs_f64() > 5.0);
    }

    #[test]
    fn overlapping_jobs_share_most_of_the_scan() {
        // Job 2 arrives early in job 1's scan: most blocks are read once
        // for both jobs.
        let m = run(400, &[0.0, 5.0]);
        // Total reads must be far less than two full scans, but at least
        // one full scan plus what job 1 did alone.
        assert!(m.blocks_read > 400, "blocks {}", m.blocks_read);
        assert!(m.blocks_read < 650, "blocks {}", m.blocks_read);
        assert!(m.mb_saved() > 0.0);
        // Both jobs' responses are near the single-job time: neither waited.
        let r: Vec<f64> = m.outcomes.iter().map(|o| o.response().as_secs_f64()).collect();
        let single = run(400, &[0.0]).tet().as_secs_f64();
        for resp in &r {
            assert!(
                *resp < 1.6 * single,
                "response {resp} vs single-job {single}"
            );
        }
    }

    #[test]
    fn late_job_starts_mid_scan_and_wraps() {
        // With 400 blocks (2 sub-jobs of 200 under Waves(5) on 40 slots),
        // a job arriving during sub-job 1 starts at the cursor and wraps.
        let mut sched = S3Scheduler::default();
        let m = run_with(&mut sched, 400, &[0.0, 8.0], &SlowdownSchedule::none());
        assert_eq!(m.outcomes.len(), 2);
        // Job 1's response is not delayed by a full extra scan.
        let r1 = m.outcomes[1].response().as_secs_f64();
        let r0 = m.outcomes[0].response().as_secs_f64();
        assert!(r1 < r0 * 2.0, "r0={r0} r1={r1}");
    }

    #[test]
    fn subjob_count_matches_geometry() {
        // 400 blocks / (5 waves x 40 slots) = 2 sub-jobs for a lone job.
        let mut sched = S3Scheduler::default();
        run_with(&mut sched, 400, &[0.0], &SlowdownSchedule::none());
        assert_eq!(sched.total_subjobs(), 2);
    }

    #[test]
    fn fixed_block_sizing() {
        let mut sched = S3Scheduler::new(S3Config {
            sizing: SubJobSizing::FixedBlocks(40),
            ..S3Config::default()
        });
        run_with(&mut sched, 200, &[0.0], &SlowdownSchedule::none());
        assert_eq!(sched.total_subjobs(), 5);
    }

    #[test]
    fn every_job_sees_every_block_exactly_once() {
        // Three staggered jobs over a small file: each job's total scanned
        // block count must equal the file size (no skips, no rescans).
        // logical_mb_scanned counts block_mb x jobs per scan, so the sum
        // equals jobs x file_mb exactly when each job covers the file once.
        let m = run(120, &[0.0, 3.0, 6.0]);
        let file_mb = 120.0 * 64.0;
        assert!(
            (m.logical_mb_scanned - 3.0 * file_mb).abs() < 1e-6,
            "each job must scan the file exactly once: {} vs {}",
            m.logical_mb_scanned,
            3.0 * file_mb
        );
    }

    #[test]
    fn slot_checking_excludes_slow_nodes() {
        // Node 7 runs at 10% speed from t=0: with slot checking on, S3
        // must flag and exclude it and still finish; the no-stall case is
        // implicit in simulate() returning Ok.
        let slowdowns = SlowdownSchedule::none().with(
            NodeId(7),
            SpeedProfile::nominal().change_at(SimTime::ZERO, 0.1),
        );
        let mut sched = S3Scheduler::new(S3Config {
            sizing: SubJobSizing::Dynamic { waves: 5 },
            slot_check_period_s: Some(5.0),
            slow_node_threshold: 0.5,
            ..S3Config::default()
        });
        let m = run_with(&mut sched, 200, &[0.0], &slowdowns);
        assert_eq!(m.outcomes.len(), 1);
        assert!(!sched.unhealthy.is_empty(), "node 7 should be flagged");
        assert_eq!(sched.healthy_slots, Some(39));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(200, &[0.0, 10.0]);
        let b = run(200, &[0.0, 10.0]);
        assert_eq!(a.tet(), b.tet());
        assert_eq!(a.art(), b.art());
        assert_eq!(a.blocks_read, b.blocks_read);
    }

    #[test]
    fn jobs_on_different_files_scan_independently() {
        // Two files, one job each plus one sharing pair: the scheduler
        // keeps an independent circular scan per file and stays
        // deterministic (ordered scan map).
        let cluster = ClusterTopology::paper_cluster();
        let mut dfs = Dfs::new();
        let file_a = dfs
            .create_file(&cluster, "a", 600 * 64 * MB, 64 * MB, 1,
                &mut RoundRobinPlacement::default())
            .unwrap();
        let file_b = dfs
            .create_file(&cluster, "b", 400 * 64 * MB, 64 * MB, 1,
                &mut RoundRobinPlacement { offset: 7 })
            .unwrap();
        let profile = wc_profile();
        let mk = |id: u32, file, t: f64| s3_mapreduce::JobRequest {
            id: s3_mapreduce::JobId(id),
            profile: std::sync::Arc::clone(&profile),
            file,
            submit: SimTime::from_secs_f64(t),
            priority: s3_mapreduce::Priority::Normal,
        };
        let workload = vec![
            mk(0, file_a, 0.0),
            mk(1, file_b, 2.0),
            mk(2, file_a, 4.0),
        ];
        let run = |seed: u64| {
            simulate(
                &cluster,
                &SlowdownSchedule::none(),
                &dfs,
                &CostModel::deterministic(),
                &workload,
                &mut S3Scheduler::default(),
                &EngineConfig { seed, ..EngineConfig::default() },
            )
            .unwrap()
        };
        let m = run(1);
        assert_eq!(m.outcomes.len(), 3);
        // Jobs 0 and 2 share file A's scan; job 1 scans file B alone:
        // logical volume = 2x fileA + 1x fileB.
        let expected = 2.0 * 600.0 * 64.0 + 400.0 * 64.0;
        assert!((m.logical_mb_scanned - expected).abs() < 1e-6);
        // Sharing happened on file A.
        assert!(m.mb_read < expected);
        // Deterministic across runs despite two concurrent scans.
        let m2 = run(1);
        assert_eq!(m.tet(), m2.tet());
        assert_eq!(m.blocks_read, m2.blocks_read);
    }

    #[test]
    fn concurrent_scans_share_slots_fairly() {
        // Two equal files with one job each, submitted together: the
        // rotating scan cursor should let both make progress concurrently
        // instead of feeding the lower file id first, so the completion
        // times land close together (each job gets ~half the slots).
        let cluster = ClusterTopology::paper_cluster();
        let mut dfs = Dfs::new();
        let file_a = dfs
            .create_file(&cluster, "a", 400 * 64 * MB, 64 * MB, 1,
                &mut RoundRobinPlacement::default())
            .unwrap();
        let file_b = dfs
            .create_file(&cluster, "b", 400 * 64 * MB, 64 * MB, 1,
                &mut RoundRobinPlacement { offset: 11 })
            .unwrap();
        let profile = wc_profile();
        let mk = |id: u32, file| s3_mapreduce::JobRequest {
            id: s3_mapreduce::JobId(id),
            profile: std::sync::Arc::clone(&profile),
            file,
            submit: SimTime::ZERO,
            priority: s3_mapreduce::Priority::Normal,
        };
        let workload = vec![mk(0, file_a), mk(1, file_b)];
        let m = simulate(
            &cluster,
            &SlowdownSchedule::none(),
            &dfs,
            &CostModel::deterministic(),
            &workload,
            &mut S3Scheduler::default(),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(m.outcomes.len(), 2);
        let done: Vec<f64> = m
            .outcomes
            .iter()
            .map(|o| o.completed.as_secs_f64())
            .collect();
        let gap = (done[0] - done[1]).abs();
        let span = m.tet().as_secs_f64();
        assert!(
            gap < 0.25 * span,
            "files should finish near-simultaneously: {done:?} (gap {gap:.1}s of {span:.1}s)"
        );
    }

    #[test]
    fn priority_policy_defers_low_jobs_but_completes_them() {
        use s3_mapreduce::job::requests_with_priorities;
        use s3_mapreduce::Priority;

        let (cluster, dfs, file) = world(400);
        // One high-priority job and three low-priority jobs arriving
        // together; cap the merge width at 2 so lows take turns.
        let workload = requests_with_priorities(
            &wc_profile(),
            file,
            &[
                (0.0, Priority::High),
                (0.1, Priority::Low),
                (0.2, Priority::Low),
                (0.3, Priority::Low),
            ],
        );
        let mut prio = S3Scheduler::new(S3Config {
            priority_policy: Some(PriorityPolicy {
                low_priority_width_cap: 2,
            }),
            ..S3Config::default()
        });
        let m = simulate(
            &cluster,
            &SlowdownSchedule::none(),
            &dfs,
            &CostModel::deterministic(),
            &workload,
            &mut prio,
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(m.outcomes.len(), 4, "deferred jobs must still finish");
        // Every job still scans the whole file exactly once.
        let expected = 4.0 * 400.0 * 64.0;
        assert!((m.logical_mb_scanned - expected).abs() < 1e-6);
        // The high-priority job responds fastest.
        let r: Vec<f64> = m
            .outcomes
            .iter()
            .map(|o| o.response().as_secs_f64())
            .collect();
        assert!(
            r[0] <= r[1] && r[0] <= r[2] && r[0] <= r[3],
            "high-priority job must respond first: {r:?}"
        );
        // Deferred low jobs respond slower than they would unprioritized.
        let mut baseline = S3Scheduler::default();
        let base = simulate(
            &cluster,
            &SlowdownSchedule::none(),
            &dfs,
            &CostModel::deterministic(),
            &workload,
            &mut baseline,
            &EngineConfig::default(),
        )
        .unwrap();
        let base_r3 = base.outcomes[3].response().as_secs_f64();
        assert!(
            r[3] > base_r3,
            "capped low job should be slower: {} vs {base_r3}",
            r[3]
        );
    }

    #[test]
    fn output_collection_schemes_order_correctly() {
        // PartialFiles is free, Incremental adds a small constant, and
        // ClientMerge pays for streaming the whole output — which for a
        // selection-like profile (output == input/10) is substantial.
        let run_with_collection = |collection: OutputCollection,
                                   profile: std::sync::Arc<s3_mapreduce::JobProfile>|
         -> f64 {
            let (cluster, dfs, file) = world(400);
            let workload =
                s3_mapreduce::job::requests_from_arrivals(&profile, file, &[0.0]);
            let mut sched = S3Scheduler::new(S3Config {
                output_collection: collection,
                ..S3Config::default()
            });
            simulate(
                &cluster,
                &SlowdownSchedule::none(),
                &dfs,
                &CostModel::deterministic(),
                &workload,
                &mut sched,
                &EngineConfig::default(),
            )
            .unwrap()
            .tet()
            .as_secs_f64()
        };

        let wc = wc_profile();
        let partial = run_with_collection(OutputCollection::PartialFiles, wc.clone());
        let incremental = run_with_collection(OutputCollection::Incremental, wc.clone());
        let merged = run_with_collection(OutputCollection::ClientMerge, wc.clone());
        // Both schemes add a finalization step over raw partial files; for
        // wordcount's ~1.5 MB output even the client merge is tiny (and
        // can undercut Incremental's constant).
        assert!(partial < incremental, "{partial} vs {incremental}");
        assert!(partial < merged, "{partial} vs {merged}");
        assert!(merged - partial < 5.0, "wordcount merge is tiny");

        // A selection-style job (big output) makes ClientMerge expensive.
        let sel = std::sync::Arc::new(s3_mapreduce::JobProfile {
            name: "sel".into(),
            map_cpu_s_per_mb: 0.004,
            map_output_ratio: 0.10,
            map_output_records_per_mb: 800.0,
            reduce_cpu_s_per_mb: 0.002,
            reduce_output_ratio: 1.0,
            num_reduce_tasks: 30,
        });
        let sel_partial = run_with_collection(OutputCollection::PartialFiles, sel.clone());
        let sel_merged = run_with_collection(OutputCollection::ClientMerge, sel);
        assert!(
            sel_merged > sel_partial + 20.0,
            "selection merge must be expensive: {sel_partial} vs {sel_merged}"
        );
    }

    #[test]
    fn only_low_priority_jobs_are_not_starved() {
        use s3_mapreduce::job::requests_with_priorities;
        use s3_mapreduce::Priority;

        let (cluster, dfs, file) = world(200);
        let workload = requests_with_priorities(
            &wc_profile(),
            file,
            &[(0.0, Priority::Low), (5.0, Priority::Low)],
        );
        let mut prio = S3Scheduler::new(S3Config {
            priority_policy: Some(PriorityPolicy {
                low_priority_width_cap: 0,
            }),
            ..S3Config::default()
        });
        let m = simulate(
            &cluster,
            &SlowdownSchedule::none(),
            &dfs,
            &CostModel::deterministic(),
            &workload,
            &mut prio,
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(m.outcomes.len(), 2);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_rejected() {
        S3Scheduler::new(S3Config {
            slow_node_threshold: 0.0,
            ..S3Config::default()
        });
    }
}
