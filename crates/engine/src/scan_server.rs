//! A real, threaded S³ runtime: the paper's circular shared scan as a
//! long-running service.
//!
//! [`SharedScanServer`] owns a [`BlockStore`] organized into segments. Jobs
//! are submitted at any time from any thread; each job joins the scan at
//! the *next* segment boundary, shares every segment scan with whoever else
//! is active, wraps around the end of the file, and completes after exactly
//! one revolution — the S³ execution model (Sections IV-B/IV-C), executed
//! for real rather than simulated.
//!
//! ## Runtime shape
//!
//! The coordinator thread owns two persistent [`WorkerPool`]s created once
//! at server start:
//!
//! - a **scan pool** that executes every segment iteration (previously each
//!   iteration spawned and joined `num_threads` OS threads — a fixed cost
//!   per segment that punished small segments, exactly the configurations
//!   where S³'s responsiveness should shine);
//! - a **reduce pool** that runs job finalization (combine + reduce,
//!   sharded by key hash) *off* the coordinator, so one job finishing a
//!   heavy reduce never stalls the segment cadence of the jobs still
//!   scanning.
//!
//! Map-side state is **worker-persistent**: each pool worker keeps one
//! accumulator per active job across the whole revolution (streamed via
//! [`MapReduceJob::combine_fold`] when the job's shape declares a fold
//! combiner), so segments no longer pay a merge-into-coordinator step.
//!
//! ## Fault tolerance
//!
//! User code is untrusted: a `map`/`combine`/`reduce` that panics fails
//! **its own job** — the handle resolves to
//! [`JobError::Panicked`](crate::JobError::Panicked) carrying the panic
//! message — while the shared scan and every co-riding job continue
//! (quarantine, always on). A server configured with
//! [`FtConfig::resilient`] additionally runs each segment as per-block
//! **claim/commit tasks** scheduled by a work-assisting loop: one packed
//! atomic per segment hands out fresh claims with a single `fetch_add`
//! each, and workers that drain the cursor immediately re-execute the
//! still-uncommitted tail (first result wins, idempotent commit) instead
//! of idling — a lost or straggling block is recovered in block-scan time
//! rather than after an EWMA deadline. The deadline does one job: claims
//! past `max(floor, ewma × slack)` charge their owner a miss, and workers
//! that repeatedly miss deadlines are excluded for a window of iterations
//! then readmitted — the engine analogue of the paper's periodic slot
//! checking and slow-TaskTracker exclusion (Section IV-D).
//! If the runtime itself dies (an injected [`FaultPlan`] coordinator kill,
//! or server shutdown racing a submit), every unresolved handle returns
//! [`JobError::Aborted`](crate::JobError::Aborted) — a handle never hangs
//! and a job is never silently lost.
//!
//! ```
//! use s3_engine::{BlockStore, MapReduceJob, SharedScanServer};
//!
//! struct Count;
//! impl MapReduceJob for Count {
//!     type K = String; type V = i64; type Out = i64;
//!     fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
//!         for w in line.split_whitespace() { emit(w.into(), 1); }
//!     }
//!     fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> { Some(v.iter().sum()) }
//! }
//!
//! let store = BlockStore::from_text("a b a\nc a b\n", 6);
//! let server = SharedScanServer::new(store, 1, 2);
//! let h = server.submit(Count);
//! let out = h.wait().expect("job ran to completion");
//! assert_eq!(out.records["a"], 3);
//! server.shutdown();
//! ```

use crate::exec::ScanStats;
use crate::fanout::{scan_block_for_job, Plan, RiderIndex, Selection};
use crate::fault::{ArmedFaults, FaultPlan, FtConfig};
use crate::pool::{BlockClaims, WorkProgress, WorkerPool};
use crate::reduce::{
    assemble, reduce_bin, split_into_bins, JobAcc, JobPartial, ReducedPart, ShardInput,
};
use crate::store::BlockStore;
use crate::types::{JobError, JobResult, MapReduceJob, PartitionMode};
use parking_lot::{Condvar, Mutex};
use s3_obs::revolution::{Align, Revolution};
use s3_obs::trace::Ids;
use s3_obs::{Counter, Gauge, Histogram, Obs, TraceRecorder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The server's pre-resolved instruments (all under `engine.*`; see the
/// README "Observability" section for the full catalog). Present only on
/// servers whose [`ServerConfig::obs`] is on, so the unobserved hot path
/// pays one `Option` check per instrumentation site.
struct ServerObs {
    obs: Obs,
    jobs_submitted: Arc<Counter>,
    jobs_completed: Arc<Counter>,
    /// Jobs failed individually because their own map/combine/reduce
    /// panicked, while the scan continued for everyone else.
    jobs_quarantined: Arc<Counter>,
    /// Jobs failed because the runtime went away before they finished.
    jobs_aborted: Arc<Counter>,
    /// Jobs failed because their deadline passed mid-revolution.
    jobs_expired: Arc<Counter>,
    /// Tail blocks re-executed by an assisting worker (attempts).
    tasks_speculated: Arc<Counter>,
    /// Blocks whose winning commit came from an **assisting** worker — one
    /// that drained the segment's claim cursor and re-executed the slow
    /// tail instead of waiting for a deadline.
    blocks_assisted: Arc<Counter>,
    /// Exclusion events (a worker may be excluded more than once).
    workers_excluded: Arc<Counter>,
    segments: Arc<Counter>,
    blocks: Arc<Counter>,
    bytes: Arc<Counter>,
    map_records: Arc<Counter>,
    fold_hits: Arc<Counter>,
    active_jobs: Arc<Gauge>,
    /// Workers currently sitting out an exclusion window.
    excluded_workers: Arc<Gauge>,
    /// Adaptive boundary recomputations that changed the segment size.
    segment_resizes: Arc<Counter>,
    /// Current effective blocks-per-segment of the circular scan.
    eff_bps: Arc<Gauge>,
    /// Assisted commits per 10 000 blocks scanned (basis points), updated
    /// at every segment boundary.
    assist_ratio: Arc<Gauge>,
    /// Gap between consecutive segment-scan starts while jobs are active.
    cadence: Arc<Histogram>,
    /// Duration of one segment scan.
    seg_scan: Arc<Histogram>,
    /// Submit → start of the first segment scan that includes the job.
    admission: Arc<Histogram>,
    /// Submit → output published.
    job_latency: Arc<Histogram>,
    /// Duration of the one-time hand-over of a job's accumulated state to
    /// its reduce bins: the flush of fold and token maps (non-fold tables
    /// are routed at emit and cost nothing here). Phase-global work, kept
    /// out of `reduce_shard` so that histogram shows only per-shard reduce
    /// cost (the skew signal) instead of whichever task drew the hand-over.
    shard_split: Arc<Histogram>,
    /// Duration of one reduce-pool finalization shard.
    reduce_shard: Arc<Histogram>,
    /// Records reduced by one finalization shard — the skew signal.
    reduce_shard_records: Arc<Histogram>,
    /// Duration of a completed job's serial tail, on the last shard task:
    /// concatenate the parts, build the output tree, wake the handle.
    publish: Arc<Histogram>,
    /// Original claim → assisted winning commit: how long a lost or
    /// stalled block took to recover.
    recovery_us: Arc<Histogram>,
}

impl ServerObs {
    fn new(obs: &Obs) -> Option<Arc<ServerObs>> {
        let m = &obs.core()?.metrics;
        Some(Arc::new(ServerObs {
            obs: obs.clone(),
            jobs_submitted: m.counter("engine.jobs_submitted"),
            jobs_completed: m.counter("engine.jobs_completed"),
            jobs_quarantined: m.counter("engine.jobs_quarantined"),
            jobs_aborted: m.counter("engine.jobs_aborted"),
            jobs_expired: m.counter("engine.jobs_expired"),
            tasks_speculated: m.counter("engine.tasks_speculated"),
            blocks_assisted: m.counter("engine.blocks_assisted"),
            workers_excluded: m.counter("engine.workers_excluded"),
            segments: m.counter("engine.segments_scanned"),
            blocks: m.counter("engine.blocks_scanned"),
            bytes: m.counter("engine.bytes_scanned"),
            map_records: m.counter("engine.map_records"),
            fold_hits: m.counter("engine.combiner_fold_hits"),
            active_jobs: m.gauge("engine.active_jobs"),
            excluded_workers: m.gauge("engine.excluded_workers"),
            segment_resizes: m.counter("engine.segment_resizes"),
            eff_bps: m.gauge("engine.effective_blocks_per_segment"),
            assist_ratio: m.gauge("engine.assist_ratio"),
            cadence: m.histogram("engine.segment_cadence_us"),
            seg_scan: m.histogram("engine.segment_scan_us"),
            admission: m.histogram("engine.admission_latency_us"),
            job_latency: m.histogram("engine.job_latency_us"),
            shard_split: m.histogram("engine.shard_split_us"),
            reduce_shard: m.histogram("engine.reduce_shard_us"),
            reduce_shard_records: m.histogram("engine.reduce_shard_records"),
            publish: m.histogram("engine.publish_us"),
            recovery_us: m.histogram("engine.recovery_us"),
        }))
    }

    fn tracer(&self) -> &TraceRecorder {
        &self.obs.core().expect("ServerObs only exists when on").tracer
    }
}

/// Per-worker slot: the partials of every job this worker has scanned for.
type Slot<J> = Vec<(u64, JobPartial<J>)>;

/// Sticky record of a job's own code having panicked (or refused a fold it
/// declared); the first recorded error wins. Shared between the scan
/// workers (who record), the coordinator (who quarantines), and the reduce
/// shards (who fail the finalization).
type JobFailure = OnceLock<JobError>;

/// Record a panic payload as the job's failure. A payload that is a
/// [`JobError`] (the engine's own typed failures) is kept as it is, any
/// other becomes [`JobError::Panicked`] with its message.
fn record(failure: &JobFailure, payload: Box<dyn std::any::Any + Send>) {
    let error = match payload.downcast::<JobError>() {
        Ok(error) => *error,
        Err(payload) => JobError::Panicked(payload_to_string(payload)),
    };
    let _ = failure.set(error);
}

fn payload_to_string(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

/// Shared completion slot a [`JobHandle`] waits on.
pub(crate) struct HandleState<K: Ord, Out> {
    done: Mutex<Option<JobResult<K, Out>>>,
    cv: Condvar,
}

impl<K: Ord, Out> HandleState<K, Out> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(HandleState {
            done: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    /// Resolve the slot directly (used by the service for jobs that never
    /// reach a server — shed, expired-in-queue, or drained at shutdown).
    /// First write wins; a later write is dropped.
    pub(crate) fn resolve(&self, result: JobResult<K, Out>) {
        let mut guard = self.done.lock();
        if guard.is_none() {
            *guard = Some(result);
            self.cv.notify_all();
        }
    }
}

/// How a [`Completion`] resolved — the summary handed to an
/// [`on_resolve`](SubmitOpts::on_resolve) observer (the multi-tenant
/// service uses it to keep its admission window and accounting identity
/// without polling handles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResolveKind {
    /// Published an output.
    Completed,
    /// Published [`JobError::Panicked`] or [`JobError::FoldRefused`]
    /// (quarantine).
    Quarantined,
    /// Published [`JobError::Aborted`].
    Aborted,
    /// Published [`JobError::DeadlineExpired`].
    Expired,
}

/// Observer invoked exactly once when a job's completion publishes.
pub(crate) type ResolveHook = Arc<dyn Fn(ResolveKind) + Send + Sync>;

/// Per-job options for the service-routed submit path
/// ([`SharedScanServer::submit_routed`]).
pub(crate) struct SubmitOpts<K: Ord, Out> {
    /// Caller-created completion slot (the client already holds a
    /// [`JobHandle`] over it).
    pub state: Arc<HandleState<K, Out>>,
    /// Absolute deadline enforced by the coordinator's expiry sweep.
    pub expires_at: Option<Instant>,
    /// Resolve observer, invoked exactly once when the job publishes.
    pub on_resolve: Option<ResolveHook>,
}

/// Publish-once guard for one job's result. Whoever ends the job —
/// the last reduce shard (success), the quarantine sweep (panic), the
/// deadline sweep (expiry), or the coordinator's exit path (abort) —
/// publishes through it; if it is dropped without a publish (coordinator
/// unwound, accumulator lost), its `Drop` publishes
/// [`JobError::Aborted`], so a [`JobHandle`] can never hang on a job the
/// runtime forgot.
struct Completion<K: Ord, Out> {
    state: Arc<HandleState<K, Out>>,
    published: AtomicBool,
    /// Invoked exactly once, after the result is visible to the handle.
    on_resolve: Option<ResolveHook>,
}

impl<K: Ord, Out> Completion<K, Out> {
    fn with_hook(state: Arc<HandleState<K, Out>>, on_resolve: Option<ResolveHook>) -> Self {
        Completion {
            state,
            published: AtomicBool::new(false),
            on_resolve,
        }
    }

    /// First publish wins; later calls (including the `Drop` fallback) are
    /// no-ops.
    fn publish(&self, result: JobResult<K, Out>) {
        if self.published.swap(true, Ordering::AcqRel) {
            return;
        }
        let kind = match &result {
            Ok(_) => ResolveKind::Completed,
            Err(JobError::Panicked(_) | JobError::FoldRefused) => ResolveKind::Quarantined,
            Err(JobError::DeadlineExpired) => ResolveKind::Expired,
            // Rejected never reaches a server-side completion; fold any
            // stray into the abort bucket rather than inventing a kind.
            Err(JobError::Aborted) | Err(JobError::Rejected { .. }) => ResolveKind::Aborted,
        };
        // Run the hook BEFORE waking the handle (and with no locks held):
        // service accounting updated by the hook is then causally visible
        // to whoever `wait()`s on this job — a client that sees its job
        // complete also sees it counted.
        if let Some(hook) = &self.on_resolve {
            hook(kind);
        }
        let mut guard = self.state.done.lock();
        *guard = Some(result);
        self.state.cv.notify_all();
    }
}

impl<K: Ord, Out> Drop for Completion<K, Out> {
    fn drop(&mut self) {
        self.publish(Err(JobError::Aborted));
    }
}

/// State of one job inside the server.
struct ActiveJob<J: MapReduceJob> {
    id: u64,
    job: Arc<J>,
    /// The job's shape, resolved once at submission.
    plan: Arc<Plan>,
    completion: Completion<J::K, J::Out>,
    failure: Arc<JobFailure>,
    /// Segments of this job's own revolution already completed (keys
    /// injected map panics deterministically, independent of admission
    /// timing). Where the revolution stands — the blocks still to scan —
    /// is the coordinator's [`Revolution`]'s to track.
    segments_done: u64,
    /// Submission instant in tracer microseconds (0 when unobserved).
    submitted_us: u64,
    /// Whether the job has joined the coordinator's [`Revolution`] (and
    /// its admission latency been recorded).
    admitted: bool,
    /// Absolute deadline: at the first segment boundary past this instant
    /// the job is removed from the scan and its handle resolves to the
    /// sticky [`JobError::DeadlineExpired`]. `None` means no deadline.
    expires_at: Option<Instant>,
}

/// Returned by [`JobHandle::wait_timeout`] when the timeout elapsed before
/// the job resolved. The job is still running (or queued) — the handle
/// remains valid and can be waited on again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeout;

impl std::fmt::Display for WaitTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "timed out waiting for the job to resolve")
    }
}

impl std::error::Error for WaitTimeout {}

/// A ticket for a submitted job; [`JobHandle::wait`] blocks until the
/// job's revolution completes (or fails) and returns the result.
pub struct JobHandle<K: Ord, Out> {
    state: Arc<HandleState<K, Out>>,
}

impl<K: Ord, Out> std::fmt::Debug for JobHandle<K, Out> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("resolved", &self.state.done.lock().is_some())
            .finish()
    }
}

impl<K: Ord, Out> JobHandle<K, Out> {
    pub(crate) fn from_state(state: Arc<HandleState<K, Out>>) -> Self {
        JobHandle { state }
    }

    /// Block until the job resolves: its output relation and stats on
    /// success, or the [`JobError`] that ended it. Never hangs — a job
    /// whose runtime disappears resolves to [`JobError::Aborted`].
    pub fn wait(self) -> JobResult<K, Out> {
        let mut guard = self.state.done.lock();
        loop {
            if let Some(out) = guard.take() {
                return out;
            }
            self.state.cv.wait(&mut guard);
        }
    }

    /// Block until the job resolves or `timeout` elapses, whichever comes
    /// first. Non-consuming: on [`WaitTimeout`] the handle is untouched
    /// and a later `wait`/`wait_timeout`/`try_take` still observes the
    /// eventual result. A poll with `Duration::ZERO` is `try_take` with a
    /// typed miss.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<JobResult<K, Out>, WaitTimeout> {
        let deadline = Instant::now() + timeout;
        let mut guard = self.state.done.lock();
        loop {
            if let Some(out) = guard.take() {
                return Ok(out);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(WaitTimeout);
            }
            // Re-check after every wakeup (spurious or not) against the
            // absolute deadline, so total blocking never exceeds `timeout`.
            self.state.cv.wait_for(&mut guard, deadline - now);
        }
    }

    /// Non-blocking poll.
    pub fn try_take(&self) -> Option<JobResult<K, Out>> {
        self.state.done.lock().take()
    }
}

/// Runtime segment-boundary adaptation — the live-engine port of the
/// paper's *dynamic sub-job adjustment* (Section IV-B): one segment should
/// fill one map wave, so when measured scan cost or the usable worker
/// count drifts, the effective blocks-per-segment is recomputed at the
/// next segment boundary instead of staying frozen at construction.
///
/// The coordinator keeps an EWMA of per-block worker cost (alpha 1/8,
/// measured around each segment scan) and sizes the next segment as
/// `workers * target_cadence / cost`, clamped to
/// `[min_blocks_per_segment, max_blocks_per_segment]`. `workers` is the
/// current non-excluded worker count, so a slot exclusion shrinks the
/// wave and a readmission re-grows it. Every change bumps
/// `engine.segment_resizes`, moves `engine.effective_blocks_per_segment`,
/// and emits a `segment_resized` trace instant (new size in `ids.seg`,
/// old size in `ids.n`).
///
/// Disabled by default: a server with `enabled == false` scans fixed
/// segments of `blocks_per_segment` blocks, byte-identical to the
/// pre-adaptive engine.
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// Turn runtime resizing on.
    pub enabled: bool,
    /// Target wall-clock duration of one segment scan (one map wave).
    pub target_cadence: Duration,
    /// Lower clamp on the effective blocks-per-segment.
    pub min_blocks_per_segment: usize,
    /// Upper clamp on the effective blocks-per-segment.
    pub max_blocks_per_segment: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            enabled: false,
            target_cadence: Duration::from_millis(20),
            min_blocks_per_segment: 1,
            max_blocks_per_segment: 64,
        }
    }
}

/// Full construction parameters of a [`SharedScanServer`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Blocks per segment of the circular scan (the initial effective
    /// size when [`AdaptiveConfig::enabled`] is set).
    pub blocks_per_segment: usize,
    /// Scan-pool width (the reduce pool matches it).
    pub num_threads: usize,
    /// Telemetry handle; [`Obs::off`] disables all recording.
    pub obs: Obs,
    /// Fault-tolerance parameters (speculation, deadlines, exclusion).
    pub ft: FtConfig,
    /// Deterministic fault injection, for tests and the chaos fuzzer.
    pub faults: Option<FaultPlan>,
    /// Adaptive segment sizing (off by default).
    pub adaptive: AdaptiveConfig,
    /// Bind address (`"127.0.0.1:9184"`, port 0 for OS-assigned) for a
    /// Prometheus text-format metrics endpoint served for this server's
    /// lifetime. Ignored unless [`obs`](ServerConfig::obs) is on; see
    /// [`SharedScanServer::metrics_addr`] for the resolved address.
    pub metrics_addr: Option<String>,
    /// Not read: finalization always routes keys to reduce shards by hash.
    /// Kept, with [`PartitionMode`] and its one variant, so configurations
    /// that set it — the benchmark harness's `partition` probe among them —
    /// still build.
    pub partition: PartitionMode,
}

impl ServerConfig {
    /// The default configuration: unobserved, quarantine only (no
    /// speculation), no injected faults, fixed segment boundaries.
    pub fn new(blocks_per_segment: usize, num_threads: usize) -> Self {
        ServerConfig {
            blocks_per_segment,
            num_threads,
            obs: Obs::off(),
            ft: FtConfig::default(),
            faults: None,
            adaptive: AdaptiveConfig::default(),
            metrics_addr: None,
            partition: PartitionMode::Hash,
        }
    }
}

struct ServerShared<J: MapReduceJob> {
    store: BlockStore,
    /// Configured blocks-per-segment: the fixed segment size, or the
    /// initial effective size when adaptive sizing is on. The coordinator
    /// asks its [`Revolution`] for segments of the effective size, cut
    /// from a block cursor by the [`Align::Clip`] rule rather than from
    /// precomputed boundaries, so the size can move at runtime.
    base_bps: usize,
    /// Adaptive segment sizing parameters.
    adaptive: AdaptiveConfig,
    /// Current effective blocks-per-segment (coordinator-written mirror
    /// for [`SharedScanServer::effective_blocks_per_segment`]).
    eff_blocks: AtomicUsize,
    /// Boundary recomputations that changed the effective segment size.
    segment_resizes: AtomicU64,
    pending: Mutex<Vec<ActiveJob<J>>>,
    wakeup: Condvar,
    shutdown: AtomicBool,
    next_job_id: AtomicU64,
    // The three counters below are pure instrumentation: monotonic totals
    // that synchronize nothing and order nothing. Every access is
    // `Ordering::Relaxed` — readers may observe a total that is a few
    // in-flight increments stale, never a torn or decreasing one.
    /// Total block scans performed (shared scans count once).
    blocks_scanned: AtomicU64,
    /// Total segment iterations executed.
    iterations: AtomicU64,
    /// Worker threads the coordinator's pools have spawned (set once at
    /// startup; never grows, which is the point).
    pool_threads_spawned: AtomicU64,
    /// Atomic claim operations issued by segment claim cursors — the
    /// coordination cost of block scheduling. Stays 0 while every segment
    /// runs the solo-worker fast path.
    claim_ops: AtomicU64,
    /// Blocks whose winning commit came from an assisting worker.
    blocks_assisted: AtomicU64,
    /// Fault-tolerance parameters.
    ft: FtConfig,
    /// Injected faults, armed for this server's lifetime.
    faults: Option<Arc<ArmedFaults>>,
    /// Reduce shards per job: the reduce pool's width, which matches the
    /// scan pool's. Fixed here, at construction, because non-fold jobs
    /// route every emitted record to its shard during the scan.
    nshards: usize,
    /// EWMA of block-scan time (µs); drives the claim deadline.
    ewma_block_us: AtomicU64,
    /// Consecutive deadline misses per virtual worker; reset by an
    /// in-deadline commit, drives exclusion.
    misses: Vec<AtomicU32>,
    /// Telemetry, when [`ServerConfig::obs`] is on.
    obs: Option<Arc<ServerObs>>,
}

/// A long-running shared-scan service over one block store.
///
/// All jobs must be of one concrete [`MapReduceJob`] type `J` (as with
/// [`crate::run_merged`], merged jobs must agree on their intermediate
/// schema). The server runs a coordinator thread that performs one merged
/// sub-job per segment iteration on a persistent pool of `num_threads`
/// scan workers, plus `num_threads` reduce workers for job finalization.
pub struct SharedScanServer<J: MapReduceJob + 'static> {
    shared: Arc<ServerShared<J>>,
    coordinator: Option<JoinHandle<()>>,
    /// Prometheus endpoint ([`ServerConfig::metrics_addr`]); stops with
    /// the server.
    exporter: Option<s3_obs::PromServer>,
}

impl<J: MapReduceJob + 'static> SharedScanServer<J> {
    /// Start a server over `store` with segments of `blocks_per_segment`
    /// blocks and `num_threads` scan workers.
    ///
    /// # Panics
    /// Panics if `blocks_per_segment` or `num_threads` is zero.
    pub fn new(store: BlockStore, blocks_per_segment: usize, num_threads: usize) -> Self {
        SharedScanServer::with_config(store, ServerConfig::new(blocks_per_segment, num_threads))
    }

    /// Start a server from a full [`ServerConfig`] — the entry point for
    /// telemetry ([`ServerConfig::obs`]: every submit/admission/segment
    /// scan/reduce shard/completion records into the handle's metrics
    /// registry and trace recorder; see the README "Observability" section
    /// for the instrument and span catalog), the resilient claim loop
    /// ([`FtConfig::resilient`]) and deterministic fault injection
    /// ([`FaultPlan`]).
    ///
    /// # Panics
    /// Panics if `blocks_per_segment` or `num_threads` is zero.
    pub fn with_config(store: BlockStore, config: ServerConfig) -> Self {
        assert!(config.blocks_per_segment > 0, "segments need at least one block");
        assert!(config.num_threads > 0, "need at least one worker");
        if config.adaptive.enabled {
            assert!(
                config.adaptive.min_blocks_per_segment > 0,
                "adaptive segments need at least one block"
            );
            assert!(
                config.adaptive.min_blocks_per_segment <= config.adaptive.max_blocks_per_segment,
                "adaptive clamp bounds must be ordered"
            );
        }
        let num_threads = config.num_threads;
        let eff0 = if config.adaptive.enabled {
            config.blocks_per_segment.clamp(
                config.adaptive.min_blocks_per_segment,
                config.adaptive.max_blocks_per_segment,
            )
        } else {
            config.blocks_per_segment
        };

        let shared = Arc::new(ServerShared {
            store,
            base_bps: config.blocks_per_segment,
            adaptive: config.adaptive,
            eff_blocks: AtomicUsize::new(eff0),
            segment_resizes: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_job_id: AtomicU64::new(0),
            blocks_scanned: AtomicU64::new(0),
            iterations: AtomicU64::new(0),
            pool_threads_spawned: AtomicU64::new(0),
            claim_ops: AtomicU64::new(0),
            blocks_assisted: AtomicU64::new(0),
            ft: config.ft,
            faults: config.faults.as_ref().map(|p| p.arm()),
            nshards: num_threads,
            ewma_block_us: AtomicU64::new(0),
            misses: (0..num_threads).map(|_| AtomicU32::new(0)).collect(),
            obs: ServerObs::new(&config.obs),
        });

        let coord_shared = Arc::clone(&shared);
        let coordinator = std::thread::Builder::new()
            .name("s3-scan-coordinator".into())
            .spawn(move || coordinator_loop(coord_shared, num_threads))
            .expect("spawning the coordinator thread");

        // Live introspection: serve this server's registry over HTTP for
        // as long as the server runs. A bind failure (port in use) is not
        // worth killing the server over — scans work fine unobserved.
        let exporter = match (&config.metrics_addr, config.obs.is_on()) {
            (Some(addr), true) => match s3_obs::PromServer::serve(addr, config.obs.clone()) {
                Ok(srv) => Some(srv),
                Err(e) => {
                    eprintln!("s3-engine: metrics endpoint {addr} failed to bind: {e}");
                    None
                }
            },
            _ => None,
        };

        SharedScanServer {
            shared,
            coordinator: Some(coordinator),
            exporter,
        }
    }

    /// The bound address of the Prometheus metrics endpoint, when
    /// [`ServerConfig::metrics_addr`] was set (and bound successfully) on
    /// an observed server. Resolves port 0 to the OS-assigned port.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.exporter.as_ref().map(|e| e.local_addr())
    }

    /// Number of segments one revolution takes at the *configured*
    /// blocks-per-segment (0 for an empty store). With adaptive sizing on,
    /// the live segment count varies as boundaries move;
    /// [`SharedScanServer::iterations`] counts what actually ran.
    pub fn num_segments(&self) -> usize {
        self.shared.store.num_blocks().div_ceil(self.shared.base_bps)
    }

    /// Current effective blocks-per-segment. Equals the configured
    /// `blocks_per_segment` on a fixed-boundary server; moves within the
    /// [`AdaptiveConfig`] clamp bounds when adaptive sizing is on.
    pub fn effective_blocks_per_segment(&self) -> usize {
        self.shared.eff_blocks.load(Ordering::Relaxed)
    }

    /// Boundary recomputations that changed the effective segment size so
    /// far (always 0 on a fixed-boundary server).
    pub fn segment_resizes(&self) -> u64 {
        self.shared.segment_resizes.load(Ordering::Relaxed)
    }

    /// Total block scans performed so far (a scan shared by k jobs counts
    /// once — that is the point). Tail re-executions are not counted
    /// either; `engine.tasks_speculated` tracks those.
    pub fn blocks_scanned(&self) -> u64 {
        self.shared.blocks_scanned.load(Ordering::Relaxed)
    }

    /// Segment iterations executed so far.
    pub fn iterations(&self) -> u64 {
        self.shared.iterations.load(Ordering::Relaxed)
    }

    /// Atomic claim operations segment scans have issued so far — the
    /// coordination cost of block scheduling in one number. A segment
    /// scanned by a single worker takes the solo fast path and issues
    /// none, so this stays 0 for one-thread servers, one-block segments,
    /// and stores no larger than a segment (the degenerate-store tests
    /// pin exactly that).
    pub fn claim_ops(&self) -> u64 {
        self.shared.claim_ops.load(Ordering::Relaxed)
    }

    /// Blocks whose winning commit came from a work-assisting tail
    /// re-execution (0 unless a [`FtConfig::resilient`] server ever had a
    /// slow or lost tail block).
    pub fn blocks_assisted(&self) -> u64 {
        self.shared.blocks_assisted.load(Ordering::Relaxed)
    }

    /// Worker threads this server's pools have spawned over the server's
    /// whole lifetime (0 until the coordinator finishes starting up).
    /// Always `2 * num_threads` — scan pool plus reduce pool — no matter
    /// how many jobs or segment iterations the server executes; the
    /// instrumentation tests assert thread creation is O(servers).
    pub fn pool_threads_spawned(&self) -> u64 {
        self.shared.pool_threads_spawned.load(Ordering::Relaxed)
    }

    /// Submit a job; it joins the scan at the next segment boundary.
    pub fn submit(&self, job: J) -> JobHandle<J::K, J::Out> {
        self.submit_all(vec![job])
            .pop()
            .expect("one job in, one handle out")
    }

    /// Submit a batch of jobs under one pending-queue lock, so the whole
    /// batch is admitted at the *same* segment boundary. Individual
    /// [`SharedScanServer::submit`] calls in a loop may split across
    /// boundaries depending on scan timing; gang submission makes
    /// admission — and therefore a faulted run's outcome — deterministic,
    /// which the chaos fuzzer's byte-identical replay relies on.
    pub fn submit_all(&self, jobs: Vec<J>) -> Vec<JobHandle<J::K, J::Out>> {
        let mut handles = Vec::with_capacity(jobs.len());
        let mut batch = Vec::with_capacity(jobs.len());
        for job in jobs {
            let state = HandleState::new();
            batch.push(self.build_active(job, Arc::clone(&state), None, None));
            handles.push(JobHandle { state });
        }
        self.shared.pending.lock().append(&mut batch);
        self.shared.wakeup.notify_all();
        if self.shared.shutdown.load(Ordering::SeqCst) {
            // The coordinator may already be gone (e.g. killed by an
            // injected fault). Fail anything it will never pick up rather
            // than letting the handles hang.
            Self::drain_pending(&self.shared);
        }
        handles
    }

    /// Submit one job whose [`HandleState`] was created by the caller —
    /// the [`crate::ScanService`] admission path. The service hands the
    /// handle to the client at enqueue time (so a queued job can be
    /// resolved without ever reaching a server), then routes the job here
    /// on dispatch with its remaining deadline and a resolve observer.
    pub(crate) fn submit_routed(&self, job: J, opts: SubmitOpts<J::K, J::Out>) {
        let SubmitOpts {
            state,
            expires_at,
            on_resolve,
        } = opts;
        let active = self.build_active(job, state, expires_at, on_resolve);
        self.shared.pending.lock().push(active);
        self.shared.wakeup.notify_all();
        if self.shared.shutdown.load(Ordering::SeqCst) {
            Self::drain_pending(&self.shared);
        }
    }

    fn build_active(
        &self,
        job: J,
        state: Arc<HandleState<J::K, J::Out>>,
        expires_at: Option<Instant>,
        on_resolve: Option<ResolveHook>,
    ) -> ActiveJob<J> {
        let id = self.shared.next_job_id.fetch_add(1, Ordering::Relaxed);
        let submitted_us = match &self.shared.obs {
            Some(o) => {
                o.jobs_submitted.inc();
                o.tracer().instant("submit", Ids::job(id));
                o.tracer().now_us()
            }
            None => 0,
        };
        ActiveJob {
            id,
            plan: Arc::new(Plan::of(&job)),
            job: Arc::new(job),
            completion: Completion::with_hook(state, on_resolve),
            failure: Arc::new(OnceLock::new()),
            segments_done: 0,
            submitted_us,
            admitted: false,
            expires_at,
        }
    }

    /// Stop accepting useful work and join the coordinator once all
    /// submitted jobs have resolved. Finalization tasks already queued on
    /// the reduce pool are drained before this returns, so every submitted
    /// job's handle resolves — with its output, or with the [`JobError`]
    /// that ended it. Never panics, even if the coordinator died.
    pub fn shutdown(mut self) {
        Self::signal_shutdown(&self.shared);
        if let Some(h) = self.coordinator.take() {
            // A coordinator killed by an injected fault (or a runtime bug)
            // must not take the caller down with it; its jobs were already
            // failed with `JobError::Aborted`.
            let _ = h.join();
        }
        Self::drain_pending(&self.shared);
    }

    /// Set the shutdown flag and wake the coordinator without losing the
    /// wakeup: taking the pending lock before notifying guarantees the
    /// coordinator is either before its shutdown check (it will see the
    /// flag) or already parked in `wait` (it will receive the notify) —
    /// never in between.
    fn signal_shutdown(shared: &ServerShared<J>) {
        shared.shutdown.store(true, Ordering::SeqCst);
        let _pending = shared.pending.lock();
        shared.wakeup.notify_all();
    }

    /// Abort any jobs still sitting in the pending queue (a submit that
    /// raced coordinator death); their handles resolve to
    /// [`JobError::Aborted`] instead of hanging.
    fn drain_pending(shared: &Arc<ServerShared<J>>) {
        let orphans = std::mem::take(&mut *shared.pending.lock());
        for a in orphans {
            abort_job(a, &shared.obs);
        }
    }
}

impl<J: MapReduceJob + 'static> Drop for SharedScanServer<J> {
    fn drop(&mut self) {
        Self::signal_shutdown(&self.shared);
        if let Some(h) = self.coordinator.take() {
            let _ = h.join();
        }
        Self::drain_pending(&self.shared);
    }
}

/// Resolve a job's handle with [`JobError::Aborted`].
fn abort_job<J: MapReduceJob>(job: ActiveJob<J>, obs: &Option<Arc<ServerObs>>) {
    job.completion.publish(Err(JobError::Aborted));
    if let Some(o) = obs {
        o.jobs_aborted.inc();
        o.tracer().instant("job_aborted", Ids::job(job.id));
    }
}

/// Coordinator exit: whatever the cause (clean shutdown, injected kill),
/// mark the server dead and resolve every job it will never finish.
fn coordinator_exit<J: MapReduceJob>(shared: &ServerShared<J>, active: Vec<ActiveJob<J>>) {
    shared.shutdown.store(true, Ordering::SeqCst);
    for a in active {
        abort_job(a, &shared.obs);
    }
    let pending = std::mem::take(&mut *shared.pending.lock());
    for a in pending {
        abort_job(a, &shared.obs);
    }
}

fn coordinator_loop<J: MapReduceJob + 'static>(shared: Arc<ServerShared<J>>, num_threads: usize) {
    // Both pools live exactly as long as the coordinator: when this
    // function returns, their Drop impls drain any queued finalization
    // tasks before joining the workers, so shutdown never loses outputs.
    let obs_handle = shared
        .obs
        .as_ref()
        .map(|o| o.obs.clone())
        .unwrap_or_default();
    let scan_pool = WorkerPool::new_observed(num_threads, "scan", &obs_handle);
    let reduce_pool = WorkerPool::new_observed(shared.nshards, "reduce", &obs_handle);
    shared.pool_threads_spawned.store(
        scan_pool.threads_spawned() + reduce_pool.threads_spawned(),
        Ordering::Relaxed,
    );
    // One slot per scan worker: each worker's per-job accumulators persist
    // across every segment of a job's revolution, so there is no
    // merge-into-coordinator step at segment end. Arc'd because the
    // resilient scan path hands detached (`'static`) tasks to the pool.
    let slots: Arc<Vec<Mutex<Slot<J>>>> =
        Arc::new((0..num_threads).map(|_| Mutex::new(Vec::new())).collect());
    // Exclusion windows: `Some(iter)` means the worker sits out until that
    // global iteration (resilient mode only).
    let mut excluded_until: Vec<Option<u64>> = vec![None; num_threads];

    let n = shared.store.num_blocks();
    // Effective blocks-per-segment: fixed at `base_bps`, or re-derived at
    // segment boundaries when adaptive sizing is on (already clamped by
    // `with_config`).
    let mut eff = shared.eff_blocks.load(Ordering::Relaxed);
    // EWMA of the measured per-block worker cost (µs of one worker's time
    // per block), the paper's dynamic sub-job adjustment signal. 0.0 means
    // no measurement yet.
    let mut ewma_cost_us = 0.0f64;
    // The cursor and every admitted job's remaining blocks: Algorithm 1's
    // arithmetic, cut by the engine's rule (a segment stops at the end of
    // the file; the wrap happens at the next one).
    let mut rev = Revolution::new(n, Align::Clip);
    if let Some(o) = &shared.obs {
        o.eff_bps.set(eff as i64);
    }
    let mut active: Vec<ActiveJob<J>> = Vec::new();
    // Start of the previous segment scan, for the cadence histogram; reset
    // across idle periods so waiting for work never counts as a gap.
    let mut last_seg_start_us: Option<u64> = None;

    loop {
        // Admit newly submitted jobs at this segment boundary (the paper's
        // alignment: a job starts at the next segment to be processed).
        {
            let mut pending = shared.pending.lock();
            active.append(&mut pending);
            if active.is_empty() {
                if let Some(o) = &shared.obs {
                    o.active_jobs.set(0);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    drop(pending);
                    coordinator_exit(&shared, active);
                    return;
                }
                last_seg_start_us = None;
                // Idle: park until a submission or shutdown.
                shared.wakeup.wait(&mut pending);
                active.append(&mut pending);
                continue;
            }
        }

        // Degenerate store: there is nothing to scan, so a revolution is
        // vacuously complete. Resolve each job immediately with an empty
        // output through the normal reduce path — never hang, never
        // divide by the zero segment count.
        if n == 0 {
            for mut a in active.drain(..) {
                if let Some(o) = &shared.obs {
                    let now = o.tracer().now_us();
                    a.admitted = true;
                    o.admission.record(now.saturating_sub(a.submitted_us));
                    o.tracer().instant("admit", Ids::job(a.id).jobs(0));
                }
                finish_job(&slots, &reduce_pool, a, &shared);
            }
            continue;
        }

        let iter = shared.iterations.load(Ordering::Relaxed);
        // Injected coordinator death: the worst case quarantine cannot
        // contain. Every unresolved job aborts; no handle hangs.
        if let Some(f) = &shared.faults {
            if f.kills_coordinator(iter) {
                if let Some(o) = &shared.obs {
                    o.tracer().instant("coordinator_killed", Ids::none().jobs(iter));
                }
                coordinator_exit(&shared, std::mem::take(&mut active));
                return;
            }
        }
        if shared.ft.speculation {
            refresh_exclusions(&shared, iter, &mut excluded_until);
        }

        // Deadline sweep: a job whose deadline passed is removed from the
        // scan at this segment boundary — per-worker partial state purged
        // like a quarantine — and its handle resolves to the sticky
        // `DeadlineExpired`. Checked before the segment scan so an
        // expired job never pays for (or slows) another wave.
        if active.iter().any(|a| a.expires_at.is_some()) {
            let now = Instant::now();
            let mut i = 0;
            while i < active.len() {
                if active[i].expires_at.is_some_and(|t| t <= now) {
                    let expired = active.swap_remove(i);
                    rev.remove(expired.id);
                    for slot in slots.iter() {
                        slot.lock().retain(|(id, _)| *id != expired.id);
                    }
                    if let Some(o) = &shared.obs {
                        o.jobs_expired.inc();
                        o.tracer().instant("job_expired", Ids::job(expired.id));
                    }
                    expired.completion.publish(Err(JobError::DeadlineExpired));
                } else {
                    i += 1;
                }
            }
            if active.is_empty() {
                continue;
            }
        }

        // One iteration of Algorithm 1: merged sub-job over the cursor's
        // segment for every active job.
        let seg_t0 = shared.obs.as_ref().map(|o| {
            let now = o.tracer().now_us();
            if let Some(prev) = last_seg_start_us {
                o.cadence.record(now.saturating_sub(prev));
            }
            last_seg_start_us = Some(now);
            o.active_jobs.set(active.len() as i64);
            now
        });
        // Admission: the job's revolution starts with this segment.
        for a in active.iter_mut().filter(|a| !a.admitted) {
            a.admitted = true;
            rev.admit(a.id);
            if let (Some(o), Some(now)) = (&shared.obs, seg_t0) {
                o.admission.record(now.saturating_sub(a.submitted_us));
                o.tracer()
                    .instant("admit", Ids::job(a.id).jobs(rev.cursor() as u64));
            }
        }
        // This iteration's segment: `eff` blocks from the cursor, clipped
        // at the end of the file, so a segment is always one contiguous
        // block range. `limits[pos]` is the first block job `pos` must not
        // see: a job whose revolution ends inside the segment takes only
        // its first blocks, and never re-scans past its admission point.
        let seg = rev.next(eff, |_| true);
        let (start, end, seg_len) = (seg.start, seg.start + seg.len, seg.len);
        let limits: Vec<usize> = active.iter().map(|a| start + seg.take(a.id)).collect();
        // Workers this wave can actually use, for the cost model below.
        let avail_workers = if shared.ft.speculation {
            excluded_until.iter().filter(|e| e.is_none()).count().max(1)
        } else {
            num_threads
        };
        let scan_t0 = Instant::now();
        let claims = if shared.ft.speculation {
            scan_segment_resilient(
                &shared,
                &active,
                &slots,
                start,
                end,
                &limits,
                &scan_pool,
                iter,
                &excluded_until,
            )
        } else {
            scan_segment(&shared, &active, &slots, start, end, &limits, &scan_pool, iter)
        };
        let scan_elapsed_us = scan_t0.elapsed().as_micros() as u64;
        let seg_blocks = seg_len as u64;
        let offsets = shared.store.block_offsets();
        let seg_bytes = (offsets[end] - offsets[start]) as u64;
        shared.blocks_scanned.fetch_add(seg_blocks, Ordering::Relaxed);
        shared.iterations.fetch_add(1, Ordering::Relaxed);
        shared.claim_ops.fetch_add(claims.claim_ops, Ordering::Relaxed);
        if let (Some(o), Some(t0)) = (&shared.obs, seg_t0) {
            // Segment spans carry their block range — start in `ids.seg`,
            // length in `ids.n` — so the trace invariants can prove the
            // (possibly resized) boundaries still partition the file.
            o.tracer()
                .span("segment", t0, Ids::seg(start as u64).jobs(seg_len as u64));
            // Claim-protocol accounting for the same segment: block-range
            // start in `ids.job`, blocks claimed in `ids.seg`, blocks
            // completed in `ids.n`. `check_engine_events` pairs each
            // segment span with this instant to prove every block was
            // claimed and completed exactly once.
            o.tracer().instant(
                "segment_claims",
                Ids {
                    job: start as u64,
                    seg: claims.claimed,
                    n: claims.completed,
                        ..Ids::none()
                },
            );
            o.seg_scan.record(o.tracer().now_us().saturating_sub(t0));
            o.segments.inc();
            o.blocks.add(seg_blocks);
            o.bytes.add(seg_bytes);
            let assisted = shared.blocks_assisted.load(Ordering::Relaxed);
            let scanned = shared.blocks_scanned.load(Ordering::Relaxed).max(1);
            o.assist_ratio.set((assisted.saturating_mul(10_000) / scanned) as i64);
        }

        // Dynamic sub-job adjustment (paper Section IV-B), live: fold this
        // segment's measured cost into the EWMA and re-derive the segment
        // size that makes one segment fill one `target_cadence` map wave
        // on the workers currently available.
        if shared.adaptive.enabled {
            let used_workers = avail_workers.min(seg_len).max(1);
            let cost = (scan_elapsed_us.max(1) as f64) * used_workers as f64 / seg_len as f64;
            ewma_cost_us = if ewma_cost_us <= 0.0 {
                cost
            } else {
                (ewma_cost_us * 7.0 + cost) / 8.0
            };
            let new = next_segment_size(eff, ewma_cost_us, avail_workers, &shared.adaptive);
            if new != eff {
                let old = eff;
                eff = new;
                shared.eff_blocks.store(new, Ordering::Relaxed);
                shared.segment_resizes.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = &shared.obs {
                    o.segment_resizes.inc();
                    o.eff_bps.set(new as i64);
                    // New size in `ids.seg`, old size in `ids.n`.
                    o.tracer()
                        .instant("segment_resized", Ids::seg(new as u64).jobs(old as u64));
                }
            }
        }

        // Quarantine sweep: jobs whose own code panicked this segment fail
        // individually — partial state purged, handle resolved with the
        // panic message — while everyone else keeps scanning.
        let mut i = 0;
        while i < active.len() {
            if let Some(error) = active[i].failure.get().cloned() {
                let failed = active.swap_remove(i);
                rev.remove(failed.id);
                for slot in slots.iter() {
                    slot.lock().retain(|(id, _)| *id != failed.id);
                }
                if let Some(o) = &shared.obs {
                    o.jobs_quarantined.inc();
                    o.tracer().instant("quarantine", Ids::job(failed.id));
                }
                failed.completion.publish(Err(error));
            } else {
                i += 1;
            }
        }

        // Jobs that completed a full revolution: hand their accumulated
        // state to the reduce pool and keep scanning without waiting.
        let mut i = 0;
        while i < active.len() {
            active[i].segments_done += 1;
            if seg.finished.contains(&active[i].id) {
                let finished = active.swap_remove(i);
                finish_job(&slots, &reduce_pool, finished, &shared);
            } else {
                i += 1;
            }
        }
    }
}

/// The adaptive sizing policy, pure so the clamp/shrink/re-grow behavior
/// can be unit-tested without a live server: the segment size that makes
/// one segment scan take [`AdaptiveConfig::target_cadence`] given the
/// EWMA per-block worker cost and the workers available, clamped to the
/// configured bounds. With no measurement yet the current size is kept
/// (clamped).
fn next_segment_size(
    current: usize,
    ewma_cost_us: f64,
    workers: usize,
    cfg: &AdaptiveConfig,
) -> usize {
    let lo = cfg.min_blocks_per_segment;
    let hi = cfg.max_blocks_per_segment;
    if ewma_cost_us <= 0.0 || workers == 0 {
        return current.clamp(lo, hi);
    }
    let target_us = cfg.target_cadence.as_micros() as f64;
    let ideal = (workers as f64 * target_us / ewma_cost_us).round();
    (ideal.max(1.0) as usize).clamp(lo, hi)
}

/// Readmit workers whose exclusion window expired; exclude workers whose
/// consecutive deadline misses crossed the threshold. Never excludes the
/// last active worker — the scan must always be able to make progress.
fn refresh_exclusions<J: MapReduceJob>(
    shared: &ServerShared<J>,
    iter: u64,
    excluded_until: &mut [Option<u64>],
) {
    for (wi, window) in excluded_until.iter_mut().enumerate() {
        if let Some(until) = *window {
            if iter >= until {
                *window = None;
                shared.misses[wi].store(0, Ordering::Relaxed);
                if let Some(o) = &shared.obs {
                    o.excluded_workers.add(-1);
                    o.tracer().instant("slot_readmitted", Ids::none().jobs(wi as u64));
                }
            }
        }
    }
    let mut active_workers = excluded_until.iter().filter(|e| e.is_none()).count();
    for (wi, window) in excluded_until.iter_mut().enumerate() {
        if active_workers <= 1 {
            break;
        }
        if window.is_none()
            && shared.misses[wi].load(Ordering::Relaxed) >= shared.ft.exclusion_threshold
        {
            *window = Some(iter + shared.ft.exclusion_window_iters);
            active_workers -= 1;
            if let Some(o) = &shared.obs {
                o.workers_excluded.inc();
                o.excluded_workers.add(1);
                o.tracer().instant("slot_excluded", Ids::none().jobs(wi as u64));
            }
        }
    }
}

/// Claim accounting of one segment scan, reported by both scan paths:
/// blocks claimed and completed (for the `segment_claims` trace instant
/// the exactly-once invariant checks) and the raw atomic claim operations
/// issued (for [`SharedScanServer::claim_ops`] — 0 on the solo fast path).
struct SegClaims {
    claimed: u64,
    completed: u64,
    claim_ops: u64,
}

/// Scan one segment once, running every active job's map over each block
/// on the persistent scan pool (the cooperative path: a shared
/// [`WorkProgress`] claim cursor, no retry). Jobs whose plan routes tokens
/// share one token-start scan of each block, indexed by the prefixes their
/// plans copied at submission. Each job's work on each block runs under
/// `catch_unwind`, so a panicking map marks **that job** failed and the
/// scan continues for the rest. `limits[pos]` is the first block index
/// job `pos` must *not* see (its revolution ends inside this segment).
#[allow(clippy::too_many_arguments)]
fn scan_segment<J: MapReduceJob + 'static>(
    shared: &ServerShared<J>,
    active: &[ActiveJob<J>],
    slots: &[Mutex<Slot<J>>],
    start: usize,
    end: usize,
    limits: &[usize],
    pool: &WorkerPool,
    iter: u64,
) -> SegClaims {
    if active.is_empty() || start == end {
        return SegClaims { claimed: 0, completed: 0, claim_ops: 0 };
    }
    let nblocks = end - start;
    let store = &shared.store;
    let faults = shared.faults.as_deref();
    // A one-block segment runs inline on the coordinator (fan_out 1 —
    // zero cross-thread handoff); wider segments fan out over the pool.
    let fan_out = pool.num_threads().min(nblocks);
    // A lone worker scans from a private cursor — the shared progress word
    // is only touched when siblings actually race for blocks, so the solo
    // fast path takes zero claim coordination.
    let solo = fan_out == 1;
    let progress = WorkProgress::new(nblocks);
    let fan = RiderIndex::over(active.iter().map(|a| &*a.plan));

    pool.broadcast(fan_out, &|wi| {
        let mut claims = if solo {
            BlockClaims::solo(nblocks)
        } else {
            BlockClaims::shared(&progress)
        };
        let mut slot = slots[wi].lock();
        // Index of each active job's partial in this worker's slot,
        // creating partials for jobs this worker has not seen yet.
        let idxs: Vec<usize> = active
            .iter()
            .map(|a| {
                if let Some(p) = slot.iter().position(|(id, _)| *id == a.id) {
                    p
                } else {
                    slot.push((a.id, JobPartial::new(&a.plan, shared.nshards)));
                    slot.len() - 1
                }
            })
            .collect();
        let mut sel = Selection::default();
        while let Some(li) = claims.claim() {
            let idx = start + li;
            if let Some(f) = faults {
                let d = f.map_delay_us(wi, iter);
                if d > 0 {
                    std::thread::sleep(Duration::from_micros(d));
                }
            }
            let block = store.block(idx);
            fan.select(block, &mut sel);
            for (pos, a) in active.iter().enumerate() {
                // Past this job's per-segment limit: the block belongs to
                // the segment but not to this job's revolution.
                if idx >= limits[pos] {
                    continue;
                }
                if a.failure.get().is_some() {
                    continue;
                }
                let job = &*a.job;
                let partial = &mut slot[idxs[pos]].1;
                // Quarantine granularity: one (job, block) unit. A panic
                // may leave this job's partial half-updated for the block;
                // that is fine — a failed job's state is purged, never
                // published.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(f) = faults {
                        if f.panics_map(a.id, a.segments_done) {
                            panic!("injected map panic (job {})", a.id);
                        }
                    }
                    scan_block_for_job(job, block, &fan, &sel, pos, partial);
                }));
                if let Err(p) = result {
                    record(&a.failure, p);
                }
            }
            if !solo {
                progress.complete();
            }
        }
    });
    if solo {
        // The lone worker provably covered every block; report the full
        // count without ever having touched the shared word.
        SegClaims {
            claimed: nblocks as u64,
            completed: nblocks as u64,
            claim_ops: 0,
        }
    } else {
        SegClaims {
            claimed: progress.claimed(),
            completed: progress.completed(),
            claim_ops: progress.claim_attempts(),
        }
    }
}

/// Per-block commit state for the resilient path. `claim` records the
/// most recent claim for recovery accounting: 0 = not yet claimed,
/// otherwise `((worker + 1) << 48) | timestamp_µs` — an assisting worker
/// reads the victim and the claim's age from the one word. `committed` is
/// the first-result-wins commit flag: exactly one `swap(true)` ever
/// returns `false`, so each block's results enter the accumulators
/// exactly once no matter how many workers re-executed it.
struct BlockTask {
    claim: AtomicU64,
    committed: AtomicBool,
}

const TS_MASK: u64 = (1 << 48) - 1;

/// Pack a claim word: owner in the high bits (`+1` so the word is never 0,
/// which means "not yet claimed"), timestamp in the low 48.
fn claim_word(wi: usize, now_us: u64) -> u64 {
    ((wi as u64 + 1) << 48) | (now_us & TS_MASK)
}

/// One job's snapshot inside a resilient segment run.
struct SegJob<J: MapReduceJob> {
    id: u64,
    job: Arc<J>,
    plan: Arc<Plan>,
    failure: Arc<JobFailure>,
    segments_done: u64,
    /// First block index this job must *not* see (its revolution ends
    /// inside this segment).
    limit: usize,
}

/// Everything a resilient segment's detached worker tasks share.
struct SegmentRun<J: MapReduceJob> {
    shared: Arc<ServerShared<J>>,
    slots: Arc<Vec<Mutex<Slot<J>>>>,
    jobs: Vec<SegJob<J>>,
    /// Fan-out index over `jobs`, in the same order.
    fan: RiderIndex,
    /// Packed (claim cursor, completed count): fresh claims come off this
    /// word with one `fetch_add` each, and the worker whose commit
    /// completes the segment observes `all_done` here and owns the
    /// end-of-segment notification.
    progress: WorkProgress,
    tasks: Vec<BlockTask>,
    /// First block index of the segment.
    start: usize,
    iter: u64,
    /// Claim-expiry deadline (µs). Atomic because workers refresh it from
    /// the block-time EWMA as commits land — on the very first segment the
    /// EWMA starts empty and the deadline opens at `deadline_floor`, so
    /// without the refresh a revolution-one straggler would be judged
    /// against the floor alone (the cold-start bug); the first committed
    /// block tightens it to `max(floor, ewma * slack)` for every claim
    /// check that follows. The deadline never gates tail re-execution —
    /// it only drives the miss accounting that feeds worker exclusion.
    deadline_us: AtomicU64,
    epoch: Instant,
    done: Mutex<bool>,
    done_cv: Condvar,
}

/// How a worker came to execute a block, for the commit-side accounting.
enum BlockAttempt {
    /// Claimed fresh off the segment's cursor.
    Fresh,
    /// Re-executed from the uncommitted tail by an assisting worker;
    /// carries the claim word being raced.
    Reexec(u64),
}

impl<J: MapReduceJob> SegmentRun<J> {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Pick an uncommitted tail block for an idle worker to re-execute, or
    /// `None` if nothing is eligible right now.
    ///
    /// Any claimed, uncommitted block qualifies immediately — the idle
    /// worker races the original owner, first result wins. The deadline is
    /// consulted only for the exclusion policy: an expired claim charges
    /// its owner a miss (once per expiry, via a CAS restamp of the claim
    /// word) — the paper's periodic slot checking, per block.
    fn next_tail_block(&self, wi: usize, hint: usize) -> Option<(usize, u64)> {
        let n = self.tasks.len();
        let deadline_us = self.deadline_us.load(Ordering::Relaxed);
        for off in 0..n {
            let ti = (hint + off) % n;
            let t = &self.tasks[ti];
            if t.committed.load(Ordering::Acquire) {
                continue;
            }
            let claim = t.claim.load(Ordering::Acquire);
            if claim == 0 {
                // Claimed off the cursor but the claim word is not stored
                // yet — the owner is demonstrably live; re-check later.
                continue;
            }
            let now = self.now_us();
            let victim = ((claim >> 48) as usize - 1).min(self.shared.misses.len() - 1);
            // One miss per expiry window: whoever restamps the claim word
            // charges the victim; concurrent racers skip the charge.
            if now.saturating_sub(claim & TS_MASK) > deadline_us
                && t.claim
                    .compare_exchange(claim, claim_word(wi, now), Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                self.shared.misses[victim].fetch_add(1, Ordering::Relaxed);
            }
            if let Some(o) = &self.shared.obs {
                o.tasks_speculated.inc();
                o.tracer()
                    .instant("assist", Ids::seg((self.start + ti) as u64).jobs(victim as u64));
            }
            return Some((ti, claim));
        }
        None
    }
}

/// Scan one segment with retryable per-block tasks: claim → process →
/// first-result-wins commit. Fresh claims come off one packed
/// [`WorkProgress`] word; workers that drain it **assist** the slow tail
/// immediately. The coordinator waits for every block to **commit**, not
/// for every worker to return — a stalled worker never wedges the segment
/// cadence; its blocks get re-executed and it exits on its own once it
/// notices the segment is done.
#[allow(clippy::too_many_arguments)]
fn scan_segment_resilient<J: MapReduceJob + 'static>(
    shared: &Arc<ServerShared<J>>,
    active: &[ActiveJob<J>],
    slots: &Arc<Vec<Mutex<Slot<J>>>>,
    start: usize,
    end: usize,
    limits: &[usize],
    pool: &WorkerPool,
    iter: u64,
    excluded_until: &[Option<u64>],
) -> SegClaims {
    if active.is_empty() || start == end {
        return SegClaims { claimed: 0, completed: 0, claim_ops: 0 };
    }
    let nblocks = end - start;
    let ewma = shared.ewma_block_us.load(Ordering::Relaxed);
    let floor = shared.ft.deadline_floor.as_micros() as u64;
    let deadline_us = if ewma == 0 {
        floor
    } else {
        floor.max((ewma as f64 * shared.ft.deadline_slack) as u64)
    };
    let run = Arc::new(SegmentRun {
        shared: Arc::clone(shared),
        slots: Arc::clone(slots),
        jobs: active
            .iter()
            .zip(limits)
            .map(|(a, &limit)| SegJob {
                id: a.id,
                job: Arc::clone(&a.job),
                plan: Arc::clone(&a.plan),
                failure: Arc::clone(&a.failure),
                segments_done: a.segments_done,
                limit,
            })
            .collect(),
        fan: RiderIndex::over(active.iter().map(|a| &*a.plan)),
        progress: WorkProgress::new(nblocks),
        tasks: (0..nblocks)
            .map(|_| BlockTask {
                claim: AtomicU64::new(0),
                committed: AtomicBool::new(false),
            })
            .collect(),
        start,
        iter,
        deadline_us: AtomicU64::new(deadline_us),
        epoch: Instant::now(),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });
    // Excluded workers sit this segment out entirely; `refresh_exclusions`
    // guarantees at least one worker stays in.
    let workers: Vec<usize> = (0..pool.num_threads())
        .filter(|&wi| excluded_until[wi].is_none())
        .take(nblocks)
        .collect();
    debug_assert!(!workers.is_empty());
    for &wi in &workers {
        let run = Arc::clone(&run);
        pool.execute(move || seg_worker(run, wi));
    }
    let mut done = run.done.lock();
    while !*done {
        run.done_cv.wait(&mut done);
    }
    drop(done);
    // Every block committed exactly once: claimed is provably `nblocks`
    // (the cursor was drained) and completed counts one winning commit per
    // block. `claim_attempts` additionally carries the bounded overshoot
    // of workers discovering the cursor was dry.
    SegClaims {
        claimed: run.progress.claimed(),
        completed: run.progress.completed(),
        claim_ops: run.progress.claim_attempts(),
    }
}

/// One virtual worker of a resilient segment run: drain fresh claims off
/// the shared cursor, then work-assist the uncommitted tail until the
/// segment is done.
fn seg_worker<J: MapReduceJob + 'static>(run: Arc<SegmentRun<J>>, wi: usize) {
    let mut sel = Selection::default();
    // Phase A — fresh claims: one fetch_add per block, no CAS loops.
    while let Some(ti) = run.progress.claim() {
        // Armed map panics fire here, synchronous with the claim, not
        // inside `process_block`: with work-assisting duplicates in
        // flight, an in-map check could be consumed by a *losing*
        // execution that records the failure only after the segment's
        // last commit, letting the doomed job's publish race its
        // quarantine. A claim strictly precedes every execution of its
        // block, so the failure is always recorded before the segment can
        // report done.
        fire_armed_map_panics(&run);
        run.tasks[ti]
            .claim
            .store(claim_word(wi, run.now_us()), Ordering::Release);
        execute_block(&run, wi, ti, BlockAttempt::Fresh, &mut sel);
    }
    // Phase B — the cursor is dry; only a claimed-but-uncommitted tail can
    // remain. Assist it immediately. Every pass either executes a real
    // block or parks on the done condvar, so this never busy-spins.
    let mut hint = wi;
    loop {
        if run.progress.is_done() {
            break;
        }
        match run.next_tail_block(wi, hint) {
            Some((ti, claim)) => {
                hint = ti + 1;
                execute_block(&run, wi, ti, BlockAttempt::Reexec(claim), &mut sel);
            }
            None => {
                // Nothing eligible right now: the in-flight owners have
                // not stored their claim words yet — wait a beat and
                // re-check. Recomputed each pass because commits tighten
                // the deadline as the EWMA warms up.
                let wait_step = Duration::from_micros(
                    (run.deadline_us.load(Ordering::Relaxed) / 4).clamp(200, 2_000),
                );
                let mut done = run.done.lock();
                if *done {
                    break;
                }
                run.done_cv.wait_for(&mut done, wait_step);
            }
        }
    }
}

/// Fire any injected map panics that are armed for this segment. The
/// panic is raised and caught right here so the recorded payload is the
/// same `"injected map panic (job N)"` unwind the cooperative path
/// produces from inside the map closure.
fn fire_armed_map_panics<J: MapReduceJob + 'static>(run: &SegmentRun<J>) {
    let Some(f) = &run.shared.faults else { return };
    for sj in &run.jobs {
        if sj.failure.get().is_none() && f.panics_map(sj.id, sj.segments_done) {
            let payload = catch_unwind(AssertUnwindSafe(|| -> () {
                panic!("injected map panic (job {})", sj.id)
            }))
            .unwrap_err();
            record(&sj.failure, payload);
        }
    }
}

/// Execute one block attempt end to end: injected delay, map, injected
/// drop, first-result-wins commit, accumulator merge, EWMA/deadline
/// refresh, and the win-side accounting for assists.
fn execute_block<J: MapReduceJob + 'static>(
    run: &Arc<SegmentRun<J>>,
    wi: usize,
    ti: usize,
    attempt: BlockAttempt,
    sel: &mut Selection,
) {
    if let Some(f) = &run.shared.faults {
        let d = f.map_delay_us(wi, run.iter);
        if d > 0 {
            std::thread::sleep(Duration::from_micros(d));
        }
    }
    let t_start = run.now_us();
    let locals = process_block(run, run.start + ti, sel);
    // An armed drop only fires on a *fresh claim* — "the first block the
    // worker claims" means off the cursor. A re-execution consuming the
    // one-shot would neutralize it (its result is racing an intact owner
    // anyway), leaving nothing for the recovery path to prove.
    if matches!(attempt, BlockAttempt::Fresh) {
        if let Some(f) = &run.shared.faults {
            if f.drops_task(wi, run.iter) {
                // A lost task: the work happened but is never committed.
                // The tail loop — another worker's, or this one's on a
                // later pass — recovers the block without waiting out a
                // deadline. Recovery works even with a single worker.
                return;
            }
        }
    }
    // First-result-wins, idempotent commit: exactly one swap ever returns
    // false, so each block's results enter the accumulators exactly once
    // however many workers raced to re-execute it.
    if run.tasks[ti].committed.swap(true, Ordering::AcqRel) {
        return; // someone else's result landed first; discard ours
    }
    merge_locals(run, wi, locals);
    let now = run.now_us();
    let elapsed = now.saturating_sub(t_start);
    let prev = run.shared.ewma_block_us.load(Ordering::Relaxed);
    let next = if prev == 0 { elapsed.max(1) } else { (prev * 7 + elapsed) / 8 };
    run.shared.ewma_block_us.store(next.max(1), Ordering::Relaxed);
    // Refresh the segment's deadline from the updated EWMA. On the first
    // revolution this is what seeds the deadline at all: the segment
    // opened at the bare floor (EWMA empty), so the first commit
    // immediately makes stragglers detectable instead of leaving the
    // whole segment on the cold-start floor.
    let floor = run.shared.ft.deadline_floor.as_micros() as u64;
    run.deadline_us.store(
        floor.max((next.max(1) as f64 * run.shared.ft.deadline_slack) as u64),
        Ordering::Relaxed,
    );
    match attempt {
        BlockAttempt::Reexec(claim) => {
            run.shared.blocks_assisted.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = &run.shared.obs {
                o.blocks_assisted.inc();
                let recovered_us = now.saturating_sub(claim & TS_MASK);
                o.recovery_us.record(recovered_us);
                // Recovered block in `ids.seg`, recovery latency in
                // `ids.n`: the journal sums these inside each job's scan
                // window to attribute re-execution latency per job.
                o.tracer().instant(
                    "recovered",
                    Ids::seg((run.start + ti) as u64).jobs(recovered_us),
                );
            }
        }
        BlockAttempt::Fresh => {
            if elapsed <= run.deadline_us.load(Ordering::Relaxed) {
                // An in-deadline commit clears the worker's miss streak.
                run.shared.misses[wi].store(0, Ordering::Relaxed);
            }
        }
    }
    let (_, all_done) = run.progress.complete();
    if all_done {
        let mut done = run.done.lock();
        *done = true;
        run.done_cv.notify_all();
    }
}

/// Run every (non-failed) job's map over one block into block-local
/// accumulators. Per-(job, block) `catch_unwind`, same as the cooperative
/// path. Returns one partial per job (`None` = job already failed, or
/// failed here).
fn process_block<J: MapReduceJob + 'static>(
    run: &SegmentRun<J>,
    block_idx: usize,
    sel: &mut Selection,
) -> Vec<Option<JobPartial<J>>> {
    let block = run.shared.store.block(block_idx);
    run.fan.select(block, sel);
    let mut out = Vec::with_capacity(run.jobs.len());
    for (pos, sj) in run.jobs.iter().enumerate() {
        // Past this job's per-segment limit: the block belongs to the
        // segment but not to this job's revolution.
        if block_idx >= sj.limit {
            out.push(None);
            continue;
        }
        if sj.failure.get().is_some() {
            out.push(None);
            continue;
        }
        let job = &*sj.job;
        let mut partial = JobPartial::new(&sj.plan, run.shared.nshards);
        let result = catch_unwind(AssertUnwindSafe(|| {
            scan_block_for_job(job, block, &run.fan, sel, pos, &mut partial);
        }));
        match result {
            Ok(()) => out.push(Some(partial)),
            Err(p) => {
                record(&sj.failure, p);
                out.push(None);
            }
        }
    }
    out
}

/// Fold a committed block's local accumulators into the worker's
/// persistent slot. Runs user `combine_fold`, so it is caught per job too.
fn merge_locals<J: MapReduceJob + 'static>(
    run: &SegmentRun<J>,
    wi: usize,
    locals: Vec<Option<JobPartial<J>>>,
) {
    let mut slot = run.slots[wi].lock();
    for (sj, local) in run.jobs.iter().zip(locals) {
        let Some(local) = local else { continue };
        if sj.failure.get().is_some() {
            continue;
        }
        let p = match slot.iter().position(|(id, _)| *id == sj.id) {
            Some(p) => p,
            None => {
                slot.push((sj.id, JobPartial::new(&sj.plan, run.shared.nshards)));
                slot.len() - 1
            }
        };
        let entry = &mut slot[p].1;
        entry.emitted += local.emitted;
        let result = catch_unwind(AssertUnwindSafe(|| entry.acc.merge(&*sj.job, local.acc)));
        if let Err(p) = result {
            record(&sj.failure, p);
        }
    }
}

/// Finalization context shared by one finished job's reduce-pool tasks.
struct FinishCtx<J: MapReduceJob> {
    job: Arc<J>,
    plan: Arc<Plan>,
    job_id: u64,
    submitted_us: u64,
    completion: Completion<J::K, J::Out>,
    failure: Arc<JobFailure>,
    faults: Option<Arc<ArmedFaults>>,
    state: Mutex<FinishState<J>>,
    remaining: AtomicUsize,
    stats: ScanStats,
    obs: Option<Arc<ServerObs>>,
}

struct FinishState<J: MapReduceJob> {
    sharded: bool,
    /// Per-worker accumulators, as collected by the coordinator.
    partials: Vec<JobAcc<J>>,
    /// Reduce input of each bin, built by the first shard task to run.
    buckets: Vec<Option<ShardInput<J>>>,
    /// Reduce-input records routed into each bin, filled with `buckets`.
    bin_records: Vec<u64>,
    /// Reduced output of each bin; empty until its shard task stores it.
    parts: Vec<ReducedPart<J>>,
}

/// Collect the finished job's worker partials (cheap: map and table moves, no
/// record touches) and queue its combine+reduce on the reduce pool, one task
/// per reduce shard, sharded by key hash. The coordinator returns to
/// scanning immediately; the last shard task to finish publishes the result
/// and wakes the handle.
fn finish_job<J: MapReduceJob + 'static>(
    slots: &[Mutex<Slot<J>>],
    reduce_pool: &WorkerPool,
    job: ActiveJob<J>,
    shared: &Arc<ServerShared<J>>,
) {
    let mut partials: Vec<JobAcc<J>> = Vec::new();
    let mut map_output_records = 0u64;
    let mut distinct_fold_keys = 0u64;
    for slot in slots {
        let mut slot = slot.lock();
        if let Some(p) = slot.iter().position(|(id, _)| *id == job.id) {
            let (_, partial) = slot.swap_remove(p);
            map_output_records += partial.emitted;
            distinct_fold_keys += match &partial.acc {
                JobAcc::Fold(m) => m.len(),
                JobAcc::Tok(m) => m.len(),
                JobAcc::Grouped(_) => 0,
            } as u64;
            partials.push(partial.acc);
        }
    }
    let obs = shared.obs.clone();
    if let Some(o) = &obs {
        o.map_records.add(map_output_records);
        if job.plan.folds() {
            // A fold combiner collapses every repeat of a key into the
            // worker's single accumulator, so hits are simply the emitted
            // records the accumulators absorbed: emitted − distinct keys.
            // Counted here, post hoc, for zero cost on the map hot path.
            o.fold_hits
                .add(map_output_records.saturating_sub(distinct_fold_keys));
        }
    }

    let nbins = shared.nshards;
    let ctx = Arc::new(FinishCtx {
        job: job.job,
        plan: job.plan,
        job_id: job.id,
        submitted_us: job.submitted_us,
        completion: job.completion,
        failure: job.failure,
        faults: shared.faults.clone(),
        state: Mutex::new(FinishState {
            sharded: false,
            partials,
            buckets: (0..nbins).map(|_| None).collect(),
            bin_records: vec![0; nbins],
            parts: (0..nbins).map(|_| Vec::new()).collect(),
        }),
        remaining: AtomicUsize::new(nbins),
        // A finished job has covered the whole store exactly once.
        stats: ScanStats {
            blocks_scanned: shared.store.num_blocks() as u64,
            bytes_scanned: shared.store.total_bytes() as u64,
            map_output_records,
            reduce_output_records: 0, // filled by `assemble`
        },
        obs,
    });
    for s in 0..nbins {
        let ctx = Arc::clone(&ctx);
        reduce_pool.execute(move || run_finish_shard(ctx, s, nbins));
    }
}

/// One-time hand-over of a job's accumulated state to its reduce bins — off
/// the coordinator, performed by whichever shard task gets there first
/// (later tasks see `sharded` set and skip). Returns whether this call did
/// it, so the caller can attribute the cost to its own `shard_split` span
/// rather than polluting that shard's `reduce_shard` measurement.
///
/// The hand-over itself is [`split_into_bins`]; this wrapper makes it
/// happen once, under the finish state's lock.
fn ensure_sharded<J: MapReduceJob + 'static>(ctx: &FinishCtx<J>, nbins: usize) -> bool {
    let mut st = ctx.state.lock();
    if st.sharded {
        return false;
    }
    let partials = std::mem::take(&mut st.partials);
    let (buckets, bin_records) = split_into_bins(&*ctx.job, &ctx.plan, partials, nbins);
    st.buckets = buckets.into_iter().map(Some).collect();
    st.bin_records = bin_records;
    st.sharded = true;
    true
}

/// The combine+reduce work of one finalization shard, running user code
/// (combine, reduce): extracted so [`run_finish_shard`] can run it under
/// `catch_unwind`. Takes the bin's input out of the shared state and
/// reduces it outside the lock, so shards run in parallel; the part comes
/// back sorted by key.
fn finish_shard_inner<J: MapReduceJob + 'static>(ctx: &FinishCtx<J>, s: usize) -> ReducedPart<J> {
    if let Some(f) = &ctx.faults {
        let d = f.reduce_delay_us(ctx.job_id, s);
        if d > 0 {
            std::thread::sleep(Duration::from_micros(d));
        }
        if f.panics_reduce(ctx.job_id, s) {
            panic!("injected reduce panic (job {} shard {s})", ctx.job_id);
        }
    }
    // `get_mut` (not indexing) and `None`: if the hand-over itself
    // panicked, the bins were never filled — this shard then reduces
    // nothing and the recorded failure quarantines the job at publish time.
    let input = ctx.state.lock().buckets.get_mut(s).and_then(Option::take);
    input.map_or_else(Vec::new, |input| reduce_bin(&*ctx.job, input))
}

fn run_finish_shard<J: MapReduceJob + 'static>(ctx: Arc<FinishCtx<J>>, s: usize, nbins: usize) {
    // Phase-global hand-over to the reduce bins, charged to its own
    // `shard_split` span: leaving it inside whichever `reduce_shard` span
    // ran first made that histogram's tail show the split cost instead of
    // the per-shard reduce skew. A panic inside user merge code during
    // the split quarantines the job like any reduce panic.
    let split_t0 = ctx.obs.as_ref().map(|o| o.tracer().now_us());
    match catch_unwind(AssertUnwindSafe(|| ensure_sharded(&ctx, nbins))) {
        Ok(true) => {
            if let (Some(o), Some(t0)) = (&ctx.obs, split_t0) {
                o.tracer().span("shard_split", t0, Ids::job(ctx.job_id));
                o.shard_split.record(o.tracer().now_us().saturating_sub(t0));
            }
        }
        Ok(false) => {}
        Err(p) => record(&ctx.failure, p),
    }
    let shard_t0 = ctx.obs.as_ref().map(|o| o.tracer().now_us());
    // A panicking combine/reduce fails this job alone: the shard still
    // completes (with an empty part), `remaining` still counts down, and
    // the last shard publishes the failure instead of an output.
    let part = match catch_unwind(AssertUnwindSafe(|| finish_shard_inner(&ctx, s))) {
        Ok(part) => part,
        Err(p) => {
            record(&ctx.failure, p);
            Vec::new()
        }
    };
    let shard_records = {
        let mut st = ctx.state.lock();
        st.parts[s] = part;
        st.bin_records.get(s).copied().unwrap_or(0)
    };
    if let (Some(o), Some(t0)) = (&ctx.obs, shard_t0) {
        // The shard index rides in its own id field — packing it into the
        // job or count fields misattributed slices across concurrent jobs.
        // `n` carries the records this shard reduced.
        o.tracer().span(
            "reduce_shard",
            t0,
            Ids::job(ctx.job_id).shard(s as u64).jobs(shard_records),
        );
        o.reduce_shard.record(o.tracer().now_us().saturating_sub(t0));
        o.reduce_shard_records.record(shard_records);
    }

    if ctx.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        // Last shard to finish merges and publishes.
        if let Some(error) = ctx.failure.get() {
            if let Some(o) = &ctx.obs {
                o.jobs_quarantined.inc();
                o.tracer().instant("quarantine", Ids::job(ctx.job_id));
            }
            ctx.completion.publish(Err(error.clone()));
            return;
        }
        // The serial tail of the reduce: concatenate, build, wake.
        let publish_t0 = ctx.obs.as_ref().map(|o| o.tracer().now_us());
        let parts = std::mem::take(&mut ctx.state.lock().parts);
        ctx.completion.publish(Ok(assemble::<J>(parts, ctx.stats)));
        if let (Some(o), Some(t0)) = (&ctx.obs, publish_t0) {
            o.tracer().span("publish", t0, Ids::job(ctx.job_id));
            o.publish.record(o.tracer().now_us().saturating_sub(t0));
            o.jobs_completed.inc();
            o.job_latency
                .record(o.tracer().now_us().saturating_sub(ctx.submitted_us));
            // Blocks this job's revolution covered ride in `ids.n`, so the
            // journal can prove its segment slices add up (flight-recorder
            // coverage invariant).
            o.tracer()
                .instant("job_done", Ids::job(ctx.job_id).jobs(ctx.stats.blocks_scanned));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_job_legacy;
    use crate::fault::EngineFault;
    use crate::types::test_jobs::PrefixCount;

    fn store() -> BlockStore {
        // Large enough that one revolution comfortably outlasts a burst of
        // submissions, so concurrency tests are not racy.
        let text = "alpha beta alpha\nbeta gamma delta alpha\ngamma beta\n".repeat(2000);
        BlockStore::from_text(&text, 2048)
    }

    #[test]
    fn single_job_matches_the_reference() {
        let s = store();
        let server = SharedScanServer::new(s.clone(), 2, 3);
        let h = server.submit(PrefixCount { prefix: "".into() });
        let out = h.wait().expect("job completed");
        let solo = run_job_legacy(&PrefixCount { prefix: "".into() }, &s);
        assert_eq!(out.records, solo.records);
        assert_eq!(out.stats.map_output_records, solo.stats.map_output_records);
        server.shutdown();
    }

    #[test]
    fn concurrent_jobs_share_the_scan() {
        let s = store();
        let n_blocks = s.num_blocks() as u64;
        let server = SharedScanServer::new(s.clone(), 1, 4);
        // Submit several jobs quickly: they should ride the same revolution.
        let handles: Vec<_> = ["a", "b", "g", "d", ""]
            .iter()
            .map(|p| server.submit(PrefixCount { prefix: p.to_string() }))
            .collect();
        for (p, h) in ["a", "b", "g", "d", ""].iter().zip(handles) {
            let out = h.wait().expect("job completed");
            let solo = run_job_legacy(&PrefixCount { prefix: p.to_string() }, &s);
            assert_eq!(out.records, solo.records, "prefix {p:?}");
        }
        let scanned = server.blocks_scanned();
        // Five jobs, but far fewer than five full scans (they overlap).
        assert!(
            scanned < 3 * n_blocks,
            "expected shared scanning: {scanned} block scans for 5 jobs over {n_blocks} blocks"
        );
        assert!(scanned >= n_blocks);
        server.shutdown();
    }

    #[test]
    fn wait_timeout_polls_then_delivers_without_consuming() {
        let s = store();
        let server = SharedScanServer::new(s.clone(), 2, 2);
        let h = server.submit(PrefixCount { prefix: "al".into() });
        // A zero-duration wait is a typed non-blocking poll; whatever the
        // timing, a miss leaves the handle intact.
        let mut result = h.wait_timeout(Duration::ZERO);
        while result.is_err() {
            result = h.wait_timeout(Duration::from_millis(50));
        }
        let out = result.unwrap().expect("job completed");
        let solo = run_job_legacy(&PrefixCount { prefix: "al".into() }, &s);
        assert_eq!(out.records, solo.records);
        // The slot was consumed by the successful wait.
        assert!(h.try_take().is_none());
        server.shutdown();
    }

    #[test]
    fn wait_timeout_times_out_promptly_on_a_stuck_job() {
        // A server with no threads scanning nothing... simplest stuck job:
        // a handle whose runtime never resolves it within the window. Use
        // a fresh HandleState with no publisher.
        let h: JobHandle<String, i64> = JobHandle::from_state(HandleState::new());
        let t0 = Instant::now();
        assert_eq!(h.wait_timeout(Duration::from_millis(20)), Err(WaitTimeout));
        assert!(t0.elapsed() >= Duration::from_millis(20));
        // Still waitable: resolve it and observe the value.
        h.state.resolve(Err(JobError::Aborted));
        assert_eq!(h.wait_timeout(Duration::ZERO), Ok(Err(JobError::Aborted)));
    }

    #[test]
    fn routed_deadline_expires_sticky_at_a_segment_boundary() {
        let s = store();
        let server = SharedScanServer::new(s.clone(), 1, 2);
        // Keep the revolution busy so the expiring job is mid-flight.
        let rider = server.submit(PrefixCount { prefix: "".into() });
        let state = HandleState::new();
        let expired_flag = Arc::new(AtomicBool::new(false));
        let hook: ResolveHook = {
            let f = Arc::clone(&expired_flag);
            Arc::new(move |kind| {
                if kind == ResolveKind::Expired {
                    f.store(true, Ordering::SeqCst);
                }
            })
        };
        server.submit_routed(
            PrefixCount { prefix: "x".into() },
            SubmitOpts {
                state: Arc::clone(&state),
                // Already in the past: the first boundary sweep expires it.
                expires_at: Some(Instant::now() - Duration::from_millis(1)),
                on_resolve: Some(hook),
            },
        );
        let h: JobHandle<String, i64> = JobHandle::from_state(state);
        let res = h
            .wait_timeout(Duration::from_secs(10))
            .expect("expiry resolves well within the bound");
        assert_eq!(res, Err(JobError::DeadlineExpired));
        // The hook runs before the handle publishes, so the flag is
        // already visible here.
        assert!(expired_flag.load(Ordering::SeqCst), "hook saw Expired");
        rider.wait().expect("co-riding job unaffected");
        server.shutdown();
    }

    #[test]
    fn late_job_joins_mid_scan_and_wraps() {
        let s = store();
        let server = SharedScanServer::new(s.clone(), 1, 2);
        let first = server.submit(PrefixCount { prefix: "".into() });
        // Give the scan a moment to advance before the second job arrives.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let second = server.submit(PrefixCount { prefix: "ga".into() });
        let out1 = first.wait().expect("job completed");
        let out2 = second.wait().expect("job completed");
        let solo2 = run_job_legacy(&PrefixCount { prefix: "ga".into() }, &s);
        // The wrapped job still sees every block exactly once.
        assert_eq!(out2.records, solo2.records);
        assert!(out1.records.len() >= out2.records.len());
        server.shutdown();
    }

    #[test]
    fn submissions_from_many_threads() {
        let s = store();
        let server = Arc::new(SharedScanServer::new(s.clone(), 2, 2));
        let mut joins = Vec::new();
        for i in 0..6 {
            let server = Arc::clone(&server);
            let s = s.clone();
            joins.push(std::thread::spawn(move || {
                let prefix = ["a", "b", "g"][i % 3].to_string();
                let h = server.submit(PrefixCount { prefix: prefix.clone() });
                let out = h.wait().expect("job completed");
                let solo = run_job_legacy(&PrefixCount { prefix }, &s);
                assert_eq!(out.records, solo.records);
            }));
        }
        for j in joins {
            j.join().expect("submitter thread panicked");
        }
        Arc::try_unwrap(server)
            .unwrap_or_else(|_| panic!("all submitters joined"))
            .shutdown();
    }

    #[test]
    fn try_take_polls_without_blocking() {
        let s = store();
        let server = SharedScanServer::new(s, 1, 2);
        let h = server.submit(PrefixCount { prefix: "".into() });
        // Eventually completes; poll until it does.
        let mut got = None;
        for _ in 0..10_000 {
            if let Some(out) = h.try_take() {
                got = Some(out.expect("job completed"));
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(got.is_some(), "job should complete");
        server.shutdown();
    }

    #[test]
    fn rapid_create_shutdown_cycles_do_not_hang() {
        // Regression: shutdown used to set the flag and notify without
        // holding the pending lock, racing the coordinator's
        // check-then-wait and losing the wakeup (observed as a hang under
        // benchmark repetition).
        let s = BlockStore::from_text("a b\n", 16);
        for _ in 0..300 {
            let server: SharedScanServer<PrefixCount> = SharedScanServer::new(s.clone(), 1, 2);
            server.shutdown();
        }
    }

    #[test]
    fn shutdown_with_no_jobs_is_clean() {
        let server: SharedScanServer<PrefixCount> = SharedScanServer::new(store(), 4, 2);
        assert_eq!(server.blocks_scanned(), 0);
        server.shutdown();
    }

    #[test]
    fn stats_report_the_job_revolution() {
        let s = store();
        let total_bytes = s.total_bytes() as u64;
        let total_blocks = s.num_blocks() as u64;
        let server = SharedScanServer::new(s, 3, 2);
        let h = server.submit(PrefixCount { prefix: "".into() });
        let out = h.wait().expect("job completed");
        // One full revolution covers exactly the store, summed per segment.
        assert_eq!(out.stats.bytes_scanned, total_bytes);
        assert_eq!(out.stats.blocks_scanned, total_blocks);
        server.shutdown();
    }

    #[test]
    fn speculative_path_matches_the_reference() {
        let s = store();
        let mut cfg = ServerConfig::new(2, 3);
        cfg.ft = FtConfig::resilient();
        cfg.ft.deadline_floor = Duration::from_millis(3);
        let server = SharedScanServer::with_config(s.clone(), cfg);
        let handles = server.submit_all(vec![
            PrefixCount { prefix: "a".into() },
            PrefixCount { prefix: "".into() },
            PrefixCount { prefix: "ga".into() },
        ]);
        for (p, h) in ["a", "", "ga"].iter().zip(handles) {
            let out = h.wait().expect("job completed");
            let solo = run_job_legacy(&PrefixCount { prefix: p.to_string() }, &s);
            assert_eq!(out.records, solo.records, "prefix {p:?}");
            assert_eq!(out.stats.map_output_records, solo.stats.map_output_records);
        }
        server.shutdown();
    }

    #[test]
    fn injected_map_panic_quarantines_that_job_alone() {
        let s = store();
        let obs = Obs::new();
        let mut cfg = ServerConfig::new(2, 3);
        cfg.obs = obs.clone();
        cfg.faults = Some(FaultPlan {
            faults: vec![EngineFault::PanicMap {
                job: 0,
                after_segments: 1,
            }],
        });
        let server = SharedScanServer::with_config(s.clone(), cfg);
        let handles = server.submit_all(vec![
            PrefixCount { prefix: "a".into() },
            PrefixCount { prefix: "b".into() },
        ]);
        let mut it = handles.into_iter();
        let doomed = it.next().unwrap().wait();
        let survivor = it.next().unwrap().wait().expect("co-rider unaffected");
        match doomed {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("injected map panic")),
            other => panic!("expected quarantine, got {other:?}"),
        }
        let solo = run_job_legacy(&PrefixCount { prefix: "b".into() }, &s);
        assert_eq!(survivor.records, solo.records);
        server.shutdown();
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.counter("engine.jobs_quarantined"), 1);
        assert_eq!(snap.counter("engine.jobs_completed"), 1);
    }

    #[test]
    fn injected_reduce_panic_fails_only_that_job() {
        let s = store();
        let obs = Obs::new();
        let mut cfg = ServerConfig::new(4, 2);
        cfg.obs = obs.clone();
        cfg.faults = Some(FaultPlan {
            faults: vec![EngineFault::PanicReduce { job: 1, shard: 0 }],
        });
        let server = SharedScanServer::with_config(s.clone(), cfg);
        let handles = server.submit_all(vec![
            PrefixCount { prefix: "a".into() },
            PrefixCount { prefix: "b".into() },
        ]);
        let mut it = handles.into_iter();
        let ok = it.next().unwrap().wait().expect("unfaulted job completes");
        let failed = it.next().unwrap().wait();
        let solo = run_job_legacy(&PrefixCount { prefix: "a".into() }, &s);
        assert_eq!(ok.records, solo.records);
        match failed {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("injected reduce panic")),
            other => panic!("expected reduce quarantine, got {other:?}"),
        }
        server.shutdown();
        assert_eq!(obs.snapshot().unwrap().counter("engine.jobs_quarantined"), 1);
    }

    #[test]
    fn killed_coordinator_aborts_every_job_without_hanging() {
        let s = store();
        let obs = Obs::new();
        let mut cfg = ServerConfig::new(1, 2);
        cfg.obs = obs.clone();
        cfg.faults = Some(FaultPlan {
            faults: vec![EngineFault::KillCoordinator { at_iter: 1 }],
        });
        let server = SharedScanServer::with_config(s, cfg);
        let handles = server.submit_all(vec![
            PrefixCount { prefix: "a".into() },
            PrefixCount { prefix: "b".into() },
            PrefixCount { prefix: "".into() },
        ]);
        for h in handles {
            assert_eq!(h.wait(), Err(JobError::Aborted));
        }
        // Shutdown after coordinator death must not panic or hang.
        server.shutdown();
        assert_eq!(obs.snapshot().unwrap().counter("engine.jobs_aborted"), 3);
    }

    #[test]
    fn next_segment_size_clamps_shrinks_and_regrows() {
        let cfg = AdaptiveConfig {
            enabled: true,
            target_cadence: Duration::from_micros(1_000),
            min_blocks_per_segment: 2,
            max_blocks_per_segment: 16,
        };
        // No measurement yet: keep the current size, clamped into bounds.
        assert_eq!(next_segment_size(4, 0.0, 3, &cfg), 4);
        assert_eq!(next_segment_size(1, 0.0, 3, &cfg), 2);
        assert_eq!(next_segment_size(64, 0.0, 3, &cfg), 16);
        // 250µs/block on 2 workers against a 1ms wave: 8 blocks.
        assert_eq!(next_segment_size(4, 250.0, 2, &cfg), 8);
        // Losing a worker halves the wave.
        assert_eq!(next_segment_size(8, 250.0, 1, &cfg), 4);
        // Very slow blocks shrink to the min clamp; very fast blocks
        // re-grow to the max clamp — never outside either bound.
        assert_eq!(next_segment_size(8, 1_000_000.0, 2, &cfg), 2);
        assert_eq!(next_segment_size(2, 1.0, 2, &cfg), 16);
        // Degenerate worker count: keep the current size.
        assert_eq!(next_segment_size(8, 250.0, 0, &cfg), 8);
    }

    #[test]
    fn oversized_segment_reports_exact_stats() {
        // blocks_per_segment > num_blocks: one short segment per
        // revolution, with stats covering exactly the store.
        let text = "alpha beta alpha\nbeta gamma delta alpha\ngamma beta\n".repeat(20);
        let s = BlockStore::from_text(&text, 256);
        let n = s.num_blocks();
        assert!(n > 1);
        let server = SharedScanServer::new(s.clone(), n + 7, 2);
        assert_eq!(server.num_segments(), 1);
        let h = server.submit(PrefixCount { prefix: "".into() });
        let out = h.wait().expect("job completed");
        assert_eq!(out.stats.blocks_scanned, n as u64);
        assert_eq!(out.stats.bytes_scanned, s.total_bytes() as u64);
        let solo = run_job_legacy(&PrefixCount { prefix: "".into() }, &s);
        assert_eq!(out.records, solo.records);
        server.shutdown();
    }

    #[test]
    fn adaptive_shrinks_from_an_oversized_segment_and_stays_exact() {
        // Start oversized (eff > num_blocks, so the first segment clips to
        // the whole store) with a sub-microsecond-impossible cadence
        // target, so the policy must shrink; outputs stay byte-identical
        // throughout and the effective size never leaves the clamp.
        let text = "alpha beta alpha\nbeta gamma delta alpha\ngamma beta\n".repeat(200);
        let s = BlockStore::from_text(&text, 512);
        let n = s.num_blocks();
        let mut cfg = ServerConfig::new(n + 3, 2);
        cfg.adaptive = AdaptiveConfig {
            enabled: true,
            target_cadence: Duration::from_micros(1),
            min_blocks_per_segment: 1,
            max_blocks_per_segment: n + 10,
        };
        let server = SharedScanServer::with_config(s.clone(), cfg);
        let solo = run_job_legacy(&PrefixCount { prefix: "".into() }, &s);
        for _ in 0..4 {
            let h = server.submit(PrefixCount { prefix: "".into() });
            let out = h.wait().expect("job completed");
            assert_eq!(out.records, solo.records);
            assert_eq!(out.stats.blocks_scanned, n as u64);
            let eff = server.effective_blocks_per_segment();
            assert!((1..=n + 10).contains(&eff), "eff {eff} escaped the clamp");
        }
        assert!(
            server.segment_resizes() >= 1,
            "an unreachable cadence target must force at least one shrink"
        );
        server.shutdown();
    }

    #[test]
    fn user_map_panic_is_quarantined() {
        // A genuinely panicking user job (no fault injection): the panic
        // payload flows through to the handle.
        struct Bomb {
            arm: bool,
        }
        impl MapReduceJob for Bomb {
            type K = String;
            type V = i64;
            type Out = i64;
            fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
                if self.arm && line.contains("gamma") {
                    panic!("boom on gamma");
                }
                for w in line.split_whitespace() {
                    emit(w.to_string(), 1);
                }
            }
            fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
                Some(v.iter().sum())
            }
        }
        let s = store();
        let server = SharedScanServer::new(s.clone(), 2, 3);
        let handles = server.submit_all(vec![Bomb { arm: true }, Bomb { arm: false }]);
        let mut it = handles.into_iter();
        match it.next().unwrap().wait() {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("boom on gamma"), "{msg}"),
            other => panic!("expected panic quarantine, got {other:?}"),
        }
        let survivor = it.next().unwrap().wait().expect("co-rider survives");
        let solo = run_job_legacy(&Bomb { arm: false }, &s);
        assert_eq!(survivor.records, solo.records);
        server.shutdown();
    }
}
