//! Multi-tenant admission-controlled front end over many shared-scan
//! servers: the ROADMAP's "many files, QoS classes, heavy traffic" layer.
//!
//! A [`ScanService`] owns several *named* [`BlockStore`]s, each with its
//! own [`SharedScanServer`] (its own revolution, worker pools, and — when
//! observed — its own trace). Clients route submissions by [`FileId`] or
//! name and declare a [`QosClass`]; the service enforces robustness under
//! overload instead of growing unbounded queues:
//!
//! - **Bounded per-class admission queues.** Each tenant keeps one FIFO
//!   queue per class, capped at [`QosConfig::queue_cap`]; a full queue
//!   sheds the submission synchronously with
//!   [`JobError::Rejected`]`{ reason: QueueFull }`. A service-wide queued
//!   budget ([`QosConfig::max_queued_total`]) sheds with `Overloaded`
//!   before any single queue is inspected, and a submission naming a file
//!   the service does not serve sheds with `UnknownFile`.
//! - **Priority-aware dispatch** — the live port of the simulator's
//!   `PriorityPolicy` ablation (the paper's future-work merge-width
//!   policy). A per-tenant dispatcher admits `High` before `Normal`
//!   before `Low` whenever the merged width (jobs in flight on the
//!   revolution) is below [`QosConfig::max_inflight`], and admits `Low`
//!   **only** while the width is below
//!   [`QosConfig::low_priority_width_cap`] — low-priority work rides free
//!   capacity and is deferred, not starved of correctness, under load.
//! - **Deadlines.** A submission may carry a relative deadline; if it
//!   passes while the job is queued, the dispatcher resolves the handle
//!   to the sticky [`JobError::DeadlineExpired`]; if it passes
//!   mid-revolution, the server's boundary sweep does (purging partial
//!   state like a quarantine). Either way the handle resolves exactly
//!   once and never hangs.
//! - **Graceful shutdown.** [`ScanService::shutdown`] stops the
//!   dispatchers, resolves every still-queued handle with
//!   [`JobError::Aborted`], and then shuts each tenant server down —
//!   in-flight revolutions complete and publish normally.
//!
//! Every submission is accounted for exactly once:
//! `submitted == completed + quarantined + rejected + expired + aborted`
//! ([`ServiceStats`]) — the identity the `s3chaos service` overload
//! fuzzer proves under seeded 2–4× burst arrivals plus injected worker
//! faults.
//!
//! When built with an observed [`ServiceConfig::obs`], the service
//! records `engine.jobs_rejected` / `engine.jobs_expired` /
//! `engine.queue_depth_{high,normal,low}` instruments plus `svc_*` trace
//! instants (`svc_submit`/`svc_admit`/`svc_reject`/`svc_expired`/
//! `svc_abort`/`svc_defer`) whose id encoding lets
//! `check_engine_events` prove the admission-queue invariants: every
//! submit reaches exactly one outcome, every rejection carries a class,
//! and admissions within one (file, class) queue are FIFO.

use crate::scan_server::{
    HandleState, JobHandle, ResolveHook, ResolveKind, ServerConfig, SharedScanServer, SubmitOpts,
};
use crate::store::{BlockStore, FileCatalog, FileId, UnknownFile};
use crate::types::{JobError, MapReduceJob, QosClass, RejectReason};
use parking_lot::{Condvar, Mutex};
use s3_obs::trace::{Ids, NO_ID};
use s3_obs::{Counter, Gauge, Histogram, Obs, TraceRecorder};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Admission-control knobs of a [`ScanService`], shared by every tenant.
#[derive(Debug, Clone)]
pub struct QosConfig {
    /// Capacity of each per-(file, class) admission queue; a submission
    /// to a full queue is shed with [`RejectReason::QueueFull`].
    pub queue_cap: usize,
    /// Maximum merged width per tenant: jobs in flight on one revolution.
    /// The dispatcher stops admitting (any class) at this width.
    pub max_inflight: usize,
    /// The priority policy's merge-width cap: `Low` submissions are
    /// admitted only while the tenant's in-flight width is *below* this.
    /// 0 parks low-priority work until the revolution is idle — which a
    /// cap of 0 never is while anything runs, so 0 effectively reserves
    /// the service for `Normal`/`High` (low jobs drain only at idle).
    pub low_priority_width_cap: usize,
    /// Service-wide bound on queued (not yet admitted) jobs across all
    /// tenants and classes; beyond it submissions are shed with
    /// [`RejectReason::Overloaded`].
    pub max_queued_total: usize,
    /// Deadline applied to submissions that do not carry their own
    /// (`None` = no deadline).
    pub default_deadline: Option<Duration>,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            queue_cap: 64,
            max_inflight: 8,
            low_priority_width_cap: 4,
            max_queued_total: 1024,
            default_deadline: None,
        }
    }
}

/// One named file a [`ScanService`] serves, with the full server
/// configuration its tenant runs under (each tenant may carry its own
/// [`Obs`], fault plan, and threading).
pub struct FileSpec {
    /// Routing name, unique within the service.
    pub name: String,
    /// The data this tenant's revolution scans.
    pub store: BlockStore,
    /// Construction parameters of the tenant's [`SharedScanServer`].
    pub server: ServerConfig,
}

impl FileSpec {
    /// A tenant with default server parameters.
    pub fn new(name: impl Into<String>, store: BlockStore, bps: usize, threads: usize) -> Self {
        FileSpec {
            name: name.into(),
            store,
            server: ServerConfig::new(bps, threads),
        }
    }
}

/// Construction parameters of a [`ScanService`].
pub struct ServiceConfig {
    /// Admission-control knobs.
    pub qos: QosConfig,
    /// Service-level telemetry (admission queues, shed decisions). This
    /// is deliberately a *separate* handle from any tenant's
    /// [`ServerConfig::obs`]: each tenant's engine trace must stay a
    /// single-revolution stream for the partition invariants, so the
    /// service's `svc_*` events live in their own registry.
    pub obs: Obs,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            qos: QosConfig::default(),
            obs: Obs::off(),
        }
    }
}

/// Service-level accounting, read via [`ScanService::stats`]. Monotonic
/// counters; `submitted` is incremented at the top of every `submit`
/// call, so once every outstanding handle has resolved the identity
/// `submitted == completed + quarantined + rejected + expired + aborted`
/// holds exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Every submission the service ever saw (including shed ones).
    pub submitted: u64,
    /// Jobs whose revolution completed and published an output.
    pub completed: u64,
    /// Jobs failed by their own panicking user code.
    pub quarantined: u64,
    /// Submissions shed synchronously at admission.
    pub rejected: u64,
    /// Jobs whose deadline passed while queued or mid-revolution.
    pub expired: u64,
    /// Jobs drained at shutdown (queued or in flight when the runtime
    /// went away).
    pub aborted: u64,
    /// Low-priority jobs deferred at least once by the width cap (not a
    /// terminal state; deferred jobs later admit, expire, or abort).
    pub deferred: u64,
}

impl ServiceStats {
    /// Submissions that have reached a terminal outcome so far.
    pub fn resolved(&self) -> u64 {
        self.completed + self.quarantined + self.rejected + self.expired + self.aborted
    }

    /// The overload accounting identity; true once every handle resolved.
    pub fn identity_holds(&self) -> bool {
        self.submitted == self.resolved()
    }
}

#[derive(Default)]
struct SvcCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    quarantined: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    aborted: AtomicU64,
    deferred: AtomicU64,
}

/// Pre-resolved service instruments plus the trace handle; present only
/// when the service was built observed.
struct SvcObs {
    obs: Obs,
    jobs_submitted: Arc<Counter>,
    jobs_rejected: Arc<Counter>,
    jobs_expired: Arc<Counter>,
    jobs_aborted: Arc<Counter>,
    jobs_deferred: Arc<Counter>,
    /// Queued (not yet admitted) jobs per class, indexed by
    /// [`QosClass::code`] (low, normal, high).
    queue_depth: [Arc<Gauge>; 3],
    /// Enqueue → admission, µs.
    queue_wait: Arc<Histogram>,
}

impl SvcObs {
    fn new(obs: &Obs) -> Option<Arc<SvcObs>> {
        let m = &obs.core()?.metrics;
        Some(Arc::new(SvcObs {
            obs: obs.clone(),
            jobs_submitted: m.counter("engine.jobs_submitted"),
            jobs_rejected: m.counter("engine.jobs_rejected"),
            jobs_expired: m.counter("engine.jobs_expired"),
            jobs_aborted: m.counter("engine.jobs_aborted"),
            jobs_deferred: m.counter("engine.jobs_deferred"),
            queue_depth: [
                m.gauge("engine.queue_depth_low"),
                m.gauge("engine.queue_depth_normal"),
                m.gauge("engine.queue_depth_high"),
            ],
            queue_wait: m.histogram("engine.queue_wait_us"),
        }))
    }

    fn tracer(&self) -> &TraceRecorder {
        &self.obs.core().expect("SvcObs only exists when on").tracer
    }
}

/// `ids.n` of `svc_admit`/`svc_expired`/`svc_abort`/`svc_defer`: the file
/// index in the high 32 bits, the job's per-(file, class) enqueue
/// sequence number in the low 32 — what lets the trace invariants prove
/// per-queue FIFO without trusting microsecond timestamps.
fn pack_file_seq(file: FileId, seq: u64) -> u64 {
    ((file.index() as u64) << 32) | (seq & 0xffff_ffff)
}

/// One job sitting in an admission queue.
struct Queued<J: MapReduceJob> {
    id: u64,
    /// Enqueue sequence within this (file, class) queue.
    seq: u64,
    file: FileId,
    class: QosClass,
    job: J,
    state: Arc<HandleState<J::K, J::Out>>,
    enqueued: Instant,
    expires_at: Option<Instant>,
    /// Whether this job has already been counted as width-cap deferred.
    deferred: bool,
}

/// One tenant's admission state: three class queues under one lock, the
/// in-flight width, and per-class enqueue sequence counters.
struct Admission<J: MapReduceJob> {
    q: Mutex<[VecDeque<Queued<J>>; 3]>,
    cv: Condvar,
    /// Jobs admitted to the tenant server and not yet resolved — the
    /// merged width of its revolution as the priority policy sees it.
    inflight: AtomicUsize,
    next_seq: [AtomicU64; 3],
}

impl<J: MapReduceJob> Admission<J> {
    fn new() -> Arc<Self> {
        Arc::new(Admission {
            q: Mutex::new([VecDeque::new(), VecDeque::new(), VecDeque::new()]),
            cv: Condvar::new(),
            inflight: AtomicUsize::new(0),
            next_seq: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        })
    }
}

struct Tenant<J: MapReduceJob + 'static> {
    server: Arc<SharedScanServer<J>>,
    /// The tenant server's own telemetry handle (possibly off).
    obs: Obs,
    adm: Arc<Admission<J>>,
}

/// The multi-tenant scan service. See the module docs for the admission
/// model; construction is [`ScanService::new`], submission is
/// [`ScanService::submit`] / [`ScanService::submit_named`] /
/// [`ScanService::submit_with_deadline`], teardown is
/// [`ScanService::shutdown`] (or `Drop`, which is equivalent).
pub struct ScanService<J: MapReduceJob + 'static> {
    catalog: FileCatalog,
    tenants: Vec<Tenant<J>>,
    dispatchers: Vec<JoinHandle<()>>,
    qos: QosConfig,
    counters: Arc<SvcCounters>,
    obs: Option<Arc<SvcObs>>,
    next_id: AtomicU64,
    total_queued: Arc<AtomicUsize>,
    shutdown: Arc<AtomicBool>,
}

impl<J: MapReduceJob + 'static> ScanService<J> {
    /// Start a service over `files` with admission parameters `cfg`.
    ///
    /// # Panics
    /// Panics on an empty file set, a duplicate name, or degenerate QoS
    /// bounds (`queue_cap`, `max_inflight`, or `max_queued_total` of 0).
    pub fn new(files: Vec<FileSpec>, cfg: ServiceConfig) -> Self {
        assert!(!files.is_empty(), "a service needs at least one file");
        assert!(cfg.qos.queue_cap > 0, "queue_cap must be positive");
        assert!(cfg.qos.max_inflight > 0, "max_inflight must be positive");
        assert!(cfg.qos.max_queued_total > 0, "max_queued_total must be positive");

        let counters = Arc::new(SvcCounters::default());
        let obs = SvcObs::new(&cfg.obs);
        let total_queued = Arc::new(AtomicUsize::new(0));
        let shutdown = Arc::new(AtomicBool::new(false));

        let mut catalog = FileCatalog::new();
        let mut tenants = Vec::with_capacity(files.len());
        let mut dispatchers = Vec::with_capacity(files.len());
        for spec in files {
            let id = catalog
                .register(spec.name.clone(), spec.store.clone())
                .unwrap_or_else(|_| panic!("duplicate file name {:?}", spec.name));
            let tenant_obs = spec.server.obs.clone();
            let server = Arc::new(SharedScanServer::with_config(spec.store, spec.server));
            let adm = Admission::<J>::new();
            let hook: ResolveHook = {
                let adm = Arc::clone(&adm);
                let counters = Arc::clone(&counters);
                Arc::new(move |kind| {
                    adm.inflight.fetch_sub(1, Ordering::AcqRel);
                    let c = match kind {
                        ResolveKind::Completed => &counters.completed,
                        ResolveKind::Quarantined => &counters.quarantined,
                        ResolveKind::Aborted => &counters.aborted,
                        ResolveKind::Expired => &counters.expired,
                    };
                    c.fetch_add(1, Ordering::Relaxed);
                    // Serialize the wakeup against the dispatcher's
                    // width-check → wait window (see dispatcher_loop).
                    let _q = adm.q.lock();
                    adm.cv.notify_all();
                })
            };
            let dispatcher = {
                let adm = Arc::clone(&adm);
                let server = Arc::clone(&server);
                let hook = hook.clone();
                let counters = Arc::clone(&counters);
                let obs = obs.clone();
                let total_queued = Arc::clone(&total_queued);
                let shutdown = Arc::clone(&shutdown);
                let qos = cfg.qos.clone();
                std::thread::Builder::new()
                    .name(format!("s3-svc-dispatch-{}", spec.name))
                    .spawn(move || {
                        dispatcher_loop(adm, server, hook, counters, obs, total_queued, shutdown, qos)
                    })
                    .expect("spawning a service dispatcher thread")
            };
            tenants.push(Tenant {
                server,
                obs: tenant_obs,
                adm,
            });
            dispatchers.push(dispatcher);
            debug_assert_eq!(id.index(), tenants.len() - 1);
        }

        ScanService {
            catalog,
            tenants,
            dispatchers,
            qos: cfg.qos,
            counters,
            obs,
            next_id: AtomicU64::new(0),
            total_queued,
            shutdown,
        }
    }

    /// Resolve a file name to its routing id.
    pub fn file_id(&self, name: &str) -> Result<FileId, UnknownFile> {
        self.catalog.resolve(name)
    }

    /// The name behind a file id, if this service serves it.
    pub fn file_name(&self, id: FileId) -> Option<&str> {
        self.catalog.name(id)
    }

    /// The files this service serves, in id order.
    pub fn files(&self) -> impl Iterator<Item = (FileId, &str)> {
        self.catalog.iter().map(|(id, name, _)| (id, name))
    }

    /// A tenant's engine telemetry handle (the [`ServerConfig::obs`] its
    /// [`FileSpec`] carried) — for draining per-tenant traces.
    pub fn tenant_obs(&self, id: FileId) -> Option<&Obs> {
        self.tenants.get(id.index()).map(|t| &t.obs)
    }

    /// Service-level accounting so far.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            expired: c.expired.load(Ordering::Relaxed),
            aborted: c.aborted.load(Ordering::Relaxed),
            deferred: c.deferred.load(Ordering::Relaxed),
        }
    }

    /// Jobs currently queued (not yet admitted) across all tenants.
    pub fn queued(&self) -> usize {
        self.total_queued.load(Ordering::Relaxed)
    }

    /// Jobs currently in flight on a tenant's revolution.
    pub fn inflight(&self, id: FileId) -> usize {
        self.tenants
            .get(id.index())
            .map_or(0, |t| t.adm.inflight.load(Ordering::Acquire))
    }

    /// Submit under the service's default deadline (usually none).
    pub fn submit(
        &self,
        file: FileId,
        class: QosClass,
        job: J,
    ) -> Result<JobHandle<J::K, J::Out>, JobError> {
        self.submit_with_deadline(file, class, job, self.qos.default_deadline)
    }

    /// Submit by name; an unregistered name sheds with
    /// [`RejectReason::UnknownFile`].
    pub fn submit_named(
        &self,
        name: &str,
        class: QosClass,
        job: J,
    ) -> Result<JobHandle<J::K, J::Out>, JobError> {
        match self.catalog.resolve(name) {
            Ok(id) => self.submit(id, class, job),
            Err(_) => {
                let id = self.begin_submit(NO_ID, class);
                Err(self.reject(id, class, RejectReason::UnknownFile))
            }
        }
    }

    /// Submit with an explicit relative deadline (`None` = no deadline,
    /// overriding any [`QosConfig::default_deadline`]). The deadline
    /// covers queueing *and* the revolution: whenever it passes, the
    /// handle resolves to [`JobError::DeadlineExpired`].
    pub fn submit_with_deadline(
        &self,
        file: FileId,
        class: QosClass,
        job: J,
        deadline: Option<Duration>,
    ) -> Result<JobHandle<J::K, J::Out>, JobError> {
        let known = self.catalog.store(file).is_some();
        let id = self.begin_submit(if known { file.index() as u64 } else { NO_ID }, class);
        if !known {
            return Err(self.reject(id, class, RejectReason::UnknownFile));
        }
        if self.shutdown.load(Ordering::SeqCst) {
            // Unreachable through the public API (shutdown consumes the
            // service) but kept so no internal race can enqueue into a
            // drained queue.
            return Err(self.reject(id, class, RejectReason::Overloaded));
        }
        let t = &self.tenants[file.index()];
        let ci = class.code() as usize;
        let mut q = t.adm.q.lock();
        if self.total_queued.load(Ordering::Relaxed) >= self.qos.max_queued_total {
            drop(q);
            return Err(self.reject(id, class, RejectReason::Overloaded));
        }
        if q[ci].len() >= self.qos.queue_cap {
            drop(q);
            return Err(self.reject(id, class, RejectReason::QueueFull));
        }
        let seq = t.adm.next_seq[ci].fetch_add(1, Ordering::Relaxed);
        let state = HandleState::new();
        let now = Instant::now();
        q[ci].push_back(Queued {
            id,
            seq,
            file,
            class,
            job,
            state: Arc::clone(&state),
            enqueued: now,
            expires_at: deadline.map(|d| now + d),
            deferred: false,
        });
        self.total_queued.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.queue_depth[ci].set(q[ci].len() as i64);
        }
        drop(q);
        t.adm.cv.notify_all();
        Ok(JobHandle::from_state(state))
    }

    /// Count the submission and emit its `svc_submit` instant. Returns
    /// the service job id.
    fn begin_submit(&self, file_n: u64, class: QosClass) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.jobs_submitted.inc();
            o.tracer().instant(
                "svc_submit",
                Ids {
                    job: id,
                    seg: class.code(),
                    n: file_n,
                        ..Ids::none()
                },
            );
        }
        id
    }

    fn reject(&self, id: u64, class: QosClass, reason: RejectReason) -> JobError {
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.jobs_rejected.inc();
            o.tracer().instant(
                "svc_reject",
                Ids {
                    job: id,
                    seg: class.code(),
                    n: reason.code(),
                        ..Ids::none()
                },
            );
        }
        JobError::Rejected { reason, class }
    }

    /// Stop the service: dispatchers exit after resolving every queued
    /// handle with [`JobError::Aborted`]; tenant servers then shut down,
    /// letting in-flight revolutions complete and publish. Every handle
    /// the service ever returned is resolved when this returns.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Flag + notify under each queue lock so a dispatcher between its
        // shutdown check and its wait cannot miss the signal.
        self.shutdown.store(true, Ordering::SeqCst);
        for t in &self.tenants {
            let _q = t.adm.q.lock();
            t.adm.cv.notify_all();
        }
        for d in self.dispatchers.drain(..) {
            let _ = d.join();
        }
        // Dispatchers are gone; this is the last Arc to each server, so
        // dropping it runs the server's full shutdown (drain + join).
        for t in self.tenants.drain(..) {
            match Arc::try_unwrap(t.server) {
                Ok(server) => server.shutdown(),
                Err(arc) => drop(arc),
            }
        }
    }
}

impl<J: MapReduceJob + 'static> Drop for ScanService<J> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

const LOW: usize = 0;
const NORMAL: usize = 1;
const HIGH: usize = 2;

/// One tenant's admission pump: sweep queued deadlines, drain on
/// shutdown, admit by priority under the width caps, park until the
/// picture changes (new submission, a resolution freeing width, shutdown,
/// or the earliest queued deadline).
#[allow(clippy::too_many_arguments)]
fn dispatcher_loop<J: MapReduceJob + 'static>(
    adm: Arc<Admission<J>>,
    server: Arc<SharedScanServer<J>>,
    hook: ResolveHook,
    counters: Arc<SvcCounters>,
    obs: Option<Arc<SvcObs>>,
    total_queued: Arc<AtomicUsize>,
    shutdown: Arc<AtomicBool>,
    qos: QosConfig,
) {
    let mut q = adm.q.lock();
    loop {
        // Deadline sweep over every queue: an expired queued job resolves
        // here and never touches the server.
        let now = Instant::now();
        for ci in [HIGH, NORMAL, LOW] {
            let mut k = 0;
            while k < q[ci].len() {
                if q[ci][k].expires_at.is_some_and(|t| t <= now) {
                    let j = q[ci].remove(k).expect("index in bounds");
                    total_queued.fetch_sub(1, Ordering::Relaxed);
                    counters.expired.fetch_add(1, Ordering::Relaxed);
                    if let Some(o) = &obs {
                        o.jobs_expired.inc();
                        o.queue_depth[ci].set(q[ci].len() as i64);
                        o.tracer().instant(
                            "svc_expired",
                            Ids {
                                job: j.id,
                                seg: j.class.code(),
                                n: pack_file_seq(j.file, j.seq),
                                    ..Ids::none()
                            },
                        );
                    }
                    j.state.resolve(Err(JobError::DeadlineExpired));
                } else {
                    k += 1;
                }
            }
        }

        if shutdown.load(Ordering::SeqCst) {
            // Drain: every queued handle resolves to Aborted, in queue
            // order, before the dispatcher exits.
            for ci in [HIGH, NORMAL, LOW] {
                while let Some(j) = q[ci].pop_front() {
                    total_queued.fetch_sub(1, Ordering::Relaxed);
                    counters.aborted.fetch_add(1, Ordering::Relaxed);
                    if let Some(o) = &obs {
                        o.jobs_aborted.inc();
                        o.tracer().instant(
                            "svc_abort",
                            Ids {
                                job: j.id,
                                seg: j.class.code(),
                                n: pack_file_seq(j.file, j.seq),
                                    ..Ids::none()
                            },
                        );
                    }
                    j.state.resolve(Err(JobError::Aborted));
                }
                if let Some(o) = &obs {
                    o.queue_depth[ci].set(0);
                }
            }
            return;
        }

        // Admit one job if width remains: High, then Normal, then Low —
        // Low only below the priority policy's width cap. One at a time
        // because the server call must happen *outside* the queue lock
        // (submitting to a dead server publishes an abort synchronously,
        // and the resolve hook takes this lock).
        let width = adm.inflight.load(Ordering::Acquire);
        let picked = if width >= qos.max_inflight {
            None
        } else if !q[HIGH].is_empty() {
            Some(HIGH)
        } else if !q[NORMAL].is_empty() {
            Some(NORMAL)
        } else if !q[LOW].is_empty() {
            if width < qos.low_priority_width_cap {
                Some(LOW)
            } else {
                // Width capacity exists but the low cap holds the job
                // back: that is a deferral, counted once per job.
                let head = &mut q[LOW][0];
                if !head.deferred {
                    head.deferred = true;
                    counters.deferred.fetch_add(1, Ordering::Relaxed);
                    if let Some(o) = &obs {
                        o.jobs_deferred.inc();
                        o.tracer().instant(
                            "svc_defer",
                            Ids {
                                job: head.id,
                                seg: head.class.code(),
                                n: pack_file_seq(head.file, head.seq),
                                    ..Ids::none()
                            },
                        );
                    }
                }
                None
            }
        } else {
            None
        };
        if let Some(ci) = picked {
            let j = q[ci].pop_front().expect("picked a non-empty queue");
            total_queued.fetch_sub(1, Ordering::Relaxed);
            adm.inflight.fetch_add(1, Ordering::AcqRel);
            if let Some(o) = &obs {
                o.queue_depth[ci].set(q[ci].len() as i64);
                o.queue_wait.record(j.enqueued.elapsed().as_micros() as u64);
                o.tracer().instant(
                    "svc_admit",
                    Ids {
                        job: j.id,
                        seg: j.class.code(),
                        n: pack_file_seq(j.file, j.seq),
                            ..Ids::none()
                    },
                );
            }
            drop(q);
            server.submit_routed(
                j.job,
                SubmitOpts {
                    state: j.state,
                    expires_at: j.expires_at,
                    on_resolve: Some(hook.clone()),
                },
            );
            q = adm.q.lock();
            continue;
        }

        // Park until something changes; cap the wait at the earliest
        // queued deadline so expiry is published promptly.
        let next_expiry = q
            .iter()
            .flat_map(|dq| dq.iter())
            .filter_map(|j| j.expires_at)
            .min();
        match next_expiry {
            Some(t) => {
                let now = Instant::now();
                if t > now {
                    adm.cv.wait_for(&mut q, t - now);
                }
                // An already-passed deadline loops straight into the sweep.
            }
            None => adm.cv.wait(&mut q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_job_legacy;

    /// A prefix counter whose map can be gated: while `gate` is false the
    /// first mapped line spins, pinning the job (and the width slot it
    /// occupies) in flight — what the admission tests need to observe
    /// queues deterministically.
    struct GatedCount {
        prefix: String,
        gate: Option<Arc<AtomicBool>>,
    }

    impl GatedCount {
        fn free(prefix: &str) -> Self {
            GatedCount { prefix: prefix.into(), gate: None }
        }
    }

    impl MapReduceJob for GatedCount {
        type K = String;
        type V = i64;
        type Out = i64;

        fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
            if let Some(g) = &self.gate {
                while !g.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            for w in line.split_whitespace() {
                if w.starts_with(&self.prefix) {
                    emit(w.to_string(), 1);
                }
            }
        }

        fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
            Some(v.iter().sum())
        }
    }

    fn corpus(tag: &str, repeats: usize) -> BlockStore {
        let text = format!("{tag} alpha beta\ngamma {tag} delta\n").repeat(repeats);
        BlockStore::from_text(&text, 64)
    }

    fn two_file_service(qos: QosConfig) -> ScanService<GatedCount> {
        ScanService::new(
            vec![
                FileSpec::new("logs", corpus("log", 40), 2, 2),
                FileSpec::new("events", corpus("evt", 20), 2, 2),
            ],
            ServiceConfig { qos, obs: Obs::off() },
        )
    }

    #[test]
    fn routes_by_file_and_matches_solo_outputs() {
        let svc = two_file_service(QosConfig::default());
        let logs = svc.file_id("logs").unwrap();
        let events = svc.file_id("events").unwrap();
        let h1 = svc.submit(logs, QosClass::Normal, GatedCount::free("log")).unwrap();
        let h2 = svc.submit(events, QosClass::High, GatedCount::free("evt")).unwrap();
        let out1 = h1.wait().expect("logs job completed");
        let out2 = h2.wait().expect("events job completed");
        let solo1 = run_job_legacy(&GatedCount::free("log"), &corpus("log", 40));
        let solo2 = run_job_legacy(&GatedCount::free("evt"), &corpus("evt", 20));
        assert_eq!(out1.records, solo1.records);
        assert_eq!(out2.records, solo2.records);
        assert_eq!(out1.records["log"], 80);
        let stats = svc.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert!(stats.identity_holds());
        svc.shutdown();
    }

    #[test]
    fn unknown_file_is_shed_with_a_typed_rejection() {
        let svc = two_file_service(QosConfig::default());
        let err = svc
            .submit_named("missing", QosClass::Normal, GatedCount::free(""))
            .unwrap_err();
        assert_eq!(
            err,
            JobError::Rejected { reason: RejectReason::UnknownFile, class: QosClass::Normal }
        );
        // A FileId from a foreign catalog sheds the same way.
        let foreign = FileId(99);
        let err = svc.submit(foreign, QosClass::High, GatedCount::free("")).unwrap_err();
        assert_eq!(
            err,
            JobError::Rejected { reason: RejectReason::UnknownFile, class: QosClass::High }
        );
        let stats = svc.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.rejected, 2);
        assert!(stats.identity_holds());
        svc.shutdown();
    }

    #[test]
    fn queue_full_and_overload_shed_synchronously() {
        let qos = QosConfig {
            queue_cap: 2,
            max_inflight: 1,
            low_priority_width_cap: 1,
            max_queued_total: 3,
            default_deadline: None,
        };
        let svc = two_file_service(qos);
        let logs = svc.file_id("logs").unwrap();
        let gate = Arc::new(AtomicBool::new(false));
        // Occupies the single width slot for as long as the gate holds.
        let pinned = svc
            .submit(logs, QosClass::High, GatedCount { prefix: String::new(), gate: Some(Arc::clone(&gate)) })
            .unwrap();
        // Wait until it is actually admitted (queue empty, width 1).
        while svc.inflight(logs) == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        // Fill the Normal queue to its cap...
        let queued: Vec<_> = (0..2)
            .map(|_| svc.submit(logs, QosClass::Normal, GatedCount::free("log")).unwrap())
            .collect();
        // ...the next Normal submission sheds QueueFull...
        let err = svc.submit(logs, QosClass::Normal, GatedCount::free("log")).unwrap_err();
        assert_eq!(
            err,
            JobError::Rejected { reason: RejectReason::QueueFull, class: QosClass::Normal }
        );
        // ...and once the service-wide budget (3) is reached, even an
        // empty class queue sheds Overloaded.
        let h_low = svc.submit(logs, QosClass::Low, GatedCount::free("log")).unwrap();
        let err = svc.submit(logs, QosClass::Low, GatedCount::free("log")).unwrap_err();
        assert_eq!(
            err,
            JobError::Rejected { reason: RejectReason::Overloaded, class: QosClass::Low }
        );
        gate.store(true, Ordering::SeqCst);
        pinned.wait().expect("pinned job completed");
        for h in queued {
            h.wait().expect("queued job completed after the gate opened");
        }
        h_low.wait().expect("low job admitted once width freed");
        let stats = svc.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.rejected, 2);
        assert!(stats.identity_holds());
        svc.shutdown();
    }

    #[test]
    fn deadline_in_queue_expires_exactly_once() {
        let qos = QosConfig { max_inflight: 1, ..QosConfig::default() };
        let svc = two_file_service(qos);
        let logs = svc.file_id("logs").unwrap();
        let gate = Arc::new(AtomicBool::new(false));
        let pinned = svc
            .submit(logs, QosClass::High, GatedCount { prefix: String::new(), gate: Some(Arc::clone(&gate)) })
            .unwrap();
        while svc.inflight(logs) == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        let doomed = svc
            .submit_with_deadline(
                logs,
                QosClass::Normal,
                GatedCount::free("log"),
                Some(Duration::from_millis(5)),
            )
            .unwrap();
        let res = doomed
            .wait_timeout(Duration::from_secs(10))
            .expect("queued expiry resolves well within the bound");
        assert_eq!(res, Err(JobError::DeadlineExpired));
        // Exactly once: the slot is now empty forever.
        assert!(doomed.try_take().is_none());
        assert_eq!(doomed.wait_timeout(Duration::from_millis(1)), Err(crate::WaitTimeout));
        gate.store(true, Ordering::SeqCst);
        pinned.wait().expect("pinned job completed");
        let stats = svc.stats();
        assert_eq!(stats.expired, 1);
        assert!(stats.identity_holds());
        svc.shutdown();
    }

    #[test]
    fn low_priority_defers_at_the_width_cap_while_high_rides() {
        let qos = QosConfig {
            queue_cap: 8,
            max_inflight: 2,
            low_priority_width_cap: 1,
            max_queued_total: 64,
            default_deadline: None,
        };
        let svc = two_file_service(qos);
        let logs = svc.file_id("logs").unwrap();
        let gate = Arc::new(AtomicBool::new(false));
        let pinned = svc
            .submit(logs, QosClass::Normal, GatedCount { prefix: String::new(), gate: Some(Arc::clone(&gate)) })
            .unwrap();
        while svc.inflight(logs) == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        // Width is 1 == low cap: a Low submission must sit queued...
        let low = svc.submit(logs, QosClass::Low, GatedCount::free("log")).unwrap();
        assert_eq!(low.wait_timeout(Duration::from_millis(40)), Err(crate::WaitTimeout));
        // ...while a High submission is admitted past it into the free
        // width slot (admission bumps inflight immediately; the job itself
        // can't *finish* until the gated revolution drains, so completion
        // is checked after the gate opens).
        let high = svc.submit(logs, QosClass::High, GatedCount::free("log")).unwrap();
        while svc.inflight(logs) < 2 {
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(svc.stats().deferred >= 1, "the low job was width-cap deferred");
        assert_eq!(svc.queued(), 1, "the low job is still waiting in its queue");
        gate.store(true, Ordering::SeqCst);
        pinned.wait().expect("pinned completed");
        high.wait_timeout(Duration::from_secs(10))
            .expect("high admitted past the deferred low job")
            .expect("high completed");
        low.wait_timeout(Duration::from_secs(10))
            .expect("low admitted once the width dropped below the cap")
            .expect("low completed");
        let stats = svc.stats();
        assert_eq!(stats.completed, 3);
        assert!(stats.identity_holds());
        svc.shutdown();
    }

    #[test]
    fn shutdown_drains_every_queued_handle_with_aborted() {
        let qos = QosConfig { max_inflight: 1, ..QosConfig::default() };
        let svc = two_file_service(qos);
        let logs = svc.file_id("logs").unwrap();
        let gate = Arc::new(AtomicBool::new(false));
        let pinned = svc
            .submit(logs, QosClass::High, GatedCount { prefix: String::new(), gate: Some(Arc::clone(&gate)) })
            .unwrap();
        while svc.inflight(logs) == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        let queued: Vec<_> = (0..4)
            .map(|i| {
                let class = if i % 2 == 0 { QosClass::Normal } else { QosClass::Low };
                svc.submit(logs, class, GatedCount::free("log")).unwrap()
            })
            .collect();
        let stats_before = svc.stats();
        assert_eq!(stats_before.submitted, 5);
        // Open the gate shortly after shutdown starts so the pinned job
        // (and the server teardown waiting on it) can finish.
        let opener = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                gate.store(true, Ordering::SeqCst);
            })
        };
        svc.shutdown();
        opener.join().unwrap();
        for h in queued {
            assert_eq!(h.wait(), Err(JobError::Aborted), "queued handles drain as Aborted");
        }
        pinned.wait().expect("the in-flight job completed normally");
    }
}
