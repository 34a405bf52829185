//! A persistent worker pool: threads are spawned **once** and fed work
//! through a queue, so thread creation is O(pools), never O(work items).
//!
//! This replaces the previous engine hot path, which ran
//! `crossbeam::scope` — spawning and joining `num_threads` OS threads —
//! on *every* segment iteration of the shared scan. With one-block
//! segments that meant thousands of thread creations per revolution,
//! a fixed cost that had nothing to do with scanning and capped how small
//! (and thus how responsive) segments could be.
//!
//! Two submission modes:
//!
//! - [`WorkerPool::broadcast`] — run a closure as `fan_out` parallel tasks
//!   that may **borrow from the caller's stack**, blocking until all
//!   complete (the replacement for `crossbeam::scope` at each phase).
//!   A `fan_out` of 1 runs inline on the caller — a one-block segment pays
//!   zero cross-thread handoff.
//! - [`WorkerPool::execute`] — fire-and-forget an owned (`'static`) task;
//!   used to move job finalization (combine + reduce) off the scan
//!   coordinator. Dropping the pool **drains** queued tasks before joining
//!   the workers, so detached work is never lost on shutdown.

use parking_lot::{Condvar, Mutex};
use s3_obs::{Counter, Gauge, Obs};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

struct QueueState {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// Pre-resolved instruments of an observed pool (`pool.<name>.*`): the
/// queued-task gauge and the busy-time counter the `s3trace` summary
/// derives utilization from. Resolved once at pool construction; the
/// worker hot path only touches the `Arc`s.
struct PoolObs {
    queue_depth: Arc<Gauge>,
    busy_us: Arc<Counter>,
    tasks: Arc<Counter>,
    tasks_panicked: Arc<Counter>,
}

struct PoolShared {
    queue: Mutex<QueueState>,
    /// Workers park here waiting for tasks.
    work_cv: Condvar,
    /// Tasks executed to completion (instrumentation).
    executed: AtomicU64,
    /// Detached tasks that panicked (broadcast panics re-raise instead).
    panicked: AtomicU64,
    /// Telemetry, if the pool was built with [`WorkerPool::new_observed`].
    obs: Option<PoolObs>,
}

/// A fixed-size pool of persistent worker threads.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    /// Threads this pool has ever created (== `num_threads`; the point is
    /// that it never grows with the amount of work submitted).
    spawned: u64,
}

impl WorkerPool {
    /// Spawn `num_threads` workers, once, for the lifetime of the pool.
    ///
    /// # Panics
    /// Panics if `num_threads` is zero.
    pub fn new(num_threads: usize) -> Self {
        WorkerPool::new_observed(num_threads, "worker", &Obs::off())
    }

    /// Spawn an **observed** pool: when `obs` is on, the pool registers
    /// `pool.<name>.queue_depth` (tasks enqueued but not yet running),
    /// `pool.<name>.busy_us` (cumulative worker time spent inside tasks;
    /// utilization = busy_us / (wall × workers)), `pool.<name>.tasks`
    /// (tasks run), and `pool.<name>.tasks_panicked` (detached tasks whose
    /// panic the worker loop swallowed — the metrics-registry view of
    /// [`WorkerPool::tasks_panicked`]). Inline `broadcast(1, …)` work runs
    /// on the caller and is deliberately **not** counted as worker busy
    /// time.
    ///
    /// # Panics
    /// Panics if `num_threads` is zero.
    pub fn new_observed(num_threads: usize, name: &str, obs: &Obs) -> Self {
        assert!(num_threads > 0, "pool needs at least one worker");
        let pool_obs = obs.core().map(|core| PoolObs {
            queue_depth: core.metrics.gauge(&format!("pool.{name}.queue_depth")),
            busy_us: core.metrics.counter(&format!("pool.{name}.busy_us")),
            tasks: core.metrics.counter(&format!("pool.{name}.tasks")),
            tasks_panicked: core.metrics.counter(&format!("pool.{name}.tasks_panicked")),
        });
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            executed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            obs: pool_obs,
        });
        let workers = (0..num_threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("s3-pool-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawning a pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            spawned: num_threads as u64,
        }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.workers.len()
    }

    /// Threads this pool has spawned over its whole lifetime. Always equals
    /// `num_threads()`: the instrumentation tests assert thread creation is
    /// O(pools), not O(segment iterations or jobs).
    pub fn threads_spawned(&self) -> u64 {
        self.spawned
    }

    /// Tasks executed to completion so far.
    pub fn tasks_executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Detached tasks that panicked (their panics are swallowed by the
    /// worker loop so the pool survives; broadcast panics re-raise on the
    /// caller instead).
    pub fn tasks_panicked(&self) -> u64 {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Fire-and-forget an owned task. Queued tasks are drained (run to
    /// completion) before `Drop` joins the workers.
    pub fn execute(&self, task: impl FnOnce() + Send + 'static) {
        if let Some(obs) = &self.shared.obs {
            obs.queue_depth.add(1);
        }
        let mut q = self.shared.queue.lock();
        q.tasks.push_back(Box::new(task));
        drop(q);
        self.shared.work_cv.notify_one();
    }

    /// Run `f(0)`, `f(1)`, …, `f(fan_out - 1)` as parallel tasks and block
    /// until all complete, returning the results in index order. The
    /// closure may borrow from the caller's stack: completion is awaited
    /// before returning, so borrows outlive every task.
    ///
    /// `fan_out == 0` returns an empty vector without touching the pool;
    /// `fan_out == 1` runs inline on the calling thread (no handoff).
    /// If any task panics, the panic is re-raised here after all tasks
    /// finish. Must not be called from inside a pool task of the same pool
    /// (the inner wait could starve the outer task's worker).
    pub fn broadcast<'env, R, F>(&self, fan_out: usize, f: &F) -> Vec<R>
    where
        R: Send + 'env,
        F: Fn(usize) -> R + Sync + 'env,
    {
        if fan_out == 0 {
            return Vec::new();
        }
        if fan_out == 1 {
            return vec![f(0)];
        }

        struct Latch {
            remaining: Mutex<usize>,
            done_cv: Condvar,
        }
        let latch = Arc::new(Latch {
            remaining: Mutex::new(fan_out),
            done_cv: Condvar::new(),
        });
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..fan_out).map(|_| None).collect());
        let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        {
            let results = &results;
            let panic_payload = &panic_payload;
            if let Some(obs) = &self.shared.obs {
                obs.queue_depth.add(fan_out as i64);
            }
            let mut q = self.shared.queue.lock();
            for i in 0..fan_out {
                let latch = Arc::clone(&latch);
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    match catch_unwind(AssertUnwindSafe(|| f(i))) {
                        Ok(r) => results.lock()[i] = Some(r),
                        Err(p) => *panic_payload.lock() = Some(p),
                    }
                    let mut remaining = latch.remaining.lock();
                    *remaining -= 1;
                    if *remaining == 0 {
                        latch.done_cv.notify_all();
                    }
                });
                // SAFETY: only the lifetime is erased (`Box<dyn FnOnce +
                // Send + '_>` → `+ 'static`; identical layout). The task
                // borrows `f`, `results`, and `panic_payload`, all of which
                // outlive it: this function does not return until the latch
                // records every task's completion (even on panic, via
                // catch_unwind above), so no borrow dangles while a task
                // can run.
                let task: Task = unsafe { std::mem::transmute(task) };
                q.tasks.push_back(task);
            }
            drop(q);
            self.shared.work_cv.notify_all();
        }

        let mut remaining = latch.remaining.lock();
        while *remaining > 0 {
            latch.done_cv.wait(&mut remaining);
        }
        drop(remaining);

        if let Some(p) = panic_payload.into_inner() {
            resume_unwind(p);
        }
        results
            .into_inner()
            .into_iter()
            .map(|r| r.expect("every broadcast task stores its result"))
            .collect()
    }
}

impl Drop for WorkerPool {
    /// Drain all queued tasks, then join the workers.
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock();
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let task = {
            let mut q = shared.queue.lock();
            loop {
                if let Some(t) = q.tasks.pop_front() {
                    break t;
                }
                if q.shutdown {
                    return;
                }
                shared.work_cv.wait(&mut q);
            }
        };
        let t0 = shared
            .obs
            .as_ref()
            .map(|obs| {
                obs.queue_depth.add(-1);
                std::time::Instant::now()
            });
        // Broadcast tasks handle their own panics (and re-raise on the
        // caller); this catch keeps a panicking detached task from killing
        // the worker and losing the rest of the queue.
        if catch_unwind(AssertUnwindSafe(task)).is_err() {
            shared.panicked.fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = &shared.obs {
                obs.tasks_panicked.inc();
            }
        }
        if let (Some(obs), Some(t0)) = (&shared.obs, t0) {
            obs.busy_us.add(t0.elapsed().as_micros() as u64);
            obs.tasks.inc();
        }
        shared.executed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Shared progress over a fixed set of blocks, packed into **one** atomic
/// word: the low 32 bits are the claim cursor (bumped by [`claim`]), the
/// high 32 bits count completed blocks (bumped by [`complete`]). This is
/// the heart of work-assisting segment scheduling: workers take the next
/// unscanned block with a single `fetch_add` — no per-worker task lists,
/// no CAS retry loops — and a worker that drains the cursor can read, from
/// the same word, whether a tail of claimed-but-unfinished blocks remains
/// worth assisting.
///
/// The claim cursor may overshoot `total` (each worker that finds the
/// cursor exhausted bumps it once past the end), so [`claimed`] caps at
/// `total` while [`claim_attempts`] exposes the raw count for
/// coordination-cost instrumentation.
///
/// [`claim`]: WorkProgress::claim
/// [`complete`]: WorkProgress::complete
/// [`claimed`]: WorkProgress::claimed
/// [`claim_attempts`]: WorkProgress::claim_attempts
pub struct WorkProgress {
    packed: AtomicU64,
    total: u32,
}

const COMPLETED_ONE: u64 = 1 << 32;
const CLAIM_MASK: u64 = (1 << 32) - 1;

impl WorkProgress {
    /// Progress tracker over `total` blocks, none claimed or completed.
    ///
    /// # Panics
    /// Panics if `total` does not fit the 32-bit claim counter.
    pub fn new(total: usize) -> Self {
        assert!(
            total < u32::MAX as usize,
            "block count {total} exceeds the packed 32-bit claim counter"
        );
        WorkProgress {
            packed: AtomicU64::new(0),
            total: total as u32,
        }
    }

    /// Claim the next unscanned block. Returns its index, or `None` once
    /// every block has been claimed. One `fetch_add`, no retry loop; each
    /// index in `0..total` is handed out exactly once across all callers.
    pub fn claim(&self) -> Option<usize> {
        let idx = self.packed.fetch_add(1, Ordering::AcqRel) & CLAIM_MASK;
        if idx < self.total as u64 {
            Some(idx as usize)
        } else {
            None
        }
    }

    /// Record one block finished. Returns `(completed, all_done)` where
    /// `completed` counts blocks finished so far (including this one) —
    /// the caller observing `all_done` is the **last** completer and owns
    /// any end-of-segment notification.
    pub fn complete(&self) -> (u64, bool) {
        let prev = self.packed.fetch_add(COMPLETED_ONE, Ordering::AcqRel);
        let completed = (prev >> 32) + 1;
        (completed, completed == self.total as u64)
    }

    /// Blocks claimed so far, capped at `total` (the cursor itself may
    /// overshoot; see [`WorkProgress::claim_attempts`]).
    pub fn claimed(&self) -> u64 {
        (self.packed.load(Ordering::Acquire) & CLAIM_MASK).min(self.total as u64)
    }

    /// Blocks completed so far.
    pub fn completed(&self) -> u64 {
        self.packed.load(Ordering::Acquire) >> 32
    }

    /// Raw claim-cursor value: every atomic claim operation ever issued,
    /// including the bounded overshoot from workers discovering the cursor
    /// is exhausted. The coordination cost of the segment in one number —
    /// a solo scan must keep this at zero.
    pub fn claim_attempts(&self) -> u64 {
        self.packed.load(Ordering::Acquire) & CLAIM_MASK
    }

    /// Whether every block has been completed.
    pub fn is_done(&self) -> bool {
        self.completed() == self.total as u64
    }

    /// Number of blocks tracked.
    pub fn total(&self) -> usize {
        self.total as usize
    }
}

/// A claim source for one scan task: either a private solo range (zero
/// atomic operations — the single-worker fast path) or a [`WorkProgress`]
/// shared with sibling workers. Constructed *inside* each broadcast task
/// so the solo counter never needs to be `Sync`.
pub(crate) enum BlockClaims<'a> {
    /// Private cursor over `0..total`; no coordination.
    Solo {
        /// Next index to hand out.
        next: usize,
        /// One past the last index.
        total: usize,
    },
    /// Cursor shared with sibling workers via atomic claims.
    Shared(&'a WorkProgress),
}

impl<'a> BlockClaims<'a> {
    /// Solo claims over `0..total` — no atomics, for a lone worker.
    pub fn solo(total: usize) -> Self {
        BlockClaims::Solo { next: 0, total }
    }

    /// Claims shared with sibling workers through `progress`.
    pub fn shared(progress: &'a WorkProgress) -> Self {
        BlockClaims::Shared(progress)
    }

    /// Claim the next block index, or `None` when the range is exhausted.
    pub fn claim(&mut self) -> Option<usize> {
        match self {
            BlockClaims::Solo { next, total } => {
                if *next < *total {
                    let i = *next;
                    *next += 1;
                    Some(i)
                } else {
                    None
                }
            }
            BlockClaims::Shared(p) => p.claim(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn work_progress_claims_each_block_exactly_once_under_contention() {
        // Hammer one WorkProgress from many threads; every index must be
        // handed out exactly once and the completion counter must converge
        // to the total with exactly one all_done observation.
        const TOTAL: usize = 10_000;
        const THREADS: usize = 8;
        let progress = WorkProgress::new(TOTAL);
        let seen: Vec<AtomicUsize> = (0..TOTAL).map(|_| AtomicUsize::new(0)).collect();
        let all_done_seen = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    while let Some(i) = progress.claim() {
                        seen[i].fetch_add(1, Ordering::SeqCst);
                        let (_, all) = progress.complete();
                        if all {
                            all_done_seen.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(s.load(Ordering::SeqCst), 1, "block {i} claimed once");
        }
        assert_eq!(progress.claimed(), TOTAL as u64);
        assert_eq!(progress.completed(), TOTAL as u64);
        assert!(progress.is_done());
        assert_eq!(all_done_seen.load(Ordering::SeqCst), 1, "one last completer");
        // Overshoot is bounded: each thread bumps the cursor at most once
        // past the end before seeing None.
        let overshoot = progress.claim_attempts() - TOTAL as u64;
        assert!(overshoot <= THREADS as u64, "overshoot {overshoot}");
    }

    #[test]
    fn work_progress_empty_set_is_immediately_exhausted() {
        let progress = WorkProgress::new(0);
        assert!(progress.claim().is_none());
        assert!(progress.is_done());
        assert_eq!(progress.claimed(), 0);
    }

    #[test]
    fn solo_claims_cover_the_range_without_touching_shared_state() {
        let mut claims = BlockClaims::solo(3);
        assert_eq!(claims.claim(), Some(0));
        assert_eq!(claims.claim(), Some(1));
        assert_eq!(claims.claim(), Some(2));
        assert_eq!(claims.claim(), None);
        assert_eq!(claims.claim(), None, "stays exhausted");
    }

    #[test]
    fn shared_claims_delegate_to_the_progress_word() {
        let progress = WorkProgress::new(2);
        let mut a = BlockClaims::shared(&progress);
        let mut b = BlockClaims::shared(&progress);
        assert_eq!(a.claim(), Some(0));
        assert_eq!(b.claim(), Some(1));
        assert_eq!(a.claim(), None);
        assert!(progress.claim_attempts() >= 2);
    }

    #[test]
    fn broadcast_returns_results_in_index_order() {
        let pool = WorkerPool::new(3);
        let out = pool.broadcast(8, &|i| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn broadcast_borrows_from_the_stack() {
        let pool = WorkerPool::new(2);
        let data = vec![1u64, 2, 3, 4, 5];
        let data = &data;
        let parts = pool.broadcast(2, &|i| -> u64 {
            data.iter().skip(i).step_by(2).sum()
        });
        assert_eq!(parts.iter().sum::<u64>(), 15);
    }

    #[test]
    fn fan_out_one_runs_inline_without_tasks() {
        let pool = WorkerPool::new(2);
        let before = pool.tasks_executed();
        let tid = std::thread::current().id();
        let out = pool.broadcast(1, &|_| std::thread::current().id());
        assert_eq!(out, vec![tid], "fan_out=1 runs on the caller");
        assert_eq!(pool.tasks_executed(), before, "no task was queued");
    }

    #[test]
    fn spawn_count_is_constant_over_many_broadcasts() {
        let pool = WorkerPool::new(2);
        for _ in 0..200 {
            pool.broadcast(2, &|i| i);
        }
        assert_eq!(pool.threads_spawned(), 2);
        assert_eq!(pool.tasks_executed(), 400);
    }

    #[test]
    fn drop_drains_queued_detached_tasks() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1);
            for _ in 0..50 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Dropping here must run everything still queued.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn broadcast_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(4, &|i| {
                if i == 2 {
                    panic!("task blew up");
                }
                i
            })
        }));
        assert!(r.is_err(), "panic must surface on the caller");
        // The pool survives and keeps serving work.
        assert_eq!(pool.broadcast(3, &|i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn detached_panic_does_not_kill_the_pool() {
        let pool = WorkerPool::new(1);
        pool.execute(|| panic!("detached boom"));
        let out = pool.broadcast(2, &|i| i);
        assert_eq!(out, vec![0, 1]);
        assert_eq!(pool.tasks_panicked(), 1);
    }

    #[test]
    fn observed_pool_counts_tasks_and_busy_time() {
        let obs = Obs::new();
        let pool = WorkerPool::new_observed(2, "test", &obs);
        pool.broadcast(4, &|_| std::thread::sleep(std::time::Duration::from_millis(2)));
        pool.execute(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        drop(pool); // drains the detached task
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.counters["pool.test.tasks"], 5);
        assert!(snap.counters["pool.test.busy_us"] >= 5 * 2_000);
        assert_eq!(snap.gauges["pool.test.queue_depth"], 0, "drained");
        assert_eq!(snap.counters["pool.test.tasks_panicked"], 0);
    }

    #[test]
    fn observed_pool_exports_panicked_tasks() {
        let obs = Obs::new();
        let pool = WorkerPool::new_observed(1, "test", &obs);
        pool.execute(|| panic!("detached boom"));
        pool.execute(|| {});
        // Broadcast panics re-raise on the caller and must NOT count.
        let r = catch_unwind(AssertUnwindSafe(|| pool.broadcast(2, &|_| panic!("b"))));
        assert!(r.is_err());
        drop(pool);
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.counters["pool.test.tasks_panicked"], 1);
        assert_eq!(snap.counter("pool.test.tasks_panicked"), 1);
    }

    #[test]
    fn unobserved_pool_registers_nothing() {
        let obs = Obs::new();
        let pool = WorkerPool::new(2);
        pool.broadcast(4, &|i| i);
        drop(pool);
        assert!(obs.snapshot().unwrap().counters.is_empty());
    }

    #[test]
    fn rapid_create_drop_cycles_do_not_hang() {
        for _ in 0..100 {
            let pool = WorkerPool::new(2);
            pool.execute(|| {});
            drop(pool);
        }
    }
}
