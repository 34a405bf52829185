//! Fault tolerance and deterministic fault injection for the real engine.
//!
//! This is the engine-level analogue of the simulator's periodic slot
//! checking (`s3-core::s3`) and chaos harness (`s3-cluster::chaos`): the
//! shared-scan server can be configured to treat segment tasks as
//! **retryable** — idle workers re-execute the uncommitted tail with
//! first-result-wins idempotent commit — and to **exclude** virtual
//! workers that repeatedly miss their claim deadlines (derived from an
//! EWMA of recent block-scan times), readmitting them after a
//! configurable window (the engine's version of the paper's
//! slow-TaskTracker exclusion, Section IV-D-1).
//!
//! [`FaultPlan`] is the injection side: a reproducible set of faults —
//! slow workers, dropped (lost) block tasks, user-function panics, reduce
//! shard panics, a dying coordinator — drawn from a single 64-bit seed,
//! mirroring `s3_cluster::ChaosPlan`. Equal seeds yield byte-identical
//! plans, so any failure the `s3chaos engine` fuzzer finds replays from
//! its seed alone, and a failing plan minimizes by dropping faults one at
//! a time ([`FaultPlan::without_fault`]).
//!
//! Faults that fire at most once (drops, panics, the coordinator kill)
//! are *armed* per server run via `ArmedFaults`, so a dropped task is
//! lost exactly once and the retry path must recover it.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fault-tolerance parameters of a [`crate::SharedScanServer`].
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Run segments as per-block claim/commit tasks: workers that drain
    /// the segment's claim cursor immediately **assist** the slow tail,
    /// re-executing still-uncommitted blocks (first result wins,
    /// idempotent commit), so a lost or straggling block is recovered in
    /// block-scan time. Each claim also carries a deadline; a claim that
    /// misses it charges its owner a miss, and misses drive worker
    /// exclusion. Off, segments run as one cooperative broadcast: cheaper
    /// per block, but a lost or stalled task stalls the whole scan. Panic
    /// quarantine is always on, independent of this flag.
    pub speculation: bool,
    /// Lower bound on a block task's deadline, whatever the EWMA says.
    pub deadline_floor: Duration,
    /// Deadline = max(floor, EWMA of recent block-scan times × this).
    pub deadline_slack: f64,
    /// Consecutive deadline misses before a virtual worker is excluded.
    pub exclusion_threshold: u32,
    /// Segment iterations an excluded worker sits out before readmission.
    pub exclusion_window_iters: u64,
}

impl Default for FtConfig {
    /// Speculation off (zero-overhead scanning); enable it with
    /// [`FtConfig::resilient`] or by setting
    /// [`speculation`](FtConfig::speculation) yourself.
    fn default() -> Self {
        FtConfig {
            speculation: false,
            deadline_floor: Duration::from_millis(25),
            deadline_slack: 8.0,
            exclusion_threshold: 2,
            exclusion_window_iters: 8,
        }
    }
}

impl FtConfig {
    /// Speculation on with the default deadlines — the configuration the
    /// chaos fuzzer and the fault-tolerance tests run under.
    pub fn resilient() -> Self {
        FtConfig {
            speculation: true,
            ..FtConfig::default()
        }
    }
}

/// One injected engine fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineFault {
    /// Virtual worker `worker` sleeps `delay_us` before scanning each
    /// block it claims during global segment iterations
    /// `[from_iter, until_iter)` — a transient straggler. Under
    /// speculation this triggers tail re-execution, deadline misses, and
    /// (if it persists) exclusion.
    SlowWorker {
        /// Virtual worker index (broadcast/task slot, `0..num_threads`).
        worker: usize,
        /// First affected iteration.
        from_iter: u64,
        /// First unaffected iteration.
        until_iter: u64,
        /// Injected delay per claimed block, microseconds.
        delay_us: u64,
    },
    /// Virtual worker `worker` silently loses the first block it claims at
    /// iteration ≥ `at_iter`: the work runs but is never committed — a
    /// lost task. Fires once. Only the retry path can recover the block.
    DropTask {
        /// Virtual worker index.
        worker: usize,
        /// Earliest iteration at which the drop arms.
        at_iter: u64,
    },
    /// The map function of the job with submit index `job` panics on the
    /// first block it maps after completing `after_segments` segments of
    /// its own revolution. Fires once; the job must be quarantined while
    /// every co-riding job keeps its exact output.
    PanicMap {
        /// Job submit index (`0` = first job submitted to the server).
        job: u64,
        /// Segments of the job's own revolution completed before the
        /// panic (0 = first block the job ever maps).
        after_segments: u64,
    },
    /// Reduce shard `shard` of job `job` panics at shard start. Fires
    /// once; the job fails with [`crate::JobError::Panicked`] and no other
    /// job is affected.
    PanicReduce {
        /// Job submit index.
        job: u64,
        /// Reduce-pool shard index the panic lands on.
        shard: usize,
    },
    /// Reduce shard `shard` of job `job` sleeps `delay_us` before running.
    DelayReduce {
        /// Job submit index.
        job: u64,
        /// Delayed shard index.
        shard: usize,
        /// Injected delay, microseconds.
        delay_us: u64,
    },
    /// The coordinator dies (returns) at the start of iteration ≥
    /// `at_iter`. Every unfinished job must resolve with
    /// [`crate::JobError::Aborted`] rather than hanging its handle.
    KillCoordinator {
        /// Earliest iteration at which the coordinator dies.
        at_iter: u64,
    },
}

impl std::fmt::Display for EngineFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            EngineFault::SlowWorker {
                worker,
                from_iter,
                until_iter,
                delay_us,
            } => write!(
                f,
                "slow worker {worker}: +{delay_us}us/block during iters {from_iter}..{until_iter}"
            ),
            EngineFault::DropTask { worker, at_iter } => {
                write!(f, "drop: worker {worker} loses a block at iter >= {at_iter}")
            }
            EngineFault::PanicMap {
                job,
                after_segments,
            } => write!(f, "panic: job {job} map after {after_segments} segment(s)"),
            EngineFault::PanicReduce { job, shard } => {
                write!(f, "panic: job {job} reduce shard {shard}")
            }
            EngineFault::DelayReduce {
                job,
                shard,
                delay_us,
            } => write!(f, "delay: job {job} reduce shard {shard} +{delay_us}us"),
            EngineFault::KillCoordinator { at_iter } => {
                write!(f, "kill coordinator at iter >= {at_iter}")
            }
        }
    }
}

/// Bounds for seeded engine fault-plan generation.
#[derive(Debug, Clone)]
pub struct EngineChaosConfig {
    /// Virtual workers faults may target (the server's `num_threads`).
    pub num_workers: usize,
    /// Jobs faults may target (submit indexes `0..num_jobs`).
    pub num_jobs: u64,
    /// Segment iterations the run is expected to span (fault times are
    /// drawn from this range).
    pub horizon_iters: u64,
    /// Reduce shards per job (the server's reduce-pool width).
    pub num_shards: usize,
    /// Minimum stragglers per plan (default 0; the adaptive-mode fuzzer
    /// raises it to guarantee every plan perturbs the measured scan cost).
    pub min_slow: u32,
    /// Maximum straggler / drop / map-panic / reduce-fault counts.
    pub max_slow: u32,
    /// Maximum dropped tasks per plan.
    pub max_drops: u32,
    /// Maximum map panics per plan (each targets a distinct job).
    pub max_map_panics: u32,
    /// Maximum reduce faults (panic or delay) per plan.
    pub max_reduce_faults: u32,
    /// Probability the plan kills the coordinator.
    pub coordinator_kill_prob: f64,
    /// Injected straggler delay per block, microseconds.
    pub slow_delay_us: (u64, u64),
}

impl Default for EngineChaosConfig {
    fn default() -> Self {
        EngineChaosConfig {
            num_workers: 3,
            num_jobs: 4,
            horizon_iters: 40,
            num_shards: 3,
            min_slow: 0,
            max_slow: 2,
            max_drops: 2,
            max_map_panics: 2,
            max_reduce_faults: 1,
            coordinator_kill_prob: 0.05,
            slow_delay_us: (8_000, 40_000),
        }
    }
}

/// A reproducible set of engine faults drawn from one seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injected faults, in generation order.
    pub faults: Vec<EngineFault>,
}

impl FaultPlan {
    /// Generate the plan for `seed`. Deterministic: equal inputs yield
    /// equal plans.
    pub fn generate(seed: u64, cfg: &EngineChaosConfig) -> FaultPlan {
        assert!(cfg.num_workers > 0, "need at least one worker");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut faults = Vec::new();

        // `min_slow == 0` (the default) draws from `0..=max_slow`, the
        // exact historical range — existing seeds reproduce byte-identical
        // plans.
        let n_slow = rng.gen_range(cfg.min_slow..=cfg.max_slow.max(cfg.min_slow));
        for _ in 0..n_slow {
            let from_iter = rng.gen_range(0..cfg.horizon_iters.max(1));
            faults.push(EngineFault::SlowWorker {
                worker: rng.gen_range(0..cfg.num_workers),
                from_iter,
                until_iter: from_iter + rng.gen_range(1..=cfg.horizon_iters.max(2) / 2),
                delay_us: rng.gen_range(cfg.slow_delay_us.0..=cfg.slow_delay_us.1),
            });
        }
        let n_drops = rng.gen_range(0..=cfg.max_drops);
        for _ in 0..n_drops {
            faults.push(EngineFault::DropTask {
                worker: rng.gen_range(0..cfg.num_workers),
                at_iter: rng.gen_range(0..cfg.horizon_iters.max(1)),
            });
        }
        // Map panics target distinct jobs so quarantine counts are exact.
        let n_panics = rng.gen_range(0..=cfg.max_map_panics.min(cfg.num_jobs as u32));
        let mut victims: Vec<u64> = (0..cfg.num_jobs).collect();
        for i in (1..victims.len()).rev() {
            victims.swap(i, rng.gen_range(0..=i));
        }
        for &job in victims.iter().take(n_panics as usize) {
            faults.push(EngineFault::PanicMap {
                job,
                after_segments: rng.gen_range(0..cfg.horizon_iters.max(1)),
            });
        }
        // Reduce faults target jobs *not* already doomed by a map panic.
        let n_reduce = rng.gen_range(0..=cfg.max_reduce_faults);
        let spared = &victims[n_panics as usize..];
        for _ in 0..n_reduce {
            if spared.is_empty() {
                break;
            }
            let job = spared[rng.gen_range(0..spared.len())];
            let shard = rng.gen_range(0..cfg.num_shards.max(1));
            if rng.gen_bool(0.5) {
                faults.push(EngineFault::PanicReduce { job, shard });
            } else {
                faults.push(EngineFault::DelayReduce {
                    job,
                    shard,
                    delay_us: rng.gen_range(cfg.slow_delay_us.0..=cfg.slow_delay_us.1),
                });
            }
        }
        if rng.gen_bool(cfg.coordinator_kill_prob) {
            faults.push(EngineFault::KillCoordinator {
                at_iter: rng.gen_range(1..cfg.horizon_iters.max(2)),
            });
        }
        FaultPlan { faults }
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The plan with fault `idx` removed — the minimization step.
    pub fn without_fault(&self, idx: usize) -> FaultPlan {
        let mut faults = self.faults.clone();
        faults.remove(idx);
        FaultPlan { faults }
    }

    /// Job submit indexes doomed by a map or reduce panic in this plan.
    pub fn doomed_jobs(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .faults
            .iter()
            .filter_map(|f| match *f {
                EngineFault::PanicMap { job, .. } | EngineFault::PanicReduce { job, .. } => {
                    Some(job)
                }
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether the plan kills the coordinator.
    pub fn kills_coordinator(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, EngineFault::KillCoordinator { .. }))
    }

    /// One line per fault, for fuzzer reports.
    pub fn describe(&self) -> String {
        if self.faults.is_empty() {
            return "  (no faults)\n".into();
        }
        let mut out = String::new();
        for (i, fault) in self.faults.iter().enumerate() {
            out.push_str(&format!("  [{i}] {fault}\n"));
        }
        out
    }

    /// Arm the plan for one server run.
    pub(crate) fn arm(&self) -> Arc<ArmedFaults> {
        Arc::new(ArmedFaults {
            faults: self.faults.clone(),
            fired: self.faults.iter().map(|_| AtomicBool::new(false)).collect(),
        })
    }
}

/// A [`FaultPlan`] armed for one server run: one-shot faults (drops,
/// panics, the coordinator kill) fire at most once. Queried from the
/// engine's hot paths; every query is a linear scan over the (tiny) fault
/// list, and servers without a plan skip the queries entirely.
pub(crate) struct ArmedFaults {
    faults: Vec<EngineFault>,
    fired: Vec<AtomicBool>,
}

impl ArmedFaults {
    /// Claim a one-shot fault: true exactly once per fault index.
    fn fire(&self, idx: usize) -> bool {
        !self.fired[idx].swap(true, Ordering::Relaxed)
    }

    /// Injected per-block delay for `worker` at global iteration `iter`.
    pub fn map_delay_us(&self, worker: usize, iter: u64) -> u64 {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                EngineFault::SlowWorker {
                    worker: w,
                    from_iter,
                    until_iter,
                    delay_us,
                } if w == worker && (from_iter..until_iter).contains(&iter) => Some(delay_us),
                _ => None,
            })
            .sum()
    }

    /// Should `worker` lose the block it just claimed at iteration `iter`?
    pub fn drops_task(&self, worker: usize, iter: u64) -> bool {
        self.faults.iter().enumerate().any(|(i, f)| match *f {
            EngineFault::DropTask {
                worker: w,
                at_iter,
            } => w == worker && iter >= at_iter && self.fire(i),
            _ => false,
        })
    }

    /// Should job `job`'s map panic now, given it has completed
    /// `segments_done` segments of its own revolution?
    pub fn panics_map(&self, job: u64, segments_done: u64) -> bool {
        self.faults.iter().enumerate().any(|(i, f)| match *f {
            EngineFault::PanicMap {
                job: j,
                after_segments,
            } => j == job && segments_done >= after_segments && self.fire(i),
            _ => false,
        })
    }

    /// Should reduce shard `shard` of job `job` panic?
    pub fn panics_reduce(&self, job: u64, shard: usize) -> bool {
        self.faults.iter().enumerate().any(|(i, f)| match *f {
            EngineFault::PanicReduce { job: j, shard: s } => {
                j == job && s == shard && self.fire(i)
            }
            _ => false,
        })
    }

    /// Injected delay before reduce shard `shard` of job `job` runs.
    pub fn reduce_delay_us(&self, job: u64, shard: usize) -> u64 {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                EngineFault::DelayReduce {
                    job: j,
                    shard: s,
                    delay_us,
                } if j == job && s == shard => Some(delay_us),
                _ => None,
            })
            .sum()
    }

    /// Should the coordinator die at the start of iteration `iter`?
    pub fn kills_coordinator(&self, iter: u64) -> bool {
        self.faults.iter().enumerate().any(|(i, f)| match *f {
            EngineFault::KillCoordinator { at_iter } => iter >= at_iter && self.fire(i),
            _ => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let cfg = EngineChaosConfig::default();
        let a = FaultPlan::generate(7, &cfg);
        let b = FaultPlan::generate(7, &cfg);
        assert_eq!(a, b);
        // Different seeds differ for at least one of a few tries.
        assert!((0..8).any(|s| FaultPlan::generate(s, &cfg) != a));
    }

    #[test]
    fn one_shot_faults_fire_exactly_once() {
        let plan = FaultPlan {
            faults: vec![
                EngineFault::DropTask {
                    worker: 1,
                    at_iter: 3,
                },
                EngineFault::PanicMap {
                    job: 0,
                    after_segments: 2,
                },
            ],
        };
        let armed = plan.arm();
        assert!(!armed.drops_task(1, 2), "not armed before at_iter");
        assert!(armed.drops_task(1, 5));
        assert!(!armed.drops_task(1, 6), "a drop fires once");
        assert!(!armed.panics_map(0, 1));
        assert!(armed.panics_map(0, 2));
        assert!(!armed.panics_map(0, 3), "a panic fires once");
        // Re-arming resets the one-shot state.
        assert!(plan.arm().drops_task(1, 5));
    }

    #[test]
    fn delays_stack_and_windows_bound() {
        let plan = FaultPlan {
            faults: vec![
                EngineFault::SlowWorker {
                    worker: 0,
                    from_iter: 2,
                    until_iter: 5,
                    delay_us: 100,
                },
                EngineFault::SlowWorker {
                    worker: 0,
                    from_iter: 4,
                    until_iter: 6,
                    delay_us: 50,
                },
            ],
        };
        let armed = plan.arm();
        assert_eq!(armed.map_delay_us(0, 1), 0);
        assert_eq!(armed.map_delay_us(0, 2), 100);
        assert_eq!(armed.map_delay_us(0, 4), 150);
        assert_eq!(armed.map_delay_us(0, 5), 50);
        assert_eq!(armed.map_delay_us(1, 4), 0, "other workers unaffected");
    }

    #[test]
    fn doomed_jobs_lists_panicked_jobs_once() {
        let plan = FaultPlan {
            faults: vec![
                EngineFault::PanicMap {
                    job: 2,
                    after_segments: 0,
                },
                EngineFault::PanicReduce { job: 2, shard: 1 },
                EngineFault::PanicReduce { job: 0, shard: 0 },
                EngineFault::DelayReduce {
                    job: 1,
                    shard: 0,
                    delay_us: 10,
                },
            ],
        };
        assert_eq!(plan.doomed_jobs(), vec![0, 2]);
        assert!(!plan.kills_coordinator());
    }

    #[test]
    fn generated_faults_respect_bounds() {
        let cfg = EngineChaosConfig::default();
        for seed in 0..200 {
            let plan = FaultPlan::generate(seed, &cfg);
            let mut panicked_jobs = std::collections::BTreeSet::new();
            for f in &plan.faults {
                match *f {
                    EngineFault::SlowWorker {
                        worker,
                        from_iter,
                        until_iter,
                        delay_us,
                    } => {
                        assert!(worker < cfg.num_workers);
                        assert!(until_iter > from_iter);
                        assert!(delay_us >= cfg.slow_delay_us.0 && delay_us <= cfg.slow_delay_us.1);
                    }
                    EngineFault::DropTask { worker, .. } => assert!(worker < cfg.num_workers),
                    EngineFault::PanicMap { job, .. } => {
                        assert!(job < cfg.num_jobs);
                        assert!(panicked_jobs.insert(job), "seed {seed}: duplicate map-panic victim");
                    }
                    EngineFault::PanicReduce { job, shard } | EngineFault::DelayReduce { job, shard, .. } => {
                        assert!(job < cfg.num_jobs);
                        assert!(shard < cfg.num_shards);
                        assert!(
                            !panicked_jobs.contains(&job),
                            "seed {seed}: reduce fault on a map-panicked job"
                        );
                    }
                    EngineFault::KillCoordinator { .. } => {}
                }
            }
        }
    }

    #[test]
    fn min_slow_guarantees_a_straggler_in_every_plan() {
        let cfg = EngineChaosConfig {
            min_slow: 1,
            ..EngineChaosConfig::default()
        };
        for seed in 0..100 {
            let plan = FaultPlan::generate(seed, &cfg);
            let stragglers = plan
                .faults
                .iter()
                .filter(|f| matches!(f, EngineFault::SlowWorker { .. }))
                .count();
            assert!(stragglers >= 1, "seed {seed} generated no straggler");
        }
    }

    #[test]
    fn minimization_removes_one_fault() {
        let cfg = EngineChaosConfig::default();
        let plan = (0..100)
            .map(|s| FaultPlan::generate(s, &cfg))
            .find(|p| p.len() >= 2)
            .expect("some seed has >= 2 faults");
        let smaller = plan.without_fault(0);
        assert_eq!(smaller.len(), plan.len() - 1);
        assert_eq!(smaller.faults[0], plan.faults[1]);
        assert!(plan.describe().lines().count() == plan.len());
    }
}
