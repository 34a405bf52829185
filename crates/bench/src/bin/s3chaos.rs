//! s3chaos — deterministic fault-injection fuzzer with trace-level
//! invariant checking.
//!
//! For every seed, a [`ChaosPlan`] of node deaths, persistent stragglers
//! and transient slot slowdowns is generated, a seeded workload (1–3
//! wordcount jobs with staggered arrivals) is run under every scheduler
//! (FIFO, Fair, Capacity, MRShare, S³), and the recorded trace is replayed
//! through the [`InvariantChecker`]:
//!
//! - every block of every job's file is scanned exactly once per job;
//! - no task is assigned to a dead node or an excluded slot;
//! - batches only merge sub-jobs targeting the same segment;
//! - per-node slot capacities are respected;
//! - for single-job seeds, TET/ART never improve by more than one
//!   heartbeat plus 3% of the clean runtime when faults are added
//!   (monotonicity — sharing effects can legitimately invert this with
//!   overlapping jobs, so multi-job seeds are exempt, and greedy
//!   heartbeat-quantized assignment permits small improvements: a
//!   Graham-style scheduling anomaly, observed up to ~2% on Capacity).
//!
//! Everything is deterministic: `--seed <n>` re-runs one scenario and
//! proves the trace reproduces byte-for-byte; a failing seed's fault plan
//! is automatically minimized by dropping faults while the failure
//! persists.
//!
//! `s3chaos engine` applies the same discipline to the *real* engine: for
//! every seed a [`FaultPlan`](s3_engine::FaultPlan) of stragglers, task
//! drops, map/reduce panics and coordinator death is injected into a live
//! [`SharedScanServer`](s3_engine::SharedScanServer) running seeded
//! wordcount jobs (on the cooperative scan loop for even seeds, the
//! resilient one for odd seeds), and the run is checked against an exact
//! oracle — panicked jobs quarantine, killed-coordinator runs abort every
//! unresolved handle, every surviving job's output is byte-identical to
//! running it solo — plus the engine trace invariants
//! ([`check_engine_events`](s3_mapreduce::check_engine_events)) and a
//! run-twice replay-identity proof.
//!
//! `s3chaos engine --adaptive` runs the engine fuzzer with adaptive
//! segment sizing on and every plan guaranteed at least one straggler, so
//! segment boundaries actually move mid-scan; plans keep only the
//! outcome-neutral faults (stragglers, drops, reduce faults) because
//! iteration-indexed map panics and coordinator kills land on different
//! blocks once segment sizes drift. Each seed must additionally emit at
//! least one `segment_resized` event, and every resize must stay inside
//! the configured clamp.
//!
//! `s3chaos engine --assist` hammers the work-assisting claim protocol:
//! every plan is guaranteed at least one straggler (so segments have a
//! real uncommitted tail to assist) alongside the usual map panics and
//! drops, blocks are big enough that every virtual worker actually
//! contends for claims, and the sweep must show at least one assisted
//! block in `engine.blocks_assisted`. In every engine mode each seed
//! checks that assisted blocks never exceed tail attempts
//! (`engine.tasks_speculated`) and that `engine.assist_ratio` stays within
//! [0, 10 000] basis points; the exactly-once claim invariant rides on
//! `check_engine_events`.
//!
//! `s3chaos service` fuzzes the multi-tenant
//! [`ScanService`](s3_engine::ScanService): seeded bursts of jobs (mixed
//! QoS classes, tight deadlines, two tenants) arrive faster than the
//! service's small admission bounds can drain, while each tenant's server
//! runs under its own seeded worker fault plan, on the scan loop the
//! seed's parity picks as above. Every seed must keep the
//! accounting identity (`submitted == completed + quarantined +
//! rejected + expired + aborted`, cross-checked against the client's own
//! tally),
//! resolve every handle within a bound, return surviving outputs
//! byte-identical to solo runs, and pass the `svc_*` admission-queue and
//! per-tenant engine trace invariants.
//!
//! ```text
//! s3chaos [--seeds N] [--seed K] [--verbose]
//! s3chaos engine [--adaptive | --assist] [--seeds N] [--seed K] [--verbose]
//! s3chaos service [--seeds N] [--seed K] [--verbose]
//! ```

use s3_cluster::{ChaosConfig, ChaosPlan, ClusterTopology, NodeId};
use s3_core::{
    CapacityScheduler, FairScheduler, FifoScheduler, MRShareScheduler, S3Config, S3Scheduler,
    SubJobSizing,
};
use s3_engine::FtConfig;
use s3_mapreduce::{
    job::requests_from_arrivals, simulate_traced, CostModel, EngineConfig, InvariantChecker,
    JobRequest, RunMetrics, Scheduler, Trace,
};
use s3_sim::SimRng;
use s3_workloads::{per_node_file, wordcount_normal, Dataset};
use std::process::ExitCode;
use std::time::Duration;

const SCHEDULERS: [&str; 5] = ["FIFO", "Fair", "Capacity", "MRShare", "S3"];
/// Salt separating the workload stream from the fault-plan stream so the
/// two never correlate.
const WORKLOAD_SALT: u64 = 0x0053_33AB_1E0F_00D5;

fn usage() -> ! {
    eprintln!(
        "s3chaos: seeded chaos fuzzer over all schedulers\n\n\
         USAGE:\n  s3chaos [--seeds N]     fuzz seeds 0..N (default 200)\n  \
         s3chaos --seed K        replay one seed in detail (plan, metrics,\n  \
         \x20                       digests, byte-for-byte reproduction proof)\n  \
         s3chaos --verbose       one line per seed during a sweep\n  \
         s3chaos engine [...]    same flags, but fuzz the real shared-scan\n  \
         \x20                       engine (default 100 seeds)\n  \
         s3chaos engine --adaptive  engine fuzzing with adaptive segment\n  \
         \x20                       sizing on (outcome-neutral faults only)\n  \
         s3chaos engine --assist    engine fuzzing with a guaranteed\n  \
         \x20                       straggler per plan and at least one\n  \
         \x20                       assisted block per sweep\n  \
         s3chaos service [...]   fuzz the multi-tenant ScanService under\n  \
         \x20                       seeded overload bursts, QoS classes,\n  \
         \x20                       deadlines, and per-tenant worker faults\n  \
         \x20                       (default 100 seeds)"
    );
    std::process::exit(2)
}

struct Args {
    engine: bool,
    service: bool,
    adaptive: bool,
    assist: bool,
    seeds: u64,
    seed: Option<u64>,
    verbose: bool,
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let engine = raw.first().map(String::as_str) == Some("engine");
    let service = raw.first().map(String::as_str) == Some("service");
    let mut args = Args {
        engine,
        service,
        adaptive: false,
        assist: false,
        seeds: if engine || service { 100 } else { 200 },
        seed: None,
        verbose: false,
    };
    let mut it = raw.into_iter().skip(usize::from(engine || service));
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => {
                args.seeds = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--seed" => {
                args.seed =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--adaptive" => args.adaptive = true,
            "--assist" => args.assist = true,
            "--verbose" | "-v" => args.verbose = true,
            _ => usage(),
        }
    }
    if (args.adaptive || args.assist) && !args.engine {
        usage()
    }
    if args.adaptive && args.assist {
        // The assist oracle needs fixed segment boundaries; pick one mode.
        usage()
    }
    args
}

fn make_scheduler(name: &str, n_jobs: usize) -> Box<dyn Scheduler> {
    match name {
        "FIFO" => Box::new(FifoScheduler::new()),
        "Fair" => Box::new(FairScheduler::new()),
        "Capacity" => Box::new(CapacityScheduler::new(4)),
        "MRShare" => Box::new(MRShareScheduler::mrs1(n_jobs)),
        // Slot checking + dynamic sizing on, so chaos exercises the
        // exclusion / re-admission / sub-job adjustment paths.
        "S3" => Box::new(S3Scheduler::new(S3Config {
            sizing: SubJobSizing::Dynamic { waves: 5 },
            slot_check_period_s: Some(5.0),
            ..S3Config::default()
        })),
        other => panic!("unknown scheduler {other}"),
    }
}

/// Seeded workload: 1–3 wordcount jobs with arrivals in the first 45 s.
fn workload_for(seed: u64, dataset: &Dataset) -> Vec<JobRequest> {
    let mut rng = SimRng::seed_from_u64(seed ^ WORKLOAD_SALT);
    let n = 1 + rng.index(3);
    let mut arrivals: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 45.0)).collect();
    arrivals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    requests_from_arrivals(&wordcount_normal(), dataset.file, &arrivals)
}

/// The scan loop one engine or service fuzz seed runs. A sweep that
/// alternates picks it from the seed's parity, so no rng draw moves and
/// every seed's fault plan stays the same: even seeds run the cooperative
/// loop (`ServerConfig::new`'s default, and the loop every benchmark
/// workload runs), odd seeds the resilient one at a 3 ms deadline floor.
/// `--adaptive` and `--assist` sweeps always run resilient.
fn scan_loop(seed: u64, alternate: bool) -> FtConfig {
    if alternate && seed.is_multiple_of(2) {
        FtConfig::default()
    } else {
        FtConfig {
            deadline_floor: Duration::from_millis(3),
            ..FtConfig::resilient()
        }
    }
}

/// FNV-1a over the serialized trace: the reproducibility fingerprint.
fn trace_digest(serialized: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in serialized.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct RunOutput {
    metrics: RunMetrics,
    serialized_trace: String,
    violations: Vec<String>,
}

/// One (scheduler, plan) execution plus invariant replay.
fn run_checked(
    name: &str,
    cluster: &ClusterTopology,
    dataset: &Dataset,
    workload: &[JobRequest],
    plan: &ChaosPlan,
    engine_seed: u64,
) -> Result<RunOutput, String> {
    let mut scheduler = make_scheduler(name, workload.len());
    let failures = plan.failures();
    let config = EngineConfig {
        seed: engine_seed,
        failures: failures.clone(),
        ..EngineConfig::default()
    };
    let (metrics, trace) = simulate_traced(
        cluster,
        &plan.slowdowns(),
        &dataset.dfs,
        &CostModel::deterministic(),
        workload,
        scheduler.as_mut(),
        &config,
        Some(Trace::new()),
    )
    .map_err(|e| format!("{name}: simulation failed: {e}"))?;

    let checker = InvariantChecker {
        cluster,
        dfs: &dataset.dfs,
        workload,
        failures: &failures,
        speculation: false,
    };
    let violations = checker
        .check(&trace)
        .into_iter()
        .map(|v| format!("{name}: {v}"))
        .collect();
    let serialized_trace =
        serde_json::to_string(&trace).map_err(|e| format!("{name}: trace serialize: {e}"))?;
    Ok(RunOutput {
        metrics,
        serialized_trace,
        violations,
    })
}

/// All failures of one seed across every scheduler (empty = clean).
fn seed_failures(
    seed: u64,
    cluster: &ClusterTopology,
    dataset: &Dataset,
    plan: &ChaosPlan,
) -> Vec<String> {
    let workload = workload_for(seed, dataset);
    let mut failures = Vec::new();
    for name in SCHEDULERS {
        match run_checked(name, cluster, dataset, &workload, plan, seed) {
            Ok(out) => {
                failures.extend(out.violations);
                // TET/ART monotonicity: a lone job can only get slower
                // when capacity is removed (deterministic cost model).
                // Greedy heartbeat-driven assignment is subject to
                // Graham-style scheduling anomalies: a fault that shifts
                // one assignment decision can re-pack the remaining tasks
                // slightly better, legitimately improving the schedule by
                // up to about one task length (observed on the Capacity
                // scheduler, whose per-queue packing is the most brittle).
                // Allow one heartbeat plus 3% relative slack; anything
                // larger is a real violation.
                if workload.len() == 1 && !plan.is_empty() {
                    if let Ok(clean) = run_checked(
                        name,
                        cluster,
                        dataset,
                        &workload,
                        &ChaosPlan::default(),
                        seed,
                    ) {
                        let slack = |clean_s: f64| {
                            CostModel::deterministic().heartbeat_s + 0.03 * clean_s
                        };
                        let (t_f, t_c) = (
                            out.metrics.tet().as_secs_f64(),
                            clean.metrics.tet().as_secs_f64(),
                        );
                        if t_f + slack(t_c) < t_c {
                            failures.push(format!(
                                "{name}: [tet-monotonicity] faulted TET {t_f:.3}s beats clean {t_c:.3}s"
                            ));
                        }
                        let (a_f, a_c) = (
                            out.metrics.art().as_secs_f64(),
                            clean.metrics.art().as_secs_f64(),
                        );
                        if a_f + slack(a_c) < a_c {
                            failures.push(format!(
                                "{name}: [art-monotonicity] faulted ART {a_f:.3}s beats clean {a_c:.3}s"
                            ));
                        }
                    }
                }
            }
            Err(e) => failures.push(e),
        }
    }
    // Reproducibility: the same seed must yield a byte-identical S³ trace.
    let workload2 = workload_for(seed, dataset);
    let digest = |w: &[JobRequest]| {
        run_checked("S3", cluster, dataset, w, plan, seed).map(|o| o.serialized_trace)
    };
    match (digest(&workload), digest(&workload2)) {
        (Ok(a), Ok(b)) if a != b => {
            failures.push("S3: [determinism] re-run produced a different trace".into())
        }
        _ => {}
    }
    failures
}

/// Shrink a failing plan: repeatedly drop any fault whose removal keeps
/// the seed failing, until no single removal does.
fn minimize_plan(
    seed: u64,
    cluster: &ClusterTopology,
    dataset: &Dataset,
    plan: &ChaosPlan,
) -> ChaosPlan {
    let mut current = plan.clone();
    loop {
        let mut reduced = false;
        for i in 0..current.len() {
            let candidate = current.without_fault(i);
            if !seed_failures(seed, cluster, dataset, &candidate).is_empty() {
                current = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return current;
        }
    }
}

fn report_failure(
    seed: u64,
    cluster: &ClusterTopology,
    dataset: &Dataset,
    plan: &ChaosPlan,
    failures: &[String],
) {
    println!("seed {seed}: FAILED");
    println!(" fault plan:\n{}", plan.describe());
    for f in failures {
        println!("  {f}");
    }
    let minimal = minimize_plan(seed, cluster, dataset, plan);
    if minimal.len() < plan.len() {
        println!(
            " minimized to {} fault(s):\n{}",
            minimal.len(),
            minimal.describe()
        );
    } else {
        println!(" plan is already minimal");
    }
    println!(" replay with: s3chaos --seed {seed}");
}

fn replay_one(seed: u64, cluster: &ClusterTopology, dataset: &Dataset, plan: &ChaosPlan) -> bool {
    let workload = workload_for(seed, dataset);
    println!(
        "seed {seed}: {} job(s), fault plan:\n{}",
        workload.len(),
        plan.describe()
    );
    let mut ok = true;
    for name in SCHEDULERS {
        match run_checked(name, cluster, dataset, &workload, plan, seed) {
            Ok(first) => {
                let digest = trace_digest(&first.serialized_trace);
                let status = if first.violations.is_empty() {
                    "ok".to_string()
                } else {
                    ok = false;
                    format!("{} violation(s)", first.violations.len())
                };
                // Byte-for-byte reproduction proof: run again, compare.
                let repro = match run_checked(name, cluster, dataset, &workload, plan, seed) {
                    Ok(second) if second.serialized_trace == first.serialized_trace => {
                        "byte-identical"
                    }
                    Ok(_) => {
                        ok = false;
                        "MISMATCH"
                    }
                    Err(_) => {
                        ok = false;
                        "re-run failed"
                    }
                };
                println!(
                    "  {:<8} tet {:>8.2}s  art {:>8.2}s  failed-attempts {:>3}  \
                     trace {:>7} events  digest {digest:#018x} ({repro})  {status}",
                    first.metrics.scheduler,
                    first.metrics.tet().as_secs_f64(),
                    first.metrics.art().as_secs_f64(),
                    first.metrics.tasks_failed,
                    first.serialized_trace.matches("\"kind\"").count(),
                );
                for v in &first.violations {
                    println!("    {v}");
                }
            }
            Err(e) => {
                ok = false;
                println!("  {e}");
            }
        }
    }
    ok
}

/// Fuzzer over the real shared-scan engine: seeded jobs + a seeded
/// [`s3_engine::FaultPlan`] against a live server, checked against an
/// exact per-job outcome oracle, the engine trace invariants, the metrics
/// accounting identity, and a run-twice replay proof.
mod engine_fuzz {
    use s3_engine::{
        run_job_legacy, AdaptiveConfig, BlockStore, EngineChaosConfig, EngineFault, FaultPlan, Obs,
        ServerConfig, SharedScanServer,
    };
    use s3_mapreduce::check_engine_events;
    use s3_sim::SimRng;
    use s3_workloads::jobs::PatternWordCount;
    use s3_workloads::text::TextGen;
    use std::collections::BTreeMap;
    use std::time::{Duration, Instant};

    const BLOCKS_PER_SEGMENT: usize = 4;
    /// Clamp window for `--adaptive` runs; every `segment_resized` event
    /// must land inside it.
    const ADAPTIVE_MIN_BPS: usize = 1;
    const ADAPTIVE_MAX_BPS: usize = 8;
    /// Per-seed jobs draw their prefix filters from this pool.
    const JOB_PREFIXES: [&str; 8] = ["", "a", "ba", "d", "ga", "ma", "s", "ta"];
    /// Salt separating the job-mix stream from the fault-plan stream.
    const JOB_SALT: u64 = 0x00E6_61FE_C0DE_F00D;
    /// A handle not resolving within this bound is reported as a hang.
    const WAIT_BOUND: Duration = Duration::from_secs(30);

    /// The immutable world every seed runs against: one corpus, one
    /// chaos envelope, and per-prefix solo reference outputs.
    pub struct World {
        store: BlockStore,
        cfg: EngineChaosConfig,
        num_segments: u64,
        adaptive: bool,
        /// The default sweep (neither `--adaptive` nor `--assist`): seeds
        /// alternate between the two scan loops.
        alternate: bool,
        solo: BTreeMap<&'static str, BTreeMap<String, i64>>,
    }

    pub fn build_world(adaptive: bool, assist: bool) -> World {
        let text = TextGen::paper_like().generate(&mut SimRng::seed_from_u64(7), 96 << 10);
        // Assist mode scans coarser blocks: with 2 KiB blocks one eager
        // worker can drain a whole segment's claim cursor before its
        // rivals' pool tasks even wake, so the guaranteed straggler might
        // never hold a claim and the mandatory assisted-block check would
        // be judging thread-dispatch luck. At 8 KiB every virtual worker
        // genuinely contends for claims.
        let store = BlockStore::from_text(&text, if assist { 8192 } else { 2048 });
        let num_segments = store.num_blocks().div_ceil(BLOCKS_PER_SEGMENT) as u64;
        // Fault times are drawn from one revolution, so with gang
        // admission every generated map panic and coordinator kill
        // actually lands — the oracle below is exact, never vacuous.
        let cfg = if adaptive {
            // Adaptive sizing moves how many blocks one iteration covers,
            // which shifts where iteration-indexed faults land. That is
            // harmless for outcome-neutral faults (stragglers, drops,
            // reduce faults — reduce faults key on job, not iteration)
            // but would make the map-panic / coordinator-kill oracle
            // guesswork, so those are zeroed. One straggler minimum
            // guarantees every plan perturbs the measured scan cost.
            EngineChaosConfig {
                horizon_iters: num_segments,
                min_slow: 1,
                max_map_panics: 0,
                coordinator_kill_prob: 0.0,
                ..EngineChaosConfig::default()
            }
        } else if assist {
            // One straggler minimum guarantees a real uncommitted tail to
            // assist in every plan; map panics and drops stay in (the
            // protocol must hold mid-quarantine and mid-recovery). The
            // coordinator kill is zeroed so the mandatory assisted-block
            // check below can never be starved by an early abort.
            EngineChaosConfig {
                horizon_iters: num_segments,
                min_slow: 1,
                coordinator_kill_prob: 0.0,
                ..EngineChaosConfig::default()
            }
        } else {
            EngineChaosConfig {
                horizon_iters: num_segments,
                ..EngineChaosConfig::default()
            }
        };
        let solo = JOB_PREFIXES
            .iter()
            .map(|p| {
                let out = run_job_legacy(&PatternWordCount::prefix(*p), &store);
                (*p, out.records)
            })
            .collect();
        World {
            store,
            cfg,
            num_segments,
            adaptive,
            alternate: !adaptive && !assist,
            solo,
        }
    }

    pub fn plan_for(world: &World, seed: u64) -> FaultPlan {
        FaultPlan::generate(seed, &world.cfg)
    }

    fn prefixes_for(world: &World, seed: u64) -> Vec<&'static str> {
        let mut rng = SimRng::seed_from_u64(seed ^ JOB_SALT);
        (0..world.cfg.num_jobs)
            .map(|_| JOB_PREFIXES[rng.index(JOB_PREFIXES.len())])
            .collect()
    }

    /// What the plan dictates for each job, derived exactly: with gang
    /// admission at iteration 0, job `j`'s `segments_done` equals the
    /// global iteration, a `PanicMap { after_segments: s }` fires during
    /// iteration `s`, and a `KillCoordinator { at_iter: k }` fires at the
    /// top of iteration `k` — so the panic lands iff `s < k`.
    fn expected_outcomes(world: &World, plan: &FaultPlan) -> Vec<&'static str> {
        let kill = plan
            .faults
            .iter()
            .find_map(|f| match f {
                EngineFault::KillCoordinator { at_iter } => Some(*at_iter),
                _ => None,
            })
            .filter(|k| *k < world.num_segments);
        (0..world.cfg.num_jobs)
            .map(|j| {
                let map_panic = plan.faults.iter().find_map(|f| match f {
                    EngineFault::PanicMap {
                        job,
                        after_segments,
                    } if *job == j => Some(*after_segments),
                    _ => None,
                });
                let reduce_panic = plan.faults.iter().any(|f| {
                    matches!(f, EngineFault::PanicReduce { job, .. } if *job == j)
                });
                match (map_panic, kill) {
                    (Some(s), Some(k)) if s < k => "panicked",
                    (Some(_), None) => "panicked",
                    (_, Some(_)) => "aborted",
                    (None, None) if reduce_panic => "panicked",
                    (None, None) => "ok",
                }
            })
            .collect()
    }

    /// One engine run under `plan`: per-job outcome summaries (the
    /// replay fingerprint), every oracle / invariant / accounting
    /// failure found, and the run's assisted-block count.
    pub fn run_checked(
        world: &World,
        seed: u64,
        plan: &FaultPlan,
    ) -> (Vec<String>, Vec<String>, u64) {
        let prefixes = prefixes_for(world, seed);
        let expected = expected_outcomes(world, plan);
        let mut violations = Vec::new();

        let mut cfg = ServerConfig::new(BLOCKS_PER_SEGMENT, world.cfg.num_workers);
        cfg.obs = Obs::new();
        cfg.ft = super::scan_loop(seed, world.alternate);
        if world.adaptive {
            cfg.adaptive = AdaptiveConfig {
                enabled: true,
                target_cadence: Duration::from_millis(2),
                min_blocks_per_segment: ADAPTIVE_MIN_BPS,
                max_blocks_per_segment: ADAPTIVE_MAX_BPS,
            };
        }
        cfg.faults = Some(plan.clone());
        let obs = cfg.obs.clone();
        let server = SharedScanServer::with_config(world.store.clone(), cfg);
        let handles = server.submit_all(
            prefixes
                .iter()
                .map(|p| PatternWordCount::prefix(*p))
                .collect(),
        );

        // Bounded resolution: the fuzzer must detect a hang, not inherit
        // it. On timeout the server is leaked rather than dropped (drop
        // would block on the same hang).
        let deadline = Instant::now() + WAIT_BOUND;
        let mut summaries = Vec::with_capacity(handles.len());
        for (i, h) in handles.into_iter().enumerate() {
            let result = loop {
                if let Some(r) = h.try_take() {
                    break Some(r);
                }
                if Instant::now() >= deadline {
                    break None;
                }
                std::thread::sleep(Duration::from_micros(500));
            };
            let Some(result) = result else {
                violations.push(format!("job {i}: handle unresolved after {WAIT_BOUND:?}"));
                std::mem::forget(server);
                return (summaries, violations, 0);
            };
            let (summary, outcome) = match &result {
                Ok(out) => {
                    let json = serde_json::to_string(&out.records).expect("serialize records");
                    if out.records != world.solo[prefixes[i]] {
                        violations.push(format!(
                            "job {i} (prefix {:?}): output differs from solo run",
                            prefixes[i]
                        ));
                    }
                    (format!("ok:{json}"), "ok")
                }
                Err(s3_engine::JobError::Panicked(msg)) => {
                    (format!("panicked:{msg}"), "panicked")
                }
                Err(s3_engine::JobError::Aborted) => ("aborted".to_string(), "aborted"),
                // Service-layer errors can't come out of a bare server, and
                // the chaos jobs' folds never refuse.
                Err(e @ s3_engine::JobError::Rejected { .. })
                | Err(e @ s3_engine::JobError::DeadlineExpired)
                | Err(e @ s3_engine::JobError::FoldRefused) => {
                    violations.push(format!("job {i}: service-layer error {e} from a bare server"));
                    (format!("unexpected:{e}"), "unexpected")
                }
            };
            if outcome != expected[i] {
                violations.push(format!(
                    "job {i} (prefix {:?}): {outcome}, oracle says {}",
                    prefixes[i], expected[i]
                ));
            }
            summaries.push(summary);
        }
        server.shutdown();

        // Engine trace invariants: unique terminal per job, single
        // admission, paired exclusion windows.
        let core = obs.core().expect("observed");
        let events = core.tracer.drain();
        if core.tracer.dropped() > 0 {
            violations.push(format!("trace dropped {} events", core.tracer.dropped()));
        }
        violations.extend(check_engine_events(&events).into_iter().map(|v| v.to_string()));

        // Adaptive mode: the guaranteed straggler must move the segment
        // size at least once, and every resize must land in the clamp.
        if world.adaptive {
            let resizes: Vec<_> = events.iter().filter(|e| e.name == "segment_resized").collect();
            if resizes.is_empty() {
                violations.push(
                    "adaptive: no segment_resized event despite a guaranteed straggler".into(),
                );
            }
            for ev in resizes {
                let new = ev.ids.seg as usize;
                if !(ADAPTIVE_MIN_BPS..=ADAPTIVE_MAX_BPS).contains(&new) {
                    violations.push(format!(
                        "adaptive: resize to {new} escapes the clamp \
                         [{ADAPTIVE_MIN_BPS}, {ADAPTIVE_MAX_BPS}]"
                    ));
                }
            }
        }

        // Metrics accounting: every submitted job is in exactly one
        // terminal bucket, and the buckets match the oracle.
        let snap = obs.snapshot().expect("observed");
        let (sub, done, quar, abort) = (
            snap.counter("engine.jobs_submitted"),
            snap.counter("engine.jobs_completed"),
            snap.counter("engine.jobs_quarantined"),
            snap.counter("engine.jobs_aborted"),
        );
        if sub != done + quar + abort {
            violations.push(format!(
                "metrics: {sub} submitted != {done} completed + {quar} quarantined + {abort} aborted"
            ));
        }
        let count = |what: &str| expected.iter().filter(|o| **o == what).count() as u64;
        if (done, quar, abort) != (count("ok"), count("panicked"), count("aborted")) {
            violations.push(format!(
                "metrics: (done, quarantined, aborted) = ({done}, {quar}, {abort}), oracle says \
                 ({}, {}, {})",
                count("ok"),
                count("panicked"),
                count("aborted")
            ));
        }

        // The claim-protocol accounting must be internally consistent on
        // every sweep. Checked against the metrics registry, not the replay
        // summaries — timing-dependent counts would break replay identity.
        // (Whether a given seed's straggler actually gets assisted is
        // thread-dispatch luck on a loaded box, so "assists happened at
        // all" is asserted per *batch* under `--assist`, in `engine_main`.)
        let attempts = snap.counter("engine.tasks_speculated");
        let assisted = snap.counter("engine.blocks_assisted");
        if assisted > attempts {
            violations.push(format!(
                "assist: {assisted} assisted blocks exceed {attempts} tail attempts"
            ));
        }
        let ratio = snap.gauge("engine.assist_ratio");
        if !(0..=10_000).contains(&ratio) {
            violations.push(format!(
                "assist: assist_ratio gauge {ratio} escapes [0, 10000] basis points"
            ));
        }
        (summaries, violations, assisted)
    }

    /// All failures of one seed, plus the run's assisted-block count: a
    /// checked run plus replay identity (the second run must produce
    /// byte-identical per-job summaries).
    pub fn seed_failures(world: &World, seed: u64, plan: &FaultPlan) -> (Vec<String>, u64) {
        let (first, mut failures, assisted) = run_checked(world, seed, plan);
        let (second, _, _) = run_checked(world, seed, plan);
        if first != second {
            failures.push("replay: re-run produced different per-job outcomes".into());
        }
        (failures, assisted)
    }

    /// Shrink a failing plan as the simulator fuzzer does: drop any fault
    /// whose removal keeps the seed failing, to a local minimum.
    pub fn minimize_plan(world: &World, seed: u64, plan: &FaultPlan) -> FaultPlan {
        let mut current = plan.clone();
        loop {
            let mut reduced = false;
            for i in 0..current.len() {
                let candidate = current.without_fault(i);
                if !seed_failures(world, seed, &candidate).0.is_empty() {
                    current = candidate;
                    reduced = true;
                    break;
                }
            }
            if !reduced {
                return current;
            }
        }
    }

    pub fn replay_one(world: &World, seed: u64) -> bool {
        let plan = plan_for(world, seed);
        let loop_name = if super::scan_loop(seed, world.alternate).speculation {
            "resilient"
        } else {
            "cooperative"
        };
        println!(
            "seed {seed}: {} job(s) over {} segments, {loop_name} scan loop, fault plan:\n{}",
            world.cfg.num_jobs,
            world.num_segments,
            plan.describe()
        );
        let (first, failures, assisted) = run_checked(world, seed, &plan);
        let (second, _, _) = run_checked(world, seed, &plan);
        for (i, s) in first.iter().enumerate() {
            let shown = if s.len() > 72 { &s[..72] } else { s };
            println!("  job {i}: {shown}{}", if s.len() > 72 { "..." } else { "" });
        }
        let repro = if first == second {
            "byte-identical"
        } else {
            "MISMATCH"
        };
        println!("  replay: {repro} ({assisted} assisted block(s))");
        for f in &failures {
            println!("  {f}");
        }
        failures.is_empty() && first == second
    }
}

/// Fuzzer over the multi-tenant [`ScanService`](s3_engine::ScanService):
/// for every seed, a burst of jobs (seeded tenants, QoS classes, and
/// deadlines) is fired at a small-bounded service faster than its tenants
/// can drain — roughly 2–4× the sustainable rate, so queues genuinely
/// fill — while each tenant's server runs under its own seeded worker
/// [`FaultPlan`](s3_engine::FaultPlan). Hard per-seed checks:
///
/// - **Accounting identity** — `submitted == completed + quarantined +
///   rejected + expired + aborted`, and the service's counters agree
///   exactly with what the client observed handle by handle;
/// - **No hangs** — every handle (admitted, queued, shed, or expiring)
///   resolves within a bound;
/// - **Output integrity** — every surviving output is byte-identical to
///   running the same job solo on that tenant's store;
/// - **Trace invariants** — the service trace passes the `svc_*`
///   admission-queue checks and each tenant trace the engine checks
///   (both via [`check_engine_events`](s3_mapreduce::check_engine_events)).
///
/// Which jobs shed is timing-dependent under real overload, so there is
/// no per-job outcome oracle and no replay-identity proof here — the
/// invariants above must hold on *every* interleaving.
mod service_fuzz {
    use s3_engine::{
        run_job_legacy, BlockStore, EngineChaosConfig, FaultPlan, FileSpec, JobError, Obs,
        QosConfig, ScanService, ServerConfig, ServiceConfig,
    };
    use s3_mapreduce::check_engine_events;
    use s3_sim::SimRng;
    use s3_workloads::jobs::PatternWordCount;
    use s3_workloads::text::TextGen;
    use s3_workloads::ClassMix;
    use std::collections::BTreeMap;
    use std::time::{Duration, Instant};

    const BLOCKS_PER_SEGMENT: usize = 4;
    const THREADS: usize = 3;
    const TENANTS: [&str; 2] = ["logs", "events"];
    const JOB_PREFIXES: [&str; 8] = ["", "a", "ba", "d", "ga", "ma", "s", "ta"];
    /// Salt separating the job-mix stream from the fault-plan streams.
    const JOB_SALT: u64 = 0x5EC7_0A11_0C1A_55E5;
    const CLASS_SALT: u64 = 0xC1A5_5E5A_0000_0001;
    const TENANT_SALTS: [u64; 2] = [0x7E4A_4475_0000_0000, 0x7E4A_4475_0000_0001];
    /// A handle not resolving within this bound is reported as a hang.
    const WAIT_BOUND: Duration = Duration::from_secs(30);

    /// The immutable world every seed runs against: one corpus and one
    /// set of per-prefix solo reference outputs per tenant, plus the
    /// chaos envelope tenant fault plans are drawn from.
    pub struct World {
        stores: Vec<BlockStore>,
        solo: Vec<BTreeMap<&'static str, BTreeMap<String, i64>>>,
        chaos: EngineChaosConfig,
    }

    pub fn build_world() -> World {
        let stores: Vec<BlockStore> = [7u64, 11]
            .iter()
            .map(|s| {
                let text = TextGen::paper_like().generate(&mut SimRng::seed_from_u64(*s), 48 << 10);
                BlockStore::from_text(&text, 2048)
            })
            .collect();
        let solo = stores
            .iter()
            .map(|store| {
                JOB_PREFIXES
                    .iter()
                    .map(|p| {
                        let out = run_job_legacy(&PatternWordCount::prefix(*p), store);
                        (*p, out.records)
                    })
                    .collect()
            })
            .collect();
        // Worker faults only: stragglers, drops, map/reduce panics. The
        // coordinator stays alive — killing it is the bare-engine fuzzer's
        // business; here every tenant must keep serving through overload.
        let chaos = EngineChaosConfig {
            num_workers: THREADS,
            num_jobs: 8,
            horizon_iters: 24,
            coordinator_kill_prob: 0.0,
            ..EngineChaosConfig::default()
        };
        World {
            stores,
            solo,
            chaos,
        }
    }

    /// One service run under seed `seed`. Returns (jobs submitted,
    /// violations).
    pub fn run_checked(world: &World, seed: u64, verbose: bool) -> (usize, Vec<String>) {
        let mut violations = Vec::new();
        let mut rng = SimRng::seed_from_u64(seed ^ JOB_SALT);

        // Small bounds so a burst genuinely overloads: per-class queues
        // of 4, 12 queued service-wide, 3 merged jobs in flight per
        // tenant with Low admitted only below width 1.
        let qos = QosConfig {
            queue_cap: 4,
            max_inflight: 3,
            low_priority_width_cap: 1,
            max_queued_total: 12,
            default_deadline: None,
        };
        let svc_obs = Obs::new();
        let mut tenant_obs = Vec::new();
        let files: Vec<FileSpec> = TENANTS
            .iter()
            .zip(&world.stores)
            .zip(TENANT_SALTS)
            .map(|((name, store), salt)| {
                let mut server = ServerConfig::new(BLOCKS_PER_SEGMENT, THREADS);
                server.obs = Obs::new();
                server.ft = super::scan_loop(seed, true);
                server.faults = Some(FaultPlan::generate(seed ^ salt, &world.chaos));
                tenant_obs.push(server.obs.clone());
                FileSpec {
                    name: (*name).to_string(),
                    store: store.clone(),
                    server,
                }
            })
            .collect();
        let svc = ScanService::new(
            files,
            ServiceConfig {
                qos,
                obs: svc_obs.clone(),
            },
        );

        // A seeded burst, submitted as fast as the classes draw: 18–33
        // jobs against two tenants that drain at most 3 at a time —
        // far past sustainable, so sheds and deferrals actually happen.
        let n = 18 + rng.index(16);
        let classes = ClassMix::default().assign(n, seed ^ CLASS_SALT);
        let mut handles = Vec::new();
        let (mut c_rejected, mut expected_of) = (0u64, Vec::new());
        for class in classes.iter().take(n).copied() {
            let tenant = rng.index(TENANTS.len());
            let prefix = JOB_PREFIXES[rng.index(JOB_PREFIXES.len())];
            // A quarter of jobs carry a tight deadline; queue waits under
            // overload overrun some of them in the queue, others mid-
            // revolution.
            let deadline = (rng.uniform(0.0, 1.0) < 0.25)
                .then(|| Duration::from_micros(rng.uniform(500.0, 20_000.0) as u64));
            let file = svc.file_id(TENANTS[tenant]).expect("registered tenant");
            match svc.submit_with_deadline(file, class, PatternWordCount::prefix(prefix), deadline)
            {
                Ok(h) => {
                    handles.push((h, tenant, prefix));
                    expected_of.push("live");
                }
                Err(JobError::Rejected { .. }) => c_rejected += 1,
                Err(e) => violations.push(format!("submit returned non-rejection error {e}")),
            }
        }

        // Bounded resolution: the fuzzer must detect a hang, not inherit
        // it. On timeout the service is leaked rather than dropped (drop
        // would block on the same hang).
        let deadline = Instant::now() + WAIT_BOUND;
        let (mut c_done, mut c_quar, mut c_expired, mut c_aborted) = (0u64, 0u64, 0u64, 0u64);
        for (i, (h, tenant, prefix)) in handles.into_iter().enumerate() {
            let result = loop {
                if let Some(r) = h.try_take() {
                    break Some(r);
                }
                if Instant::now() >= deadline {
                    break None;
                }
                std::thread::sleep(Duration::from_micros(500));
            };
            let Some(result) = result else {
                violations.push(format!("job {i}: handle unresolved after {WAIT_BOUND:?}"));
                std::mem::forget(svc);
                return (n, violations);
            };
            match result {
                Ok(out) => {
                    c_done += 1;
                    if out.records != world.solo[tenant][prefix] {
                        violations.push(format!(
                            "job {i} (tenant {:?}, prefix {prefix:?}): output differs from \
                             solo run",
                            TENANTS[tenant]
                        ));
                    }
                }
                Err(JobError::Panicked(_)) => c_quar += 1,
                Err(JobError::DeadlineExpired) => c_expired += 1,
                Err(JobError::Aborted) => c_aborted += 1,
                Err(e @ (JobError::Rejected { .. } | JobError::FoldRefused)) => {
                    violations.push(format!("job {i}: admitted handle resolved {e}"))
                }
            }
        }

        // Accounting identity, checked two ways: internally, and against
        // the client's own per-handle tally.
        let stats = svc.stats();
        if !stats.identity_holds() {
            violations.push(format!(
                "accounting identity broken: {} submitted vs {} completed + {} quarantined \
                 + {} rejected + {} expired + {} aborted",
                stats.submitted,
                stats.completed,
                stats.quarantined,
                stats.rejected,
                stats.expired,
                stats.aborted
            ));
        }
        let client = (n as u64, c_done, c_quar, c_rejected, c_expired, c_aborted);
        let server = (
            stats.submitted,
            stats.completed,
            stats.quarantined,
            stats.rejected,
            stats.expired,
            stats.aborted,
        );
        if client != server {
            violations.push(format!(
                "client saw (submitted, done, quarantined, rejected, expired, aborted) = \
                 {client:?} but the service counted {server:?}"
            ));
        }
        if verbose {
            println!(
                "seed {seed}: {n} submitted, {c_done} done, {c_quar} quarantined, \
                 {c_rejected} rejected, {c_expired} expired, {} deferred",
                stats.deferred
            );
        }
        svc.shutdown();

        // Admission-queue invariants on the service trace, engine
        // invariants on each tenant's trace.
        let core = svc_obs.core().expect("observed");
        if core.tracer.dropped() > 0 {
            violations.push(format!(
                "service trace dropped {} events",
                core.tracer.dropped()
            ));
        }
        violations.extend(
            check_engine_events(&core.tracer.drain())
                .into_iter()
                .map(|v| format!("service: {v}")),
        );
        for (name, obs) in TENANTS.iter().zip(tenant_obs) {
            let core = obs.core().expect("observed");
            if core.tracer.dropped() > 0 {
                violations.push(format!(
                    "tenant {name} trace dropped {} events",
                    core.tracer.dropped()
                ));
            }
            violations.extend(
                check_engine_events(&core.tracer.drain())
                    .into_iter()
                    .map(|v| format!("tenant {name}: {v}")),
            );
        }
        (n, violations)
    }
}

fn service_main(args: &Args) -> ExitCode {
    // Same filter as the engine fuzzer: injected panics are expected.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("injected") {
            default_hook(info);
        }
    }));
    let world = service_fuzz::build_world();
    if let Some(seed) = args.seed {
        let (n, failures) = service_fuzz::run_checked(&world, seed, true);
        println!("seed {seed}: {n} jobs, {} violation(s)", failures.len());
        for f in &failures {
            println!("  {f}");
        }
        return if failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    println!(
        "s3chaos service: fuzzing seeds 0..{} over the multi-tenant scan service",
        args.seeds
    );
    let mut failed_seeds = 0u64;
    for seed in 0..args.seeds {
        let (_, failures) = service_fuzz::run_checked(&world, seed, args.verbose);
        if !failures.is_empty() {
            failed_seeds += 1;
            println!("seed {seed}: FAILED");
            for f in &failures {
                println!("  {f}");
            }
            println!(" replay with: s3chaos service --seed {seed}");
        }
    }
    println!(
        "s3chaos service: {}/{} seeds clean",
        args.seeds - failed_seeds.min(args.seeds),
        args.seeds
    );
    if failed_seeds == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn engine_main(args: &Args) -> ExitCode {
    // Injected panics are the point of the exercise: the engine catches
    // and quarantines them, so keep their backtraces off stderr. Anything
    // else still reports through the default hook.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("injected") {
            default_hook(info);
        }
    }));
    let world = engine_fuzz::build_world(args.adaptive, args.assist);
    if let Some(seed) = args.seed {
        return if engine_fuzz::replay_one(&world, seed) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    println!(
        "s3chaos engine: fuzzing seeds 0..{} over the shared-scan server{}",
        args.seeds,
        match (args.adaptive, args.assist) {
            (true, _) => " (adaptive segment sizing)",
            (_, true) => " (work-assist accounting)",
            _ => "",
        }
    );
    let mut failed_seeds = 0u64;
    let mut total_assisted = 0u64;
    for seed in 0..args.seeds {
        let plan = engine_fuzz::plan_for(&world, seed);
        let (failures, assisted) = engine_fuzz::seed_failures(&world, seed, &plan);
        total_assisted += assisted;
        if failures.is_empty() {
            if args.verbose {
                println!("seed {seed}: ok ({} fault(s))", plan.len());
            }
        } else {
            failed_seeds += 1;
            println!("seed {seed}: FAILED");
            println!(" fault plan:\n{}", plan.describe());
            for f in &failures {
                println!("  {f}");
            }
            let minimal = engine_fuzz::minimize_plan(&world, seed, &plan);
            if minimal.len() < plan.len() {
                println!(
                    " minimized to {} fault(s):\n{}",
                    minimal.len(),
                    minimal.describe()
                );
            } else {
                println!(" plan is already minimal");
            }
            let mut mode = String::new();
            if args.adaptive {
                mode.push_str(" --adaptive");
            }
            if args.assist {
                mode.push_str(" --assist");
            }
            println!(" replay with: s3chaos engine{mode} --seed {seed}");
        }
    }
    // Whether any *single* straggler-bearing seed assists is dispatch
    // luck on small hosts (one eager worker can drain a whole cursor
    // before its rivals wake), but across a sweep of plans that each
    // guarantee a straggler, zero assists overall would mean the assist
    // path never engaged at all.
    if args.assist {
        println!("s3chaos engine: {total_assisted} assisted block(s) across the sweep");
        if total_assisted == 0 && args.seeds > 0 {
            failed_seeds += 1;
            println!(
                "assist: zero assisted blocks across the whole sweep despite \
                 guaranteed stragglers"
            );
        }
    }
    println!(
        "s3chaos engine: {}/{} seeds clean",
        args.seeds - failed_seeds.min(args.seeds),
        args.seeds
    );
    if failed_seeds == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.engine {
        return engine_main(&args);
    }
    if args.service {
        return service_main(&args);
    }
    let cluster = ClusterTopology::paper_cluster();
    // 4 blocks per node (160 total): big enough for several S³ sub-jobs,
    // small enough to fuzz hundreds of seeds quickly.
    let dataset = per_node_file(&cluster, "chaos", 1, 256);
    let node_ids: Vec<NodeId> = cluster.nodes().iter().map(|n| n.id).collect();
    let chaos_cfg = ChaosConfig::default();

    if let Some(seed) = args.seed {
        let plan = ChaosPlan::generate(seed, &node_ids, &chaos_cfg);
        return if replay_one(seed, &cluster, &dataset, &plan) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    println!(
        "s3chaos: fuzzing seeds 0..{} over {} schedulers ({} nodes, {} blocks)",
        args.seeds,
        SCHEDULERS.len(),
        node_ids.len(),
        dataset.dfs.file(dataset.file).blocks.len(),
    );
    let mut failed_seeds = 0u64;
    for seed in 0..args.seeds {
        let plan = ChaosPlan::generate(seed, &node_ids, &chaos_cfg);
        let failures = seed_failures(seed, &cluster, &dataset, &plan);
        if failures.is_empty() {
            if args.verbose {
                println!(
                    "seed {seed}: ok ({} fault(s), {} job(s))",
                    plan.len(),
                    workload_for(seed, &dataset).len()
                );
            }
        } else {
            failed_seeds += 1;
            report_failure(seed, &cluster, &dataset, &plan, &failures);
        }
    }
    println!(
        "s3chaos: {}/{} seeds clean",
        args.seeds - failed_seeds,
        args.seeds
    );
    if failed_seeds == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
