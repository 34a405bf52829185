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
//! `s3chaos engine` and `s3chaos service` apply the same discipline to the
//! *real* engine, as a command line over the differential harness
//! ([`s3_bench::differential`]): one case generator and one oracle for the
//! paper's exactness claim, with faults and overload as two of its axes.
//! Each seed builds the harness's pinned chaos case ([`Case::chaos`]: a
//! Zipf corpus, riders from the shared generator, a seeded
//! [`FaultPlan`](s3_engine::FaultPlan)) and runs it on every front against
//! the harness's oracle: each rider ends with its solo output or with the
//! typed error the plan dictates, and traces, journals, metrics and, under
//! `service`, the admission accounting all hold. Even seeds of `engine`
//! and `service` run the cooperative scan loop, odd seeds the resilient
//! one. Every seed also runs twice and must replay its per-rider outcomes
//! byte for byte; a failing seed's plan is minimised like the simulator's.
//! `--adaptive` turns adaptive segment sizing on (every seed must resize,
//! inside the clamp); `--assist` scans coarser blocks and must assist at
//! least one block across the sweep.
//!
//! ```text
//! s3chaos [--seeds N] [--seed K] [--verbose]
//! s3chaos engine [--adaptive | --assist] [--seeds N] [--seed K] [--verbose]
//! s3chaos service [--seeds N] [--seed K] [--verbose]
//! ```

use s3_bench::differential::{Case, Chaos, Report, ScanLoop};
use s3_cluster::{ChaosConfig, ChaosPlan, ClusterTopology, NodeId};
use s3_core::{
    CapacityScheduler, FairScheduler, FifoScheduler, MRShareScheduler, S3Config, S3Scheduler,
    SubJobSizing,
};
use s3_engine::FaultPlan;
use s3_mapreduce::{
    job::requests_from_arrivals, simulate_traced, CostModel, EngineConfig, InvariantChecker,
    JobRequest, RunMetrics, Scheduler, Trace,
};
use s3_sim::SimRng;
use s3_workloads::{per_node_file, wordcount_normal, Dataset};
use std::process::ExitCode;

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
    /// The harness sweep, or `None` for the simulator's.
    mode: Option<Chaos>,
    seeds: u64,
    seed: Option<u64>,
    verbose: bool,
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mode = match raw.first().map(String::as_str) {
        Some("engine") => Some(Chaos::Engine),
        Some("service") => Some(Chaos::Service),
        _ => None,
    };
    let mut args = Args {
        mode,
        seeds: if mode.is_some() { 100 } else { 200 },
        seed: None,
        verbose: false,
    };
    let mut it = raw.into_iter().skip(usize::from(mode.is_some()));
    while let Some(arg) = it.next() {
        match (arg.as_str(), args.mode) {
            ("--seeds", _) => {
                args.seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            ("--seed", _) => {
                args.seed = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            // One of the two: the assist checks need fixed segment
            // boundaries.
            ("--adaptive", Some(Chaos::Engine)) => args.mode = Some(Chaos::Adaptive),
            ("--assist", Some(Chaos::Engine)) => args.mode = Some(Chaos::Assist),
            ("--verbose" | "-v", _) => args.verbose = true,
            _ => usage(),
        }
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
                        let slack =
                            |clean_s: f64| CostModel::deterministic().heartbeat_s + 0.03 * clean_s;
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

/// Check `case` twice: the first run's report, with the run-twice replay
/// proof (per-rider outcomes byte-identical) and `--adaptive`'s resize
/// requirement added to its violations, and whether the runs agreed.
fn run_twice(case: &Case, mode: Chaos) -> (Report, bool) {
    let mut first = case.check();
    let identical = case.check().outcomes == first.outcomes;
    if !identical {
        first
            .violations
            .push("replay: re-run produced different per-rider outcomes".into());
    }
    if mode == Chaos::Adaptive && first.resizes == 0 {
        first
            .violations
            .push("adaptive: no segment_resized event despite a guaranteed straggler".into());
    }
    (first, identical)
}

/// Shrink a failing case's plan as the simulator sweep does: drop any
/// fault whose removal keeps the case failing, to a local minimum.
fn minimize_faults(mut case: Case, mode: Chaos) -> FaultPlan {
    let mut plan = case.faults.clone().unwrap_or_default();
    'shrink: loop {
        for i in 0..plan.len() {
            case.faults = Some(plan.without_fault(i));
            if !run_twice(&case, mode).0.violations.is_empty() {
                plan = plan.without_fault(i);
                continue 'shrink;
            }
        }
        return plan;
    }
}

fn replay_case(mode: Chaos, seed: u64) -> bool {
    let case = Case::chaos(mode, seed);
    let scan = match case.scan {
        ScanLoop::Cooperative => "cooperative",
        ScanLoop::Resilient(_) => "resilient",
    };
    println!(
        "seed {seed}: {} rider(s) over {} segments, {scan} scan loop, fault plan:\n{}",
        case.riders.len(),
        case.segments(),
        case.faults.clone().unwrap_or_default().describe()
    );
    let (report, identical) = run_twice(&case, mode);
    for (rider, s) in case.riders.iter().zip(&report.outcomes) {
        let shown: String = s.chars().take(72).collect();
        let more = if shown.len() < s.len() { "..." } else { "" };
        println!("  {rider}: {shown}{more}");
    }
    let replay = if identical {
        "byte-identical"
    } else {
        "MISMATCH"
    };
    println!("  replay: {replay} ({} assisted block(s))", report.assisted);
    for v in &report.violations {
        println!("  {v}");
    }
    report.violations.is_empty()
}

/// `s3chaos engine|service`: sweep, replay and minimise the pinned cases
/// of the differential harness.
fn harness_main(mode: Chaos, args: &Args) -> ExitCode {
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
    let (name, flag) = match mode {
        Chaos::Engine => ("engine", ""),
        Chaos::Adaptive => ("engine", " --adaptive"),
        Chaos::Assist => ("engine", " --assist"),
        Chaos::Service => ("service", ""),
    };
    if let Some(seed) = args.seed {
        return exit(replay_case(mode, seed));
    }
    println!(
        "s3chaos {name}{flag}: fuzzing seeds 0..{} over the differential harness",
        args.seeds
    );
    let (mut failed_seeds, mut total_assisted) = (0u64, 0u64);
    for seed in 0..args.seeds {
        let case = Case::chaos(mode, seed);
        let plan = case.faults.clone().unwrap_or_default();
        let (report, _) = run_twice(&case, mode);
        total_assisted += report.assisted;
        if report.violations.is_empty() {
            if args.verbose {
                println!(
                    "seed {seed}: ok ({} fault(s), {} rider(s))",
                    plan.len(),
                    case.riders.len()
                );
            }
            continue;
        }
        failed_seeds += 1;
        println!("seed {seed}: FAILED\n{case}");
        for v in &report.violations {
            println!("  {v}");
        }
        let minimal = minimize_faults(case, mode);
        if minimal.len() < plan.len() {
            println!(
                " minimized to {} fault(s):\n{}",
                minimal.len(),
                minimal.describe()
            );
        } else {
            println!(" plan is already minimal");
        }
        println!(" replay with: s3chaos {name}{flag} --seed {seed}");
    }
    // Whether any *single* straggler-bearing seed assists is dispatch luck
    // on small hosts, but across a sweep of plans that each guarantee a
    // straggler, zero assists would mean the assist path never engaged.
    if mode == Chaos::Assist {
        println!("s3chaos engine: {total_assisted} assisted block(s) across the sweep");
        if total_assisted == 0 && args.seeds > 0 {
            failed_seeds += 1;
            println!(
                "assist: zero assisted blocks across the whole sweep despite guaranteed stragglers"
            );
        }
    }
    println!(
        "s3chaos {name}: {}/{} seeds clean",
        args.seeds - failed_seeds.min(args.seeds),
        args.seeds
    );
    exit(failed_seeds == 0)
}

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(mode) = args.mode {
        return harness_main(mode, &args);
    }
    let cluster = ClusterTopology::paper_cluster();
    // 4 blocks per node (160 total): big enough for several S³ sub-jobs,
    // small enough to fuzz hundreds of seeds quickly.
    let dataset = per_node_file(&cluster, "chaos", 1, 256);
    let node_ids: Vec<NodeId> = cluster.nodes().iter().map(|n| n.id).collect();
    let chaos_cfg = ChaosConfig::default();

    if let Some(seed) = args.seed {
        let plan = ChaosPlan::generate(seed, &node_ids, &chaos_cfg);
        return exit(replay_one(seed, &cluster, &dataset, &plan));
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
    exit(failed_seeds == 0)
}
