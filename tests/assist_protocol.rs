//! Protocol-level stress tests for work-assisting block scheduling inside
//! segments: every block of every segment must be claimed off the cursor
//! exactly once and committed by exactly one winner — *provably*, from
//! the drained trace via `check_engine_events` — under seeded
//! interleaving pressure, panics mid-claim, worker exclusion mid-segment,
//! and dropped tasks.
//!
//! This is the adversarial counterpart to the byte-identity property in
//! `tests/differential.rs`: that proves the outputs, these prove the claim
//! protocol that produces them.

use s3_engine::{
    run_job_legacy, BlockStore, EngineChaosConfig, EngineFault, FaultPlan, FtConfig, Obs,
    ServerConfig, SharedScanServer,
};
use s3_mapreduce::check_engine_events;
use s3_sim::SimRng;
use s3_workloads::jobs::PatternWordCount;
use s3_workloads::text::TextGen;
use std::collections::BTreeMap;
use std::time::Duration;

const PREFIXES: [&str; 4] = ["", "a", "be", "s"];

fn store() -> BlockStore {
    let text = TextGen::paper_like().generate(&mut SimRng::seed_from_u64(11), 40 << 10);
    BlockStore::from_text(&text, 1024)
}

fn solo(prefix: &str, s: &BlockStore) -> BTreeMap<String, i64> {
    run_job_legacy(&PatternWordCount::prefix(prefix), s).records
}

/// `Ok(records)` or the panic message, per submitted job.
type Outcomes = Vec<Result<BTreeMap<String, i64>, String>>;

/// Run the server under `plan`, wait out every handle, and return
/// `(outcomes, obs)` where `outcomes[i]` is `Ok(records)` or the panic
/// message. Trace and metrics stay drainable from `obs`.
fn run_under_plan(s: &BlockStore, mut cfg: ServerConfig, plan: FaultPlan) -> (Outcomes, Obs) {
    cfg.obs = Obs::new();
    cfg.faults = Some(plan);
    let obs = cfg.obs.clone();
    let server = SharedScanServer::with_config(s.clone(), cfg);
    let handles = server.submit_all(
        PREFIXES
            .iter()
            .map(|p| PatternWordCount::prefix(*p))
            .collect(),
    );
    let outcomes = handles
        .into_iter()
        .map(|h| match h.wait() {
            Ok(out) => Ok(out.records),
            Err(e) => Err(e.to_string()),
        })
        .collect();
    server.shutdown();
    (outcomes, obs)
}

/// Drain the trace and assert every engine invariant holds — including
/// the exactly-once claim/commit accounting that `segment_claims`
/// records now make checkable.
fn assert_protocol_clean(obs: &Obs, ctx: &str) {
    let core = obs.core().expect("observed");
    let events = core.tracer.drain();
    assert_eq!(core.tracer.dropped(), 0, "{ctx}: trace dropped events");
    assert!(
        events.iter().any(|e| e.name == "segment_claims"),
        "{ctx}: no claims records in the trace"
    );
    let violations = check_engine_events(&events);
    assert!(violations.is_empty(), "{ctx}: {violations:?}");
}

/// Tentpole stress: 20 seeded chaos plans across thread counts 1..=8 and
/// segment sizes {1, 2, 3, 5}. Stragglers force long uncommitted tails
/// (the interleaving pressure), drops lose claimed blocks, and map panics
/// kill jobs mid-claim — and under all of it every block must be claimed and
/// committed exactly once, doomed jobs must quarantine, and survivors
/// must stay byte-identical to their solo runs.
#[test]
fn seeded_interleaving_stress() {
    let s = store();
    let references: Vec<_> = PREFIXES.iter().map(|p| solo(p, &s)).collect();

    for seed in 0u64..20 {
        let threads = 1 + (seed % 8) as usize;
        let bps = [1, 2, 3, 5][(seed / 8) as usize % 4];
        let num_segments = s.num_blocks().div_ceil(bps) as u64;
        let chaos = EngineChaosConfig {
            num_workers: threads,
            num_jobs: PREFIXES.len() as u64,
            horizon_iters: num_segments,
            num_shards: 4,
            min_slow: 1,
            max_slow: 2,
            max_drops: 2,
            max_map_panics: 2,
            max_reduce_faults: 0,
            coordinator_kill_prob: 0.0,
            slow_delay_us: (2_000, 8_000),
        };
        let plan = FaultPlan::generate(seed, &chaos);
        let doomed: Vec<bool> = (0..PREFIXES.len() as u64)
            .map(|j| {
                plan.faults.iter().any(
                    |f| matches!(f, EngineFault::PanicMap { job, .. } if *job == j),
                )
            })
            .collect();

        let mut cfg = ServerConfig::new(bps, threads);
        cfg.ft = FtConfig {
            deadline_floor: Duration::from_millis(3),
            ..FtConfig::resilient()
        };
        let ctx = format!("seed {seed} threads {threads} bps {bps}");
        let (outcomes, obs) = run_under_plan(&s, cfg, plan);

        for (i, outcome) in outcomes.iter().enumerate() {
            match outcome {
                Ok(records) => {
                    assert!(!doomed[i], "{ctx}: job {i} survived its armed panic");
                    assert_eq!(records, &references[i], "{ctx}: job {i} differs from solo");
                }
                Err(msg) => {
                    assert!(doomed[i], "{ctx}: job {i} failed unexpectedly: {msg}");
                    assert!(msg.contains("injected map panic"), "{ctx}: {msg}");
                }
            }
        }
        assert_protocol_clean(&obs, &ctx);

        let num_doomed = doomed.iter().filter(|d| **d).count() as u64;
        let snap = obs.snapshot().expect("observed");
        assert_eq!(snap.counter("engine.jobs_quarantined"), num_doomed, "{ctx}");
        assert_eq!(
            snap.counter("engine.jobs_completed"),
            PREFIXES.len() as u64 - num_doomed,
            "{ctx}"
        );
        assert_eq!(snap.counter("engine.jobs_aborted"), 0, "{ctx}");
    }
}

/// A job that panics mid-revolution dies while the claim cursor is live:
/// its quarantine must not disturb the segment accounting, and the three
/// co-riding jobs must finish exact.
#[test]
fn panic_mid_claim_commits_exactly_once() {
    let s = store();
    let num_segments = s.num_blocks().div_ceil(2) as u64;
    let reference: Vec<_> = PREFIXES.iter().map(|p| solo(p, &s)).collect();
    let mut cfg = ServerConfig::new(2, 4);
    cfg.ft = FtConfig {
        deadline_floor: Duration::from_millis(3),
        ..FtConfig::resilient()
    };
    let plan = FaultPlan {
        faults: vec![EngineFault::PanicMap {
            job: 2,
            after_segments: num_segments / 2,
        }],
    };
    let ctx = "panic mid-claim";
    let (outcomes, obs) = run_under_plan(&s, cfg, plan);
    for (i, outcome) in outcomes.iter().enumerate() {
        if i == 2 {
            let msg = outcome.as_ref().expect_err("job 2 is doomed");
            assert!(msg.contains("injected map panic"), "{ctx}: {msg}");
        } else {
            let records = outcome.as_ref().expect("survivor");
            assert_eq!(records, &reference[i], "{ctx}: job {i} differs from solo");
        }
    }
    assert_protocol_clean(&obs, ctx);
}

/// A persistent straggler gets excluded mid-run (threshold 1), shrinking
/// the worker set between — and, with the readmission window, *within* —
/// revolutions. Claims stay exactly-once and outputs exact throughout.
#[test]
fn exclusion_mid_segment_keeps_exactly_once() {
    let s = store();
    let num_segments = s.num_blocks().div_ceil(3) as u64;
    let references: Vec<_> = PREFIXES.iter().map(|p| solo(p, &s)).collect();
    let mut cfg = ServerConfig::new(3, 3);
    cfg.ft = FtConfig {
        deadline_floor: Duration::from_millis(2),
        exclusion_threshold: 1,
        exclusion_window_iters: 4,
        ..FtConfig::resilient()
    };
    let plan = FaultPlan {
        faults: vec![EngineFault::SlowWorker {
            worker: 0,
            from_iter: 0,
            until_iter: num_segments,
            delay_us: 15_000,
        }],
    };
    let ctx = "exclusion mid-segment";
    let (outcomes, obs) = run_under_plan(&s, cfg, plan);
    for (i, outcome) in outcomes.iter().enumerate() {
        let records = outcome.as_ref().expect("no job is doomed");
        assert_eq!(records, &references[i], "{ctx}: job {i} differs from solo");
    }
    assert_protocol_clean(&obs, ctx);
    let snap = obs.snapshot().expect("observed");
    assert!(
        snap.counter("engine.workers_excluded") >= 1,
        "{ctx}: the straggler was never excluded"
    );
}

/// A dropped (never-committed) block with a deadline far beyond the run's
/// lifetime: recovery here proves the assisting tail re-executed it
/// immediately, without waiting out a deadline — and the win shows up in
/// `engine.blocks_assisted`.
///
/// Runs with a single worker on purpose. It makes the drops
/// deterministic (with multiple workers and microsecond blocks, one
/// worker can drain every claim before its rivals even wake, so a drop
/// armed on another worker never fires) and it pins the strongest assist
/// property: the dropping worker *re-claims its own lost block from the
/// tail*, before any deadline could expire.
#[test]
fn dropped_block_recovers_through_assist_not_deadlines() {
    let s = store();
    let references: Vec<_> = PREFIXES.iter().map(|p| solo(p, &s)).collect();
    let mut cfg = ServerConfig::new(4, 1);
    cfg.ft = FtConfig {
        // No deadline can expire within the test: only assist recovers.
        deadline_floor: Duration::from_secs(600),
        deadline_slack: 1e9,
        ..FtConfig::resilient()
    };
    let plan = FaultPlan {
        faults: vec![
            EngineFault::DropTask {
                worker: 0,
                at_iter: 1,
            },
            EngineFault::DropTask {
                worker: 0,
                at_iter: 3,
            },
        ],
    };
    let (outcomes, obs) = run_under_plan(&s, cfg, plan);
    for (i, outcome) in outcomes.iter().enumerate() {
        let records = outcome.as_ref().expect("no job is doomed");
        assert_eq!(records, &references[i], "job {i} differs from solo");
    }
    assert_protocol_clean(&obs, "dropped-block assist");
    let snap = obs.snapshot().expect("observed");
    assert_eq!(
        snap.counter("engine.blocks_assisted"),
        2,
        "both dropped blocks must be recovered by assists, not deadlines"
    );
}
