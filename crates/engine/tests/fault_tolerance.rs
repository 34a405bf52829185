//! Fault-tolerance integration tests for the shared-scan server:
//!
//! - **quarantine containment** (property): any subset of jobs panicking
//!   at any segment fails individually, and every surviving job's output
//!   is byte-identical to running it solo with [`run_job`] — sharing a
//!   faulty scan never corrupts a healthy rider;
//! - **speculation**: an injected straggler worker triggers speculative
//!   re-execution, outputs stay exact (first-result-wins commit), and the
//!   recovery is visible in the metrics registry;
//! - **shutdown drains handles**: every submitted handle resolves at
//!   shutdown — with its output when the revolution completed, with
//!   [`JobError::Aborted`] otherwise — and a handle never hangs, even
//!   when the server is dropped without `shutdown()` or the submit races
//!   the shutdown flag.

use s3_engine::{
    run_job, AdaptiveConfig, BlockStore, EngineChaosConfig, EngineFault, ExecConfig, FaultPlan,
    FtConfig, JobError, MapReduceJob, Obs, ServerConfig, SharedScanServer,
};
use std::time::Duration;

/// Word count with a prefix filter (fold combiner + per-token map).
struct Count(String);

impl MapReduceJob for Count {
    type K = String;
    type V = i64;
    type Out = i64;
    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        for w in line.split_whitespace() {
            if w.starts_with(&self.0) {
                emit(w.to_string(), 1);
            }
        }
    }
    fn combine(&self, _k: &String, v: Vec<i64>) -> Vec<i64> {
        vec![v.iter().sum()]
    }
    fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
        Some(v.iter().sum())
    }
    fn combine_is_fold(&self) -> bool {
        true
    }
    fn combine_fold(&self, acc: &mut i64, next: i64) {
        *acc += next;
    }
    fn map_is_per_token(&self) -> bool {
        true
    }
    fn map_token(&self, token: &str, emit: &mut dyn FnMut(String, i64)) {
        if token.starts_with(&self.0) {
            emit(token.to_string(), 1);
        }
    }
}

fn store() -> BlockStore {
    let text = "alpha beta alpha gamma\nbeta delta alpha\nepsilon beta gamma delta\n".repeat(300);
    BlockStore::from_text(&text, 1024)
}

fn solo(prefix: &str, s: &BlockStore) -> std::collections::BTreeMap<String, i64> {
    run_job(
        &Count(prefix.to_string()),
        s,
        &ExecConfig {
            num_threads: 1,
            num_reducers: 4,
        },
    )
    .records
}

const PREFIXES: [&str; 4] = ["", "a", "be", "ga"];

/// Satellite (d) as a seeded sweep: for every seed, a random subset of the
/// jobs panics at a random point of its own revolution; every other job
/// must produce output byte-identical to its solo run, and the metrics
/// must account for exactly the panicked subset. Runs both scan paths.
#[test]
fn panicking_subset_never_corrupts_survivors() {
    let s = store();
    let num_segments = s.num_blocks().div_ceil(2) as u64; // bps = 2 below
    let references: Vec<_> = PREFIXES.iter().map(|p| solo(p, &s)).collect();

    for seed in 0u64..24 {
        // Cheap deterministic PRNG over the seed: pick the doomed subset
        // and each victim's panic segment without pulling in rand here.
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let doomed_mask = (next() % 15) as usize; // 0..=14: never all 4 doomed
        let faults: Vec<EngineFault> = (0..PREFIXES.len())
            .filter(|i| doomed_mask & (1 << i) != 0)
            .map(|i| EngineFault::PanicMap {
                job: i as u64,
                after_segments: next() % num_segments,
            })
            .collect();
        let num_doomed = faults.len();

        for speculation in [false, true] {
            let mut cfg = ServerConfig::new(2, 3);
            cfg.obs = Obs::new();
            cfg.ft = if speculation {
                FtConfig {
                    deadline_floor: Duration::from_millis(3),
                    ..FtConfig::resilient()
                }
            } else {
                FtConfig::default()
            };
            cfg.faults = Some(FaultPlan {
                faults: faults.clone(),
            });
            let obs = cfg.obs.clone();
            let server = SharedScanServer::with_config(s.clone(), cfg);
            let handles =
                server.submit_all(PREFIXES.iter().map(|p| Count(p.to_string())).collect());
            for (i, (h, reference)) in handles.into_iter().zip(&references).enumerate() {
                let doomed = doomed_mask & (1 << i) != 0;
                match h.wait() {
                    Ok(out) => {
                        assert!(!doomed, "seed {seed} spec {speculation}: job {i} survived");
                        assert_eq!(
                            &out.records, reference,
                            "seed {seed} spec {speculation}: job {i} differs from solo"
                        );
                    }
                    Err(JobError::Panicked(msg)) => {
                        assert!(doomed, "seed {seed} spec {speculation}: job {i} panicked");
                        assert!(msg.contains("injected map panic"), "{msg}");
                    }
                    Err(e) => panic!("seed {seed} spec {speculation}: job {i}: {e}"),
                }
            }
            server.shutdown();
            let snap = obs.snapshot().expect("observed");
            assert_eq!(
                snap.counter("engine.jobs_quarantined"),
                num_doomed as u64,
                "seed {seed} spec {speculation}"
            );
            assert_eq!(
                snap.counter("engine.jobs_completed"),
                (PREFIXES.len() - num_doomed) as u64,
                "seed {seed} spec {speculation}"
            );
        }
    }
}

/// An injected straggler makes its claims miss the deadline: rivals
/// speculatively re-execute the block, the first result wins, and the
/// output is still exact. The whole recovery is visible in the metrics.
#[test]
fn straggler_triggers_speculation_with_exact_output() {
    let s = store();
    let reference = solo("", &s);
    let mut cfg = ServerConfig::new(2, 3);
    cfg.obs = Obs::new();
    cfg.ft = FtConfig {
        deadline_floor: Duration::from_millis(2),
        deadline_slack: 1.5,
        ..FtConfig::resilient()
    };
    // Worker 0 sleeps 15 ms per block for the whole run: far past the
    // deadline, so every block it claims is re-executed by a rival.
    cfg.faults = Some(FaultPlan {
        faults: vec![EngineFault::SlowWorker {
            worker: 0,
            from_iter: 0,
            until_iter: u64::MAX,
            delay_us: 15_000,
        }],
    });
    let obs = cfg.obs.clone();
    let server = SharedScanServer::with_config(s, cfg);
    let out = server
        .submit(Count(String::new()))
        .wait()
        .expect("job completed despite the straggler");
    assert_eq!(out.records, reference, "speculation must not change output");
    server.shutdown();

    let snap = obs.snapshot().expect("observed");
    assert!(
        snap.counter("engine.tasks_speculated") > 0,
        "the straggler's claims must trigger speculation: {:?}",
        snap.counters
    );
    assert!(
        snap.counter("engine.speculation_wins") > 0,
        "some rival re-execution must win: {:?}",
        snap.counters
    );
    assert_eq!(snap.counter("engine.jobs_quarantined"), 0);
}

/// A job whose `map` genuinely takes a while — every call sleeps — so the
/// speculative path's per-block cost EWMA sees multi-millisecond blocks.
struct Sleepy;

impl MapReduceJob for Sleepy {
    type K = String;
    type V = i64;
    type Out = i64;
    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        std::thread::sleep(Duration::from_millis(5));
        for w in line.split_whitespace() {
            emit(w.to_string(), 1);
        }
    }
    fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
        Some(v.iter().sum())
    }
}

/// Satellite (b) regression: the speculative deadline must warm up from
/// the first committed blocks instead of running a whole segment at the
/// configured floor. Six genuinely-slow blocks (5 ms each) under a 2 ms
/// floor: with a cold deadline the tail block's claim looks expired the
/// moment the other worker goes idle, so it gets speculated; with the
/// warm-up fix the deadline is refreshed to ≈ EWMA × slack (≈ 40 ms)
/// after the first commit, and no speculation ever fires.
#[test]
fn warm_deadline_prevents_cold_start_speculation() {
    let s = BlockStore::new(
        (0..6)
            .map(|i| format!("word{i} word{i} tail\n"))
            .collect(),
    );
    let reference = run_job(
        &Sleepy,
        &s,
        &ExecConfig {
            num_threads: 1,
            num_reducers: 2,
        },
    )
    .records;

    // One segment of all 6 blocks, 2 workers: the segment starts with an
    // empty EWMA, which is exactly the cold-start window under test.
    let mut cfg = ServerConfig::new(6, 2);
    cfg.obs = Obs::new();
    cfg.ft = FtConfig {
        deadline_floor: Duration::from_millis(2),
        deadline_slack: 8.0,
        // This test pins the legacy deadline machinery (the crash-recovery
        // fallback): with work-assisting on, the idle worker re-executes
        // the healthy-but-slow tail on purpose, which is exactly what
        // deadline speculation must NOT do.
        assist: false,
        ..FtConfig::resilient()
    };
    let obs = cfg.obs.clone();
    let server = SharedScanServer::with_config(s, cfg);
    let out = server.submit(Sleepy).wait().expect("job completed");
    assert_eq!(out.records, reference);
    server.shutdown();

    let snap = obs.snapshot().expect("observed");
    assert_eq!(
        snap.counter("engine.tasks_speculated"),
        0,
        "healthy slow blocks must not be speculated once the deadline \
         warms up from the first commits: {:?}",
        snap.counters
    );
}

/// Satellite (d) for the adaptive tentpole: a 50-seed chaos sweep with
/// adaptive sizing on and every plan guaranteed at least one straggler
/// (`min_slow: 1`). Segment boundaries move mid-scan — every seed must
/// emit at least one `segment_resized`, every resize must land inside the
/// configured clamp, and all four jobs' outputs must stay byte-identical
/// to their solo runs.
#[test]
fn adaptive_resizing_under_chaos_stays_byte_identical() {
    let s = store();
    let references: Vec<_> = PREFIXES.iter().map(|p| solo(p, &s)).collect();
    let chaos = EngineChaosConfig {
        num_workers: 3,
        num_jobs: PREFIXES.len() as u64,
        horizon_iters: s.num_blocks().div_ceil(4) as u64,
        // Adaptive sizing changes how many blocks each segment iteration
        // covers, so iteration-indexed faults fire at different blocks
        // than in a fixed-size run — which is fine for slow/drop faults
        // (outcome-neutral) but would make panics and coordinator kills
        // nondeterministic oracles. Keep only the neutral faults.
        min_slow: 1,
        max_map_panics: 0,
        max_reduce_faults: 0,
        coordinator_kill_prob: 0.0,
        ..EngineChaosConfig::default()
    };
    const MIN_BPS: u64 = 1;
    const MAX_BPS: u64 = 8;

    for seed in 0u64..50 {
        let plan = FaultPlan::generate(seed, &chaos);
        let mut cfg = ServerConfig::new(4, 3);
        cfg.obs = Obs::new();
        cfg.ft = FtConfig {
            deadline_floor: Duration::from_millis(3),
            ..FtConfig::resilient()
        };
        cfg.adaptive = AdaptiveConfig {
            enabled: true,
            target_cadence: Duration::from_millis(2),
            min_blocks_per_segment: MIN_BPS as usize,
            max_blocks_per_segment: MAX_BPS as usize,
        };
        cfg.faults = Some(plan);
        let obs = cfg.obs.clone();
        let server = SharedScanServer::with_config(s.clone(), cfg);
        let handles = server.submit_all(PREFIXES.iter().map(|p| Count(p.to_string())).collect());
        for (i, (h, reference)) in handles.into_iter().zip(&references).enumerate() {
            let out = h.wait().unwrap_or_else(|e| {
                panic!("seed {seed}: job {i} failed under neutral faults: {e}")
            });
            assert_eq!(
                &out.records, reference,
                "seed {seed}: job {i} differs from solo while segments resized"
            );
        }
        server.shutdown();

        let snap = obs.snapshot().expect("observed");
        assert!(
            snap.counter("engine.segment_resizes") >= 1,
            "seed {seed}: the straggler must perturb measured cost enough \
             to move the segment size at least once: {:?}",
            snap.counters
        );
        let core = obs.core().expect("observed");
        let events = core.tracer.drain();
        for ev in events.iter().filter(|e| e.name == "segment_resized") {
            assert!(
                (MIN_BPS..=MAX_BPS).contains(&ev.ids.seg),
                "seed {seed}: resize to {} escapes the clamp [{MIN_BPS}, {MAX_BPS}]",
                ev.ids.seg
            );
            assert_ne!(
                ev.ids.seg, ev.ids.n,
                "seed {seed}: degenerate resize to the current size"
            );
        }
    }
}

/// Satellite (c): `shutdown()` resolves every outstanding handle. Jobs
/// whose revolution completes before the coordinator drains keep their
/// output; anything still pending when the server is gone aborts — and
/// `wait()` never hangs either way.
#[test]
fn shutdown_resolves_every_handle() {
    let s = store();
    let reference = solo("", &s);

    // Submitted before shutdown: the coordinator finishes their
    // revolutions, so they complete with exact output.
    let server = SharedScanServer::new(s.clone(), 2, 2);
    let handles: Vec<_> = (0..3).map(|_| server.submit(Count(String::new()))).collect();
    server.shutdown();
    for h in handles {
        let out = h.wait().expect("drained at shutdown");
        assert_eq!(out.records, reference);
    }

    // Dropped without shutdown(): same drain path, nothing hangs.
    let server = SharedScanServer::new(s.clone(), 2, 2);
    let h = server.submit(Count(String::new()));
    drop(server);
    assert_eq!(
        h.wait().expect("drained at drop").records,
        reference,
        "drop-without-shutdown must still drain"
    );

    // Submitted after the coordinator died (injected kill): the scan will
    // never run again, so the handle resolves to Aborted instead of
    // hanging forever.
    let mut cfg = ServerConfig::new(2, 2);
    cfg.faults = Some(FaultPlan {
        faults: vec![EngineFault::KillCoordinator { at_iter: 0 }],
    });
    let server = SharedScanServer::with_config(s, cfg);
    let early = server.submit(Count(String::new()));
    assert_eq!(early.wait(), Err(JobError::Aborted));
    // The kill has certainly happened once the first handle resolved.
    let late = server.submit(Count(String::new()));
    assert_eq!(late.wait(), Err(JobError::Aborted));
    server.shutdown();
}

/// Companion to [`shutdown_resolves_every_handle`] for the submit-racing-
/// shutdown window, via the public API only: shut down first, then verify
/// a clone-side submit aborts. `SharedScanServer::shutdown` consumes the
/// server, so the race is driven from a second thread holding the server.
#[test]
fn submit_racing_shutdown_aborts_instead_of_hanging() {
    for _ in 0..20 {
        let s = BlockStore::from_text("alpha beta\ngamma\n", 8);
        let server = SharedScanServer::new(s, 1, 1);
        let h = server.submit(Count(String::new()));
        // Shut down while the first job may still be mid-revolution, then
        // observe that its handle resolves either way.
        server.shutdown();
        match h.wait() {
            Ok(out) => assert!(out.records.contains_key("alpha")),
            Err(JobError::Aborted) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}
