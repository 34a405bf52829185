//! Integration tests for the persistent worker-pool runtime:
//!
//! - outputs are identical across thread counts for every engine entry
//!   point (the pool is a pure optimization);
//! - thread creation is O(servers), never O(segment iterations or jobs)
//!   — the tentpole property, checked via pool instrumentation;
//! - a job finishing a *heavy* reduce does not stall the segment cadence
//!   of jobs still scanning (finalization runs off the coordinator);
//! - chaos: rapid create/submit/shutdown cycles never hang, and shutdown
//!   drains queued finalization work so no submitted job loses its output.

use s3_engine::{
    run_job, run_merged, BlockStore, ExecConfig, MapReduceJob, SharedScanServer,
};
use std::time::{Duration, Instant};

/// Word count with a prefix filter; declares the fold + per-token paths.
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

/// Single-key aggregation whose reduce sleeps: a controllably heavy
/// finalization with trivially cheap scanning.
struct Agg {
    reduce_sleep: Duration,
}

impl MapReduceJob for Agg {
    type K = String;
    type V = i64;
    type Out = i64;
    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        for _ in line.split_whitespace() {
            emit("total".to_string(), 1);
        }
    }
    fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
        if !self.reduce_sleep.is_zero() {
            std::thread::sleep(self.reduce_sleep);
        }
        Some(v.iter().sum())
    }
    fn combine_is_fold(&self) -> bool {
        true
    }
    fn combine_fold(&self, acc: &mut i64, next: i64) {
        *acc += next;
    }
}

fn store() -> BlockStore {
    let text = "alpha beta alpha gamma\nbeta delta alpha\nepsilon beta gamma delta\n".repeat(400);
    BlockStore::from_text(&text, 1024)
}

#[test]
fn outputs_identical_across_thread_counts() {
    let s = store();
    let prefixes = ["", "a", "be", "zz"];
    let reference: Vec<_> = prefixes
        .iter()
        .map(|p| {
            run_job(
                &Count(p.to_string()),
                &s,
                &ExecConfig {
                    num_threads: 1,
                    num_reducers: 4,
                },
            )
        })
        .collect();

    for threads in [1usize, 2, 8] {
        let cfg = ExecConfig {
            num_threads: threads,
            num_reducers: 4,
        };
        // run_job
        for (p, base) in prefixes.iter().zip(&reference) {
            let out = run_job(&Count(p.to_string()), &s, &cfg);
            assert_eq!(out.records, base.records, "run_job threads={threads} p={p:?}");
            assert_eq!(out.stats.map_output_records, base.stats.map_output_records);
        }
        // run_merged
        let jobs: Vec<Count> = prefixes.iter().map(|p| Count(p.to_string())).collect();
        let refs: Vec<&Count> = jobs.iter().collect();
        let merged = run_merged(&refs, &s, &cfg);
        for ((p, base), m) in prefixes.iter().zip(&reference).zip(&merged) {
            assert_eq!(m.records, base.records, "run_merged threads={threads} p={p:?}");
        }
        // SharedScanServer
        let server = SharedScanServer::new(s.clone(), 3, threads);
        let handles: Vec<_> = prefixes
            .iter()
            .map(|p| server.submit(Count(p.to_string())))
            .collect();
        for ((p, base), h) in prefixes.iter().zip(&reference).zip(handles) {
            let out = h.wait().expect("job completed");
            assert_eq!(out.records, base.records, "server threads={threads} p={p:?}");
            assert_eq!(out.stats.map_output_records, base.stats.map_output_records);
        }
        server.shutdown();
    }
}

#[test]
fn server_thread_creation_is_constant() {
    // One-block segments: many segment iterations per revolution. The old
    // runtime spawned `num_threads` OS threads per iteration; the pool
    // runtime spawns 2 * num_threads once, at server start, and never more.
    let s = store();
    let num_threads = 3;
    let server = SharedScanServer::new(s.clone(), 1, num_threads);

    let first = server
        .submit(Count(String::new()))
        .wait()
        .expect("job completed");
    let spawned_after_one = server.pool_threads_spawned();
    assert_eq!(
        spawned_after_one,
        2 * num_threads as u64,
        "scan pool + reduce pool, spawned once at startup"
    );

    for p in ["a", "be", "ga", "de", ""] {
        let out = server
            .submit(Count(p.to_string()))
            .wait()
            .expect("job completed");
        if p.is_empty() {
            assert_eq!(out.records, first.records);
        }
    }
    assert!(
        server.iterations() >= 2 * s.num_blocks() as u64,
        "many segment iterations ran ({})",
        server.iterations()
    );
    assert_eq!(
        server.pool_threads_spawned(),
        spawned_after_one,
        "thread creation must not grow with jobs or segment iterations"
    );
    server.shutdown();
}

#[test]
fn heavy_reduce_does_not_stall_the_scan() {
    let s = store();
    let expected_total = s
        .iter()
        .map(|b| memchr::tokens(b).count())
        .sum::<usize>() as i64;
    let server = SharedScanServer::new(s, 1, 2);

    // Heavy job: joins first, so it finishes its revolution first — and
    // then sleeps 1.5 s in reduce, on the reduce pool.
    let heavy = server.submit(Agg {
        reduce_sleep: Duration::from_millis(1500),
    });
    while server.iterations() < 8 {
        std::thread::sleep(Duration::from_micros(200));
    }
    // Light job: still mid-revolution when the heavy job finishes.
    let light = server.submit(Agg {
        reduce_sleep: Duration::ZERO,
    });

    let t0 = Instant::now();
    let light_out = light.wait().expect("job completed");
    let light_wait = t0.elapsed();
    assert_eq!(light_out.records["total"], expected_total);

    // The light job must complete while the heavy reduce is still asleep:
    // finalization runs off the coordinator, so the segment cadence never
    // paused. (With the old on-coordinator finish, light.wait() would have
    // been delayed by the full 1.5 s sleep.)
    let stolen = heavy.try_take();
    assert!(
        stolen.is_none(),
        "heavy reduce should still be running when the light job completes \
         (light waited {light_wait:?})"
    );
    let heavy_out = heavy.wait().expect("job completed");
    assert_eq!(heavy_out.records["total"], expected_total);
    server.shutdown();
}

#[test]
fn chaos_rapid_create_submit_shutdown_never_hangs_or_loses_outputs() {
    // Seeded shape variation: thread counts, segment sizes, and job counts
    // all cycle; shutdown is signalled immediately after submission, while
    // the pool is live. Every submitted job must still publish its output
    // (shutdown drains queued finalization tasks), and nothing may hang
    // (no lost wakeups between submit, coordinator, and pools).
    let text = "alpha beta gamma\ndelta epsilon\n".repeat(20);
    let expected = run_job(
        &Count(String::new()),
        &BlockStore::from_text(&text, 64),
        &ExecConfig {
            num_threads: 1,
            num_reducers: 2,
        },
    );
    for seed in 0u64..150 {
        let threads = (seed % 3 + 1) as usize;
        let bps = (seed % 4 + 1) as usize;
        let njobs = (seed % 3) as usize;
        let s = BlockStore::from_text(&text, 64);
        let server = SharedScanServer::new(s, bps, threads);
        let handles: Vec<_> = (0..njobs)
            .map(|_| server.submit(Count(String::new())))
            .collect();
        server.shutdown();
        for (i, h) in handles.into_iter().enumerate() {
            let out = h
                .try_take()
                .unwrap_or_else(|| panic!("seed {seed}: job {i} lost its output at shutdown"))
                .expect("job completed");
            assert_eq!(out.records, expected.records, "seed {seed}: job {i}");
        }
    }
}

#[test]
fn shutdown_drains_every_queued_finalization() {
    let s = store();
    let reference = run_job(
        &Count(String::new()),
        &s,
        &ExecConfig {
            num_threads: 2,
            num_reducers: 4,
        },
    );
    let server = SharedScanServer::new(s, 1, 2);
    let handles: Vec<_> = (0..5).map(|_| server.submit(Count(String::new()))).collect();
    // Shut down with every job still scanning: the coordinator completes
    // their revolutions, queues their finalizations, and the pools drain
    // before shutdown() returns.
    server.shutdown();
    for (i, h) in handles.into_iter().enumerate() {
        let out = h
            .try_take()
            .unwrap_or_else(|| panic!("job {i} lost its output at shutdown"))
            .expect("job completed");
        assert_eq!(out.records, reference.records, "job {i}");
    }
}
