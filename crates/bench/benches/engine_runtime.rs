//! Criterion benches of the worker-pool engine runtime — the same three
//! scenarios `s3bench` snapshots into `BENCH_engine.json`:
//!
//! - `single_job`: one `run_job` pass over the corpus;
//! - `shared_scan_bps1`: a `SharedScanServer` revolution serving 4
//!   concurrent jobs at one-block segments (the smallest segments, where
//!   per-iteration fixed costs dominate — the configuration the persistent
//!   pool exists for);
//! - `admission_scenario`: a probe job landing on an already-live
//!   revolution, measured end to end (server start, background job,
//!   probe, drain). `s3bench` isolates the probe's submit-to-complete
//!   interval; this bench tracks the whole scenario over time.
//!
//! Plus `assist_threads/t{1,2,4,8,16}`: the shared revolution at
//! four-block segments with work-assisting block claims on, swept across
//! worker-thread counts, so the claim loop's coordination cost (one
//! `fetch_add` per block, plus tail re-execution) is visible as the
//! worker set — and with it contention on the claim cursor — grows past
//! the core count.
//!
//! And `reduce_core/*`: one job alone on a two-thread server over rows whose
//! map is a copy, so the time is the reduce path's — emit-time routing,
//! grouping, reduce, publish:
//!
//! - `non_fold_unique_40k`: 40k records, every key unique (the selection
//!   workload's shape);
//! - `non_fold_40k_over_4k_keys`: 40k records, ten values a key;
//! - `fold_60k_keys_x2`: 60k keys that each occur in both halves of the
//!   file, so both workers' maps hold most of them and the finish-time
//!   flush merges two 60k-key maps.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use s3_engine::{
    run_job, BlockStore, ExecConfig, FtConfig, JobShape, MapReduceJob, ServerConfig, SharedScanServer,
};
use s3_sim::SimRng;
use s3_workloads::jobs::PatternWordCount;
use s3_workloads::text::TextGen;
use std::time::Duration;

const THREADS: usize = 2;
const SHARED_JOBS: usize = 4;

fn corpus() -> BlockStore {
    let gen = TextGen::new(10_000, 1.1);
    let text = gen.generate(&mut SimRng::seed_from_u64(31), 2 << 20);
    BlockStore::from_text(&text, 4 << 10)
}

fn prefixes(k: usize) -> Vec<String> {
    (0..k)
        .map(|i| format!("{}a", (b'b' + i as u8) as char))
        .collect()
}

fn bench_engine_runtime(c: &mut Criterion) {
    let store = corpus();
    let mut g = c.benchmark_group("engine_runtime");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(store.total_bytes() as u64));

    g.bench_function("single_job", |b| {
        let cfg = ExecConfig {
            num_threads: THREADS,
            num_reducers: 8,
        };
        let job = PatternWordCount::all();
        b.iter(|| run_job(&job, &store, &cfg));
    });

    g.bench_function("shared_scan_bps1", |b| {
        b.iter(|| {
            let server = SharedScanServer::new(store.clone(), 1, THREADS);
            let handles: Vec<_> = prefixes(SHARED_JOBS)
                .into_iter()
                .map(|p| server.submit(PatternWordCount::prefix(p)))
                .collect();
            let outs: Vec<_> = handles.into_iter().map(|h| h.wait().expect("job completed")).collect();
            server.shutdown();
            outs
        });
    });

    g.bench_function("admission_scenario", |b| {
        b.iter(|| {
            let server = SharedScanServer::new(store.clone(), 1, THREADS);
            let background = server.submit(PatternWordCount::all());
            while server.iterations() < 4 {
                std::thread::sleep(Duration::from_micros(200));
            }
            let probe = server.submit(PatternWordCount::prefix("qa"));
            let out = probe.wait().expect("job completed");
            background.wait().expect("job completed");
            server.shutdown();
            out
        });
    });

    g.finish();
}

/// Thread sweep over the work-assisting shared scan: 4 jobs, 4-block
/// segments, `FtConfig::resilient()` with assist on (the default), at
/// 1/2/4/8/16 virtual workers.
fn bench_assist_thread_sweep(c: &mut Criterion) {
    let store = corpus();
    let mut g = c.benchmark_group("assist_threads");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(store.total_bytes() as u64));

    for threads in [1usize, 2, 4, 8, 16] {
        g.bench_function(format!("t{threads}"), |b| {
            b.iter(|| {
                let mut cfg = ServerConfig::new(4, threads);
                cfg.ft = FtConfig::resilient();
                let server = SharedScanServer::with_config(store.clone(), cfg);
                let handles: Vec<_> = prefixes(SHARED_JOBS)
                    .into_iter()
                    .map(|p| server.submit(PatternWordCount::prefix(p)))
                    .collect();
                let outs: Vec<_> = handles
                    .into_iter()
                    .map(|h| h.wait().expect("job completed"))
                    .collect();
                server.shutdown();
                outs
            });
        });
    }

    g.finish();
}

/// Count identical rows; the row is the key.
struct RowCount {
    fold: bool,
}

impl MapReduceJob for RowCount {
    type K = String;
    type V = i64;
    type Out = i64;
    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        emit(line.to_string(), 1);
    }
    fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
        Some(v.iter().sum())
    }
    fn shape(&self) -> JobShape<'_> {
        if self.fold {
            JobShape::LineFold
        } else {
            JobShape::Line
        }
    }
    fn combine_fold(&self, acc: &mut i64, next: i64) -> Option<i64> {
        *acc += next;
        None
    }
}

fn bench_reduce_core(c: &mut Criterion) {
    let mut g = c.benchmark_group("reduce_core");
    g.sample_size(10);
    for (name, fold, rows, keys) in [
        ("non_fold_unique_40k", false, 40_000, 40_000),
        ("non_fold_40k_over_4k_keys", false, 40_000, 4_000),
        ("fold_60k_keys_x2", true, 120_000, 60_000),
    ] {
        // Keys come in a scrambled order, as a filter's survivors do not.
        let text: String = (0..rows).map(|i| format!("row-{:06}\n", (i * 7919) % keys)).collect();
        let server = SharedScanServer::new(BlockStore::from_text(&text, 16 << 10), 8, THREADS);
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_function(name, |b| {
            b.iter(|| {
                let out = server.submit(RowCount { fold }).wait().expect("job completed");
                assert_eq!(out.records.len(), keys);
                out
            });
        });
        server.shutdown();
    }
    g.finish();
}

criterion_group!(benches, bench_engine_runtime, bench_assist_thread_sweep, bench_reduce_core);
criterion_main!(benches);
