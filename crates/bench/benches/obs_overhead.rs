//! Telemetry overhead bound: instrumented-vs-disabled comparison.
//!
//! The `s3-obs` design goal is that *disabled* telemetry costs one branch
//! per instrumentation site — the acceptance bar is that `off` and the
//! plain constructors benchmark within noise (<2%) of each other. The
//! `metrics`/`full` variants measure what enabling costs, for the record:
//!
//! - `single_job/off` vs `single_job/full`: `run_merged_observed` of one
//!   job with `Obs::off()` vs a live handle;
//! - `shared_scan/off` vs `shared_scan/metrics` vs `shared_scan/full`:
//!   an unobserved server vs observed with tracing disabled (metrics
//!   only) vs observed with the trace recorder on.
//!
//! ```text
//! cargo bench -p s3-bench --bench obs_overhead
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use s3_engine::{
    run_merged_observed, BlockStore, ExecConfig, Obs, ServerConfig, SharedScanServer, WorkerPool,
};
use s3_sim::SimRng;
use s3_workloads::jobs::PatternWordCount;
use s3_workloads::text::TextGen;

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

fn shared_scan(store: &BlockStore, obs: &Obs) {
    let server = SharedScanServer::with_config(
        store.clone(),
        ServerConfig { obs: obs.clone(), ..ServerConfig::new(1, THREADS) },
    );
    let handles: Vec<_> = prefixes(SHARED_JOBS)
        .into_iter()
        .map(|p| server.submit(PatternWordCount::prefix(p)))
        .collect();
    for h in handles {
        h.wait().expect("job completed");
    }
    server.shutdown();
}

fn bench_obs_overhead(c: &mut Criterion) {
    let store = corpus();
    let cfg = ExecConfig {
        num_threads: THREADS,
        num_reducers: 8,
    ..ExecConfig::default()
    };
    let job = PatternWordCount::all();

    let mut g = c.benchmark_group("single_job");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(store.total_bytes() as u64));
    g.bench_function("off", |b| {
        let pool = WorkerPool::new(THREADS);
        b.iter(|| run_merged_observed(&pool, &[&job], &store, &cfg, &Obs::off()));
    });
    g.bench_function("full", |b| {
        let obs = Obs::new();
        let pool = WorkerPool::new_observed(THREADS, "bench", &obs);
        b.iter(|| run_merged_observed(&pool, &[&job], &store, &cfg, &obs));
    });
    g.finish();

    let mut g = c.benchmark_group("shared_scan");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(store.total_bytes() as u64));
    g.bench_function("off", |b| {
        b.iter(|| shared_scan(&store, &Obs::off()));
    });
    g.bench_function("metrics", |b| {
        // Metrics registry live, trace recorder gated off: the sustained
        // production configuration.
        let obs = Obs::new();
        obs.core().expect("on").tracer.set_enabled(false);
        b.iter(|| shared_scan(&store, &obs));
    });
    g.bench_function("full", |b| {
        let obs = Obs::new();
        b.iter(|| shared_scan(&store, &obs));
    });
    g.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
