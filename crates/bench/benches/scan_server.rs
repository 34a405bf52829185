//! Benchmarks of the live SharedScanServer: throughput of one revolution
//! serving k concurrent jobs, versus k independent `run_job` passes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use s3_engine::{run_job, BlockStore, ExecConfig, SharedScanServer};
use s3_sim::SimRng;
use s3_workloads::jobs::PatternWordCount;
use s3_workloads::text::TextGen;

fn corpus() -> BlockStore {
    let gen = TextGen::new(10_000, 1.1);
    let text = gen.generate(&mut SimRng::seed_from_u64(31), 4 << 20);
    BlockStore::from_text(&text, 128 << 10)
}

fn prefixes(k: usize) -> Vec<String> {
    (0..k)
        .map(|i| format!("{}a", (b'b' + i as u8) as char))
        .collect()
}

fn bench_server(c: &mut Criterion) {
    let store = corpus();
    let mut g = c.benchmark_group("scan_server");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(store.total_bytes() as u64));

    for k in [1usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("server_revolution", k), &k, |b, &k| {
            b.iter(|| {
                let server = SharedScanServer::new(store.clone(), 4, 4);
                let handles: Vec<_> = prefixes(k)
                    .into_iter()
                    .map(|p| server.submit(PatternWordCount::prefix(p)))
                    .collect();
                let outs: Vec<_> = handles.into_iter().map(|h| h.wait().expect("job completed")).collect();
                server.shutdown();
                outs
            });
        });
        g.bench_with_input(BenchmarkId::new("independent_passes", k), &k, |b, &k| {
            let cfg = ExecConfig {
                num_threads: 4,
                num_reducers: 8,
            };
            b.iter(|| {
                prefixes(k)
                    .into_iter()
                    .map(|p| run_job(&PatternWordCount::prefix(p), &store, &cfg))
                    .collect::<Vec<_>>()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_server);
criterion_main!(benches);
