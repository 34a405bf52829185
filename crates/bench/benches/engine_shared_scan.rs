//! Real-engine shared-scan speedup: one pass serving n jobs vs n passes,
//! on actual data with actual threads. This measures the physical effect
//! the whole paper is built on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use s3_engine::{run_job, run_merged, BlockStore, ExecConfig};
use s3_sim::SimRng;
use s3_workloads::jobs::PatternWordCount;
use s3_workloads::text::TextGen;

fn corpus() -> BlockStore {
    let gen = TextGen::new(20_000, 1.1);
    let text = gen.generate(&mut SimRng::seed_from_u64(99), 8 << 20);
    BlockStore::from_text(&text, 256 << 10)
}

fn jobs(n: usize) -> Vec<PatternWordCount> {
    (0..n)
        .map(|i| PatternWordCount::prefix(format!("{}a", (b'b' + i as u8) as char)))
        .collect()
}

fn bench_shared_scan(c: &mut Criterion) {
    let store = corpus();
    let cfg = ExecConfig {
        num_threads: 4,
        num_reducers: 8,
    };

    let mut g = c.benchmark_group("engine_shared_scan");
    g.throughput(Throughput::Bytes(store.total_bytes() as u64));
    g.sample_size(10);
    for n in [1usize, 4, 8] {
        let js = jobs(n);
        g.bench_with_input(BenchmarkId::new("merged", n), &n, |b, _| {
            let refs: Vec<&PatternWordCount> = js.iter().collect();
            b.iter(|| run_merged(&refs, &store, &cfg));
        });
        g.bench_with_input(BenchmarkId::new("independent", n), &n, |b, _| {
            b.iter(|| {
                js.iter()
                    .map(|j| run_job(j, &store, &cfg))
                    .collect::<Vec<_>>()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_shared_scan);
criterion_main!(benches);
