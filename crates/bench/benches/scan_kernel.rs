//! Vendored scan-kernel microbenchmarks: SWAR newline finding, whitespace
//! token splitting, and a full single-thread wordcount map pass, each at
//! 1 KiB / 64 KiB / 1 MiB. Throughput is reported in bytes/s — the kernel
//! target is >1 GB/s on the tokenization pass.
//!
//! `fan_out` is the shared scan's rider fan-out: 1 / 8 / 16 prefix
//! wordcounts over one single-thread `run_merged` pass of 4 MiB. The paper's
//! claim is that the 8- and 16-rider lines stay close to the 1-rider line.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use s3_engine::{run_merged_observed, BlockStore, ExecConfig, Obs, TokenMap, WorkerPool};
use s3_sim::SimRng;
use s3_workloads::jobs::PatternWordCount;
use s3_workloads::text::TextGen;

const SIZES: [(usize, &str); 3] = [(1 << 10, "1KiB"), (64 << 10, "64KiB"), (1 << 20, "1MiB")];

fn corpus(bytes: usize) -> Vec<u8> {
    let gen = TextGen::new(10_000, 1.1);
    gen.generate(&mut SimRng::seed_from_u64(31), bytes).into_bytes()
}

fn bench_scan_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("scan_kernel");
    for (bytes, label) in SIZES {
        let data = corpus(bytes);
        g.throughput(Throughput::Bytes(data.len() as u64));
        g.bench_with_input(BenchmarkId::new("newline_find", label), &data, |b, d| {
            b.iter(|| memchr::count_lines(black_box(d)));
        });
        g.bench_with_input(BenchmarkId::new("token_split", label), &data, |b, d| {
            b.iter(|| {
                let mut n = 0usize;
                let mut total = 0usize;
                memchr::for_each_token(black_box(d), |tok| {
                    n += 1;
                    total += tok.len();
                });
                (n, total)
            });
        });
        // The per-token iterator, kept alongside the callback tokenizer so
        // regressions in either path are visible.
        g.bench_with_input(BenchmarkId::new("token_split_iter", label), &data, |b, d| {
            b.iter(|| {
                let mut n = 0usize;
                let mut total = 0usize;
                for tok in memchr::tokens(black_box(d)) {
                    n += 1;
                    total += tok.len();
                }
                (n, total)
            });
        });
        // Full wordcount map pass: tokenize + fold counts under raw token
        // bytes in the per-worker arena (the engine's fast-path inner loop).
        g.bench_with_input(BenchmarkId::new("wordcount_map", label), &data, |b, d| {
            b.iter(|| {
                let mut m: TokenMap<i64> = TokenMap::new();
                let d: &[u8] = black_box(d);
                memchr::for_each_token(d, |tok| {
                    m.upsert_within(d, tok, 1, |a, n| *a += n);
                });
                m.len()
            });
        });
    }
    g.finish();
}

/// The generator's 60 most frequent words are its 60 two-letter leading
/// syllables; the first `n` of them are `n` prefix riders with disjoint
/// matches.
fn prefix_riders(n: usize) -> Vec<PatternWordCount> {
    let gen = TextGen::new(10_000, 1.1);
    (0..n).map(|rank| PatternWordCount::prefix(gen.word(rank))).collect()
}

fn bench_fan_out(c: &mut Criterion) {
    let mut g = c.benchmark_group("fan_out");
    let store = BlockStore::from_bytes(&corpus(4 << 20), 64 << 10);
    let pool = WorkerPool::new(1);
    let cfg = ExecConfig { num_threads: 1, num_reducers: 2, ..ExecConfig::default() };
    g.throughput(Throughput::Bytes(store.total_bytes() as u64));
    for riders in [1usize, 8, 16] {
        let jobs = prefix_riders(riders);
        let refs: Vec<&PatternWordCount> = jobs.iter().collect();
        g.bench_with_input(BenchmarkId::new("riders", riders), &refs, |b, refs| {
            b.iter(|| run_merged_observed(&pool, black_box(refs), &store, &cfg, &Obs::off()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scan_kernel, bench_fan_out);
criterion_main!(benches);
