//! `s3bench` — the engine performance baseline emitter.
//!
//! Measures the real engine's three headline numbers on this machine and
//! writes them to `BENCH_engine.json` next to an embedded pre-recorded
//! baseline, so every PR has a perf trajectory to compare against:
//!
//! - **single_job_ms** — one `run_job` pass over the corpus;
//! - **shared_scan_bps1_ms** — a `SharedScanServer` revolution serving 4
//!   concurrent jobs at `blocks_per_segment = 1` (the smallest segments,
//!   where per-iteration fixed costs dominate);
//! - **admission_latency_ms** — submit-to-complete latency of a probe job
//!   submitted while a revolution is already live;
//! - **adaptive vs fixed** — the same shared workload under a persistent
//!   1 ms/block straggler, with fixed one-block segments vs adaptive
//!   sizing (the paper's dynamic sub-job adjustment) that can grow
//!   segments up to 32 blocks as the measured cadence allows;
//! - **assisted vs speculative** — the shared workload at four-block
//!   segments under the same persistent straggler, with the legacy
//!   deadline-speculation tail vs the work-assisting claim loop (idle
//!   workers re-execute the uncommitted tail immediately). Reports wall
//!   time and the `engine.segment_scan_us` tail (p50/p95/max), where the
//!   assist path's immediate recovery shows up directly.
//!
//! ```text
//! cargo run --release -p s3-bench --bin s3bench -- [--quick] [--out PATH]
//! ```

use s3_engine::{
    run_job, AdaptiveConfig, BlockStore, EngineFault, ExecConfig, FaultPlan, FtConfig,
    MapReduceJob, Obs, ServerConfig, SharedScanServer,
};
use s3_sim::SimRng;
use s3_workloads::jobs::PatternWordCount;
use s3_workloads::text::TextGen;
use std::time::{Duration, Instant};

/// Benchmark shape (shared by the baseline and the current run).
const CORPUS_BYTES: usize = 2 << 20;
const BLOCK_BYTES: usize = 4 << 10;
const THREADS: usize = 2;
const REDUCERS: usize = 8;
const SHARED_JOBS: usize = 4;
const BLOCKS_PER_SEGMENT: usize = 1;
/// Adaptive sizing may grow segments up to this many blocks in the
/// adaptive-vs-fixed comparison.
const ADAPTIVE_MAX_BPS: usize = 32;
/// Injected per-block straggler delay for the comparison.
const STRAGGLER_DELAY_US: u64 = 1_000;
/// Blocks per segment for the assisted-vs-speculative tail comparison:
/// multi-block segments, so every segment has an uncommitted tail for the
/// fast workers to recover.
const TAIL_BPS: usize = 4;
/// Zipf exponent for the skewed-reduce regression row. At s = 1.2 over the
/// [`SKEW_VOCAB`]-word vocabulary the head word alone draws roughly a
/// quarter of all tokens, so hash partitioning hot-spots whichever shard
/// it lands in. The vocabulary is small enough that per-record volume
/// (not per-key overhead) dominates each shard's reduce cost — the
/// regime where one shard decides the tail.
const SKEW_ZIPF: f64 = 1.2;
const SKEW_VOCAB: usize = 1_000;
/// Threads (= reduce shards) and segment size for the skew row:
/// enough shards that one hot shard visibly drags the reduce phase.
const SKEW_THREADS: usize = 4;
const SKEW_BPS: usize = 8;

/// Pre-PR baseline, measured with this same harness at commit 299ce47
/// (crossbeam::scope spawning `num_threads` OS threads on every segment
/// iteration; reduce on the coordinator thread). Units: milliseconds.
const BASELINE_COMMIT: &str = "299ce47";
const BASELINE_SINGLE_JOB_MS: f64 = 150.08;
const BASELINE_SHARED_SCAN_BPS1_MS: f64 = 66.93;
const BASELINE_ADMISSION_LATENCY_MS: f64 = 162.87;

/// Immediately-previous PR's headline numbers (String-based scan path,
/// measured with this harness at commit 3785dca), for the zero-copy
/// kernel's end-to-end speedup accounting.
const PREV_PR_COMMIT: &str = "3785dca";
const PREV_PR_SINGLE_JOB_MS: f64 = 33.303013;
const PREV_PR_SHARED_SCAN_BPS1_MS: f64 = 22.603631999999998;

fn corpus() -> BlockStore {
    let gen = TextGen::new(10_000, 1.1);
    let text = gen.generate(&mut SimRng::seed_from_u64(31), CORPUS_BYTES);
    BlockStore::from_text(&text, BLOCK_BYTES)
}

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

fn prefixes(k: usize) -> Vec<String> {
    (0..k)
        .map(|i| format!("{}a", (b'b' + i as u8) as char))
        .collect()
}

/// One `run_job` pass over the whole corpus.
fn bench_single_job(store: &BlockStore, repeats: usize) -> f64 {
    let cfg = ExecConfig {
        num_threads: THREADS,
        num_reducers: REDUCERS,
    };
    let job = PatternWordCount::all();
    let samples = (0..repeats)
        .map(|_| time_ms(|| drop(run_job(&job, store, &cfg))))
        .collect();
    median_ms(samples)
}

/// One server revolution serving `SHARED_JOBS` jobs at one-block segments.
fn bench_shared_scan(store: &BlockStore, repeats: usize) -> f64 {
    let samples = (0..repeats)
        .map(|_| {
            time_ms(|| {
                let server =
                    SharedScanServer::new(store.clone(), BLOCKS_PER_SEGMENT, THREADS);
                let handles: Vec<_> = prefixes(SHARED_JOBS)
                    .into_iter()
                    .map(|p| server.submit(PatternWordCount::prefix(p)))
                    .collect();
                for h in handles {
                    h.wait().expect("job completed");
                }
                server.shutdown();
            })
        })
        .collect();
    median_ms(samples)
}

/// Submit-to-complete latency of a probe job landing on a live revolution.
fn bench_admission_latency(store: &BlockStore, repeats: usize) -> f64 {
    let samples = (0..repeats)
        .map(|_| {
            let server = SharedScanServer::new(store.clone(), BLOCKS_PER_SEGMENT, THREADS);
            let background = server.submit(PatternWordCount::all());
            // Let the revolution get moving before the probe arrives.
            while server.iterations() < 4 {
                std::thread::sleep(Duration::from_micros(200));
            }
            let t0 = Instant::now();
            let probe = server.submit(PatternWordCount::prefix("qa"));
            probe.wait().expect("job completed");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            background.wait().expect("job completed");
            server.shutdown();
            ms
        })
        .collect();
    median_ms(samples)
}

/// The same `SHARED_JOBS`-way shared revolution under a persistent
/// straggler, with fixed one-block segments or adaptive sizing. Fixed
/// mode pays the straggler (and the per-iteration fixed cost) on every
/// block it claims; adaptive mode grows segments toward
/// [`ADAPTIVE_MAX_BPS`] so healthy workers absorb more of each wave.
fn bench_straggler(store: &BlockStore, repeats: usize, adaptive: bool) -> f64 {
    let samples = (0..repeats)
        .map(|_| {
            time_ms(|| {
                let mut cfg = ServerConfig::new(BLOCKS_PER_SEGMENT, THREADS);
                cfg.ft = FtConfig {
                    deadline_floor: Duration::from_millis(3),
                    ..FtConfig::resilient()
                };
                cfg.faults = Some(FaultPlan {
                    faults: vec![EngineFault::SlowWorker {
                        worker: 0,
                        from_iter: 0,
                        until_iter: u64::MAX,
                        delay_us: STRAGGLER_DELAY_US,
                    }],
                });
                if adaptive {
                    cfg.adaptive = AdaptiveConfig {
                        enabled: true,
                        target_cadence: Duration::from_millis(2),
                        min_blocks_per_segment: 1,
                        max_blocks_per_segment: ADAPTIVE_MAX_BPS,
                    };
                }
                let server = SharedScanServer::with_config(store.clone(), cfg);
                let handles: Vec<_> = prefixes(SHARED_JOBS)
                    .into_iter()
                    .map(|p| server.submit(PatternWordCount::prefix(p)))
                    .collect();
                for h in handles {
                    h.wait().expect("job completed");
                }
                server.shutdown();
            })
        })
        .collect();
    median_ms(samples)
}

/// The shared workload at [`TAIL_BPS`]-block segments under the same
/// persistent straggler, on the legacy deadline-speculation tail
/// (`assist: false`) or the work-assisting claim loop (`assist: true`).
/// Exclusion is disabled so the straggler stays in play for the whole
/// run — the comparison is about how each mode recovers the tail it
/// leaves, not about removing it. Returns the median wall time plus the
/// metrics snapshot of the median run (its `engine.segment_scan_us`
/// histogram is the segment-tail latency evidence).
fn bench_tail_recovery(
    store: &BlockStore,
    repeats: usize,
    assist: bool,
) -> (f64, s3_obs::MetricsSnapshot) {
    let mut samples: Vec<(f64, s3_obs::MetricsSnapshot)> = (0..repeats)
        .map(|_| {
            let mut cfg = ServerConfig::new(TAIL_BPS, THREADS);
            cfg.obs = Obs::new();
            cfg.ft = FtConfig {
                assist,
                deadline_floor: Duration::from_millis(3),
                exclusion_threshold: u32::MAX,
                ..FtConfig::resilient()
            };
            cfg.faults = Some(FaultPlan {
                faults: vec![EngineFault::SlowWorker {
                    worker: 0,
                    from_iter: 0,
                    until_iter: u64::MAX,
                    delay_us: STRAGGLER_DELAY_US,
                }],
            });
            let obs = cfg.obs.clone();
            let ms = time_ms(|| {
                let server = SharedScanServer::with_config(store.clone(), cfg);
                let handles: Vec<_> = prefixes(SHARED_JOBS)
                    .into_iter()
                    .map(|p| server.submit(PatternWordCount::prefix(p)))
                    .collect();
                for h in handles {
                    h.wait().expect("job completed");
                }
                server.shutdown();
            });
            (ms, obs.snapshot().expect("Obs::new is on"))
        })
        .collect();
    samples.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    samples.swap_remove(samples.len() / 2)
}

/// The `engine.segment_scan_us` tail of one tail-recovery run, as JSON.
fn segment_tail_json(snap: &s3_obs::MetricsSnapshot) -> serde_json::Value {
    let h = snap
        .histograms
        .get("engine.segment_scan_us")
        .expect("segments were scanned");
    serde_json::json!({
        "count": (h.count),
        "p50": (h.p50),
        "p95": (h.p95),
        "max": (h.max),
    })
}

/// Word statistics with *no* combiner collapse: every token reaches the
/// reduce phase as its own record, so the reduce shards inherit the
/// corpus's full Zipf skew. (The fold-combiner jobs collapse each key to
/// one record per worker, which erases exactly the imbalance this
/// benchmark measures.) The reduce runs a 64-bit mix per occurrence —
/// modeling a compute-bearing aggregation, the regime where a shard's
/// cost tracks its record volume and the hot shard decides the tail.
struct SkewWordCount;

impl MapReduceJob for SkewWordCount {
    type K = String;
    type V = i64;
    type Out = i64;
    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        for w in line.split_whitespace() {
            emit(w.to_string(), w.len() as i64);
        }
    }
    fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
        let mut acc = 0u64;
        for &x in v {
            // splitmix64 finalizer per occurrence: a dependent multiply
            // chain the optimizer can neither vectorize away nor hoist.
            let mut z = (x as u64).wrapping_add(acc).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            acc = z ^ (z >> 31);
        }
        Some(acc as i64)
    }
}

/// One skewed-reduce measurement: a [`SkewWordCount`] revolution over the
/// Zipf [`SKEW_ZIPF`] corpus. Returns the median run's (wall ms,
/// reduce-phase wall ms, metrics snapshot); the reduce-phase wall is the
/// span from the first `reduce_shard` task starting to the last one
/// ending — under hash partitioning, the hot shard's runtime.
fn bench_skewed_reduce(store: &BlockStore, repeats: usize) -> (f64, f64, s3_obs::MetricsSnapshot) {
    let mut samples: Vec<(f64, f64, s3_obs::MetricsSnapshot)> = (0..repeats)
        .map(|_| {
            let mut cfg = ServerConfig::new(SKEW_BPS, SKEW_THREADS);
            cfg.obs = Obs::new();
            let obs = cfg.obs.clone();
            let ms = time_ms(|| {
                let server = SharedScanServer::with_config(store.clone(), cfg);
                let handle = server.submit(SkewWordCount);
                handle.wait().expect("job completed");
                server.shutdown();
            });
            let core = obs.core().expect("Obs::new is on");
            let (mut t0, mut t1) = (u64::MAX, 0u64);
            for ev in core.tracer.drain().iter().filter(|e| e.name == "reduce_shard") {
                t0 = t0.min(ev.ts_us);
                t1 = t1.max(ev.ts_us + ev.dur_us);
            }
            let reduce_ms = if t0 == u64::MAX {
                0.0
            } else {
                (t1 - t0) as f64 / 1e3
            };
            (ms, reduce_ms, obs.snapshot().expect("Obs::new is on"))
        })
        .collect();
    // Median by the reduce-phase wall — the measured quantity — not the
    // total wall, which buries a ~10 ms reduce phase in scan noise.
    samples.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    samples.swap_remove(samples.len() / 2)
}

/// The per-shard reduce evidence of one skewed run, as JSON: the
/// `engine.reduce_shard_us` tail plus the `engine.reduce_shard_records`
/// spread (how many records the heaviest shard reduced vs the median).
fn skew_shard_json(snap: &s3_obs::MetricsSnapshot) -> serde_json::Value {
    let us = snap
        .histograms
        .get("engine.reduce_shard_us")
        .expect("reduce shards ran");
    let recs = snap
        .histograms
        .get("engine.reduce_shard_records")
        .expect("reduce shards ran");
    serde_json::json!({
        "reduce_shard_us": {
            "count": (us.count),
            "p50": (us.p50),
            "p99": (us.p99),
            "max": (us.max),
        },
        "reduce_shard_records": {
            "count": (recs.count),
            "p50": (recs.p50),
            "p99": (recs.p99),
            "max": (recs.max),
        },
    })
}

/// Single-thread kernel microbenchmarks over the contiguous corpus:
/// returns (tokenize, newline-find, wordcount-map) throughput in GB/s.
/// The tokenize pass is the headline — the kernel target is >1 GB/s.
fn bench_kernel_throughput(store: &BlockStore, repeats: usize) -> (f64, f64, f64) {
    let data: Vec<u8> = store.iter().flat_map(|b| b.iter().copied()).collect();
    let gb = data.len() as f64 / 1e9;
    let gbps = |ms: f64| gb / (ms / 1e3);

    let tokenize_ms = median_ms(
        (0..repeats)
            .map(|_| {
                time_ms(|| {
                    let mut n = 0usize;
                    memchr::for_each_token(&data, |tok| n += tok.len());
                    std::hint::black_box(n);
                })
            })
            .collect(),
    );
    let newline_ms = median_ms(
        (0..repeats)
            .map(|_| {
                time_ms(|| {
                    std::hint::black_box(memchr::count_lines(&data));
                })
            })
            .collect(),
    );
    let wordcount_ms = median_ms(
        (0..repeats)
            .map(|_| {
                time_ms(|| {
                    let mut m: s3_engine::TokenMap<i64> = s3_engine::TokenMap::new();
                    memchr::for_each_token(&data, |tok| {
                        m.upsert_within(&data, tok, 1, |a, n| *a += n);
                    });
                    std::hint::black_box(m.len());
                })
            })
            .collect(),
    );
    (gbps(tokenize_ms), gbps(newline_ms), gbps(wordcount_ms))
}

/// One observed shared-scan revolution (identical workload to
/// [`bench_shared_scan`], outside the timed samples) whose `engine.*` /
/// `pool.*` metrics snapshot is embedded in the report. The snapshot
/// carries its own schema tag (`s3obs-metrics/v1`) in an additive field,
/// so readers of `s3bench-engine/v1` are unaffected.
fn capture_metrics_snapshot(store: &BlockStore) -> serde_json::Value {
    let obs = Obs::new();
    let server = SharedScanServer::with_config(
        store.clone(),
        ServerConfig { obs: obs.clone(), ..ServerConfig::new(BLOCKS_PER_SEGMENT, THREADS) },
    );
    let handles: Vec<_> = prefixes(SHARED_JOBS)
        .into_iter()
        .map(|p| server.submit(PatternWordCount::prefix(p)))
        .collect();
    for h in handles {
        h.wait().expect("job completed");
    }
    server.shutdown();
    let snapshot = obs.snapshot().expect("Obs::new is on");
    let text = serde_json::to_string(&snapshot).expect("snapshot serializes");
    serde_json::from_str(&text).expect("snapshot round-trips")
}

fn main() {
    let mut quick = false;
    let mut out_path = String::from("BENCH_engine.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out requires a path"),
            other => {
                eprintln!("unknown flag {other}; usage: s3bench [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let repeats = if quick { 3 } else { 7 };

    eprintln!("s3bench: building {} MiB corpus...", CORPUS_BYTES >> 20);
    let store = corpus();
    eprintln!(
        "s3bench: {} blocks of {} KiB; threads={THREADS}, repeats={repeats}",
        store.num_blocks(),
        BLOCK_BYTES >> 10
    );

    eprintln!("s3bench: single-job scan...");
    let single_job_ms = bench_single_job(&store, repeats);
    eprintln!("  single_job            {single_job_ms:>10.2} ms");

    eprintln!("s3bench: {SHARED_JOBS}-way shared scan, blocks_per_segment={BLOCKS_PER_SEGMENT}...");
    let shared_scan_ms = bench_shared_scan(&store, repeats);
    eprintln!("  shared_scan_bps1      {shared_scan_ms:>10.2} ms");

    eprintln!("s3bench: admission latency under a live revolution...");
    let admission_ms = bench_admission_latency(&store, repeats);
    eprintln!("  admission_latency     {admission_ms:>10.2} ms");

    eprintln!(
        "s3bench: {SHARED_JOBS}-way shared scan under a {STRAGGLER_DELAY_US} µs/block \
         straggler, fixed bps={BLOCKS_PER_SEGMENT} vs adaptive (max {ADAPTIVE_MAX_BPS})..."
    );
    let fixed_straggler_ms = bench_straggler(&store, repeats, false);
    eprintln!("  fixed_straggler       {fixed_straggler_ms:>10.2} ms");
    let adaptive_straggler_ms = bench_straggler(&store, repeats, true);
    eprintln!("  adaptive_straggler    {adaptive_straggler_ms:>10.2} ms");

    eprintln!(
        "s3bench: segment-tail recovery under the same straggler, \
         bps={TAIL_BPS}: deadline speculation vs work-assist..."
    );
    let (speculative_ms, speculative_snap) = bench_tail_recovery(&store, repeats, false);
    eprintln!("  speculative_tail      {speculative_ms:>10.2} ms");
    let (assisted_ms, assisted_snap) = bench_tail_recovery(&store, repeats, true);
    eprintln!("  assisted_tail         {assisted_ms:>10.2} ms");

    eprintln!(
        "s3bench: skewed reduce (Zipf s={SKEW_ZIPF}, no combiner), \
         hash partitioning, {SKEW_THREADS} shards..."
    );
    let skew_store = {
        let gen = TextGen::new(SKEW_VOCAB, SKEW_ZIPF);
        let text = gen.generate(&mut SimRng::seed_from_u64(47), CORPUS_BYTES);
        BlockStore::from_text(&text, BLOCK_BYTES)
    };
    let (hash_wall_ms, hash_reduce_ms, hash_snap) = bench_skewed_reduce(&skew_store, repeats);
    eprintln!("  skew_hash_reduce      {hash_reduce_ms:>10.2} ms  (wall {hash_wall_ms:.2} ms)");

    eprintln!("s3bench: scan-kernel microbench (single thread, contiguous corpus)...");
    // More repeats: each pass is milliseconds, so medians are cheap.
    let (tokenize_gbps, newline_gbps, wordcount_gbps) =
        bench_kernel_throughput(&store, repeats * 3);
    eprintln!("  kernel_tokenize       {tokenize_gbps:>10.2} GB/s");
    eprintln!("  kernel_newline_find   {newline_gbps:>10.2} GB/s");
    eprintln!("  kernel_wordcount_map  {wordcount_gbps:>10.2} GB/s");

    eprintln!("s3bench: capturing telemetry snapshot (observed shared scan)...");
    let metrics = capture_metrics_snapshot(&store);

    let mb = store.total_bytes() as f64 / (1 << 20) as f64;
    let speedup = |base: f64, cur: f64| {
        if base.is_finite() && cur > 0.0 {
            serde_json::json!(base / cur)
        } else {
            serde_json::json!(null)
        }
    };
    let report = serde_json::json!({
        "schema": "s3bench-engine/v1",
        "generated_by": "cargo run --release -p s3-bench --bin s3bench",
        "config": {
            "corpus_bytes": (store.total_bytes()),
            "block_bytes": BLOCK_BYTES,
            "num_blocks": (store.num_blocks()),
            "threads": THREADS,
            "reducers": REDUCERS,
            "shared_jobs": SHARED_JOBS,
            "blocks_per_segment": BLOCKS_PER_SEGMENT,
            "repeats": repeats,
        },
        "baseline": {
            "commit": BASELINE_COMMIT,
            "note": "pre worker-pool engine: crossbeam::scope respawn per segment iteration, reduce on the coordinator",
            "single_job_ms": BASELINE_SINGLE_JOB_MS,
            "shared_scan_bps1_ms": BASELINE_SHARED_SCAN_BPS1_MS,
            "admission_latency_ms": BASELINE_ADMISSION_LATENCY_MS,
        },
        "current": {
            "single_job_ms": single_job_ms,
            "single_job_mb_per_s": (mb / (single_job_ms / 1e3)),
            "shared_scan_bps1_ms": shared_scan_ms,
            "shared_scan_bps1_mb_per_s": (mb / (shared_scan_ms / 1e3)),
            "admission_latency_ms": admission_ms,
        },
        "speedup_vs_baseline": {
            "single_job": (speedup(BASELINE_SINGLE_JOB_MS, single_job_ms)),
            "shared_scan_bps1": (speedup(BASELINE_SHARED_SCAN_BPS1_MS, shared_scan_ms)),
            "admission_latency": (speedup(BASELINE_ADMISSION_LATENCY_MS, admission_ms)),
        },
        "scan_kernel": {
            "note": "vendored SWAR kernel, one thread over the contiguous corpus; end-to-end speedups are against the previous PR's String-based scan path",
            "tokenize_gb_per_s": tokenize_gbps,
            "newline_find_gb_per_s": newline_gbps,
            "wordcount_map_gb_per_s": wordcount_gbps,
            "prev_pr": {
                "commit": PREV_PR_COMMIT,
                "single_job_ms": PREV_PR_SINGLE_JOB_MS,
                "shared_scan_bps1_ms": PREV_PR_SHARED_SCAN_BPS1_MS,
            },
            "speedup_vs_prev_pr": {
                "single_job": (speedup(PREV_PR_SINGLE_JOB_MS, single_job_ms)),
                "shared_scan_bps1": (speedup(PREV_PR_SHARED_SCAN_BPS1_MS, shared_scan_ms)),
            },
        },
        "adaptive_vs_fixed": {
            "note": "shared revolution under a persistent straggler; adaptive = dynamic sub-job adjustment, base/min 1 block, max 32",
            "straggler_delay_us": STRAGGLER_DELAY_US,
            "adaptive_max_blocks_per_segment": ADAPTIVE_MAX_BPS,
            "fixed_straggler_ms": fixed_straggler_ms,
            "adaptive_straggler_ms": adaptive_straggler_ms,
            "speedup": (speedup(fixed_straggler_ms, adaptive_straggler_ms)),
        },
        "assist_vs_speculative": {
            "note": "shared revolution under the same persistent straggler at multi-block segments, exclusion off; speculative = legacy EWMA-deadline tail, assisted = idle workers re-execute the uncommitted tail immediately",
            "straggler_delay_us": STRAGGLER_DELAY_US,
            "blocks_per_segment": TAIL_BPS,
            "speculative": {
                "wall_ms": speculative_ms,
                "segment_scan_us": (segment_tail_json(&speculative_snap)),
                "tasks_speculated": (speculative_snap.counter("engine.tasks_speculated")),
                "speculation_wins": (speculative_snap.counter("engine.speculation_wins")),
            },
            "assisted": {
                "wall_ms": assisted_ms,
                "segment_scan_us": (segment_tail_json(&assisted_snap)),
                "blocks_assisted": (assisted_snap.counter("engine.blocks_assisted")),
                "assist_ratio_bp": (assisted_snap.gauge("engine.assist_ratio")),
            },
            "wall_speedup": (speedup(speculative_ms, assisted_ms)),
            "tail_p95_speedup": (speedup(
                speculative_snap.histograms["engine.segment_scan_us"].p95,
                assisted_snap.histograms["engine.segment_scan_us"].p95,
            )),
        },
        "skew": {
            "note": "word count with no combiner collapse over a Zipf-skewed corpus, hash sharding (the only partitioner); a regression row for the hot shard; reduce wall = first reduce_shard start to last reduce_shard end of the median run",
            "zipf_exponent": SKEW_ZIPF,
            "vocab": SKEW_VOCAB,
            "shards": SKEW_THREADS,
            "hash": {
                "wall_ms": hash_wall_ms,
                "reduce_wall_ms": hash_reduce_ms,
                "shards": (skew_shard_json(&hash_snap)),
            },
        },
        "metrics": metrics,
    });
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, text + "\n").expect("write BENCH_engine.json");
    eprintln!("s3bench: wrote {out_path}");
}
