//! Layer probes: each times calls into one layer's public functions, on the
//! workload's own corpus, job family and thread count.

use crate::oracle::{verify, Tally};
use crate::report::Metrics;
use crate::stats::median;
use crate::workloads::{server_config, Engine, Family, Workset};
use s3_engine::{
    run_job, run_merged, BlockStore, ExecConfig, MapReduceJob, PartitionMode, SharedScanServer,
    TokenMap, WorkProgress, WorkerPool,
};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

fn ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    median(&(0..reps).map(|_| ms(&mut f)).collect::<Vec<_>>())
}

fn gb_per_s(bytes: usize, ms: f64) -> f64 {
    bytes as f64 / 1e9 / (ms / 1e3)
}

/// What the server probes measured, for the caller's cross-checks.
pub struct ServerProbe {
    pub solo_ms: f64,
    pub riders8_ms: f64,
    /// Counter deltas over the probe servers' lifetimes: physical blocks,
    /// blocks summed over jobs, segment iterations, claim operations,
    /// assisted blocks, jobs.
    pub counters: ScanCounters,
}

#[derive(Default, Clone, Copy)]
pub struct ScanCounters {
    pub blocks: u64,
    pub job_blocks: u64,
    pub iterations: u64,
    pub claim_ops: u64,
    pub assisted: u64,
    pub jobs: u64,
}

impl ScanCounters {
    pub fn read<J: MapReduceJob>(
        server: &SharedScanServer<J>,
        jobs: u64,
        blocks_per_job: u64,
    ) -> Self {
        ScanCounters {
            blocks: server.blocks_scanned(),
            job_blocks: jobs * blocks_per_job,
            iterations: server.iterations(),
            claim_ops: server.claim_ops(),
            assisted: server.blocks_assisted(),
            jobs,
        }
    }

    pub fn add(&mut self, o: ScanCounters) {
        self.blocks += o.blocks;
        self.job_blocks += o.job_blocks;
        self.iterations += o.iterations;
        self.claim_ops += o.claim_ops;
        self.assisted += o.assisted;
        self.jobs += o.jobs;
    }

    /// Wasted-work ratios of the circular scan; 1/N sharing is ideal.
    pub fn push(&self, m: &mut Metrics) {
        let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        m.push("scan_server.scan_share_ratio", per(self.blocks, self.job_blocks), "ratio");
        m.push("scan_server.segments_per_job", per(self.iterations, self.jobs), "count");
        m.push("scan_server.claim_ops_per_block", per(self.claim_ops, self.blocks), "count");
        m.push("scan_server.assist_share", per(self.assisted, self.blocks), "ratio");
    }
}

/// `memchr`, `store`, `arena` and `pool`: single-thread kernels and pool
/// hand-offs under everything else.
pub fn kernel_probes(corpus: &[u8], threads: usize, reps: usize, m: &mut Metrics) {
    let store = BlockStore::from_bytes(corpus, crate::gen::BLOCK_BYTES);
    let bytes = store.total_bytes();

    let t = median_ms(reps, || {
        let mut n = 0usize;
        store.iter().for_each(|b| memchr::for_each_token(b, |tok| n += tok.len()));
        black_box(n);
    });
    m.push("memchr.tokenize_gb_per_s", gb_per_s(bytes, t), "GB/s");
    let t = median_ms(reps, || {
        black_box(store.iter().map(memchr::count_lines).sum::<usize>());
    });
    m.push("memchr.newline_gb_per_s", gb_per_s(bytes, t), "GB/s");

    let t = median_ms(reps, || {
        black_box(BlockStore::from_bytes(black_box(corpus), crate::gen::BLOCK_BYTES).num_blocks());
    });
    m.push("store.build_ms", t, "ms");
    let t = median_ms(reps, || {
        let mut sum = 0u64;
        for i in 0..store.num_blocks() {
            for w in store.block(i).chunks_exact(8) {
                sum = sum.wrapping_add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
            }
        }
        black_box(sum);
    });
    m.push("store.walk_gb_per_s", gb_per_s(bytes, t), "GB/s");

    // Hot probe: a worker's map after it has seen the vocabulary. The
    // first pass interns, the second is timed; tokens are cut beforehand
    // so only `upsert_within` is inside the timer.
    let hot_blocks = store.num_blocks().min(128);
    let add = |a: &mut i64, n: i64| *a += n;
    let mut map = TokenMap::new();
    let (mut spent, mut tokens) = (0.0, 0usize);
    for pass in 0..2 {
        for i in 0..hot_blocks {
            let block = store.block(i);
            let mut cut = Vec::new();
            memchr::for_each_token(block, |tok| cut.push(tok));
            let t = ms(|| cut.iter().for_each(|tok| map.upsert_within(block, tok, 1i64, add)));
            if pass == 1 {
                spent += t;
                tokens += cut.len();
            }
        }
    }
    black_box(map.len());
    m.push("arena.upsert_ns_per_token", spent * 1e6 / tokens.max(1) as f64, "ns");

    // Cold probe: every key is new, half of them past the 8-byte inline form.
    let mut hay = Vec::new();
    let mut cuts = vec![0usize];
    for i in 0..200_000u32 {
        hay.extend_from_slice(
            format!("{:0w$x}", i.wrapping_mul(2_654_435_761), w = 6 + (i % 2) as usize * 6)
                .as_bytes(),
        );
        cuts.push(hay.len());
    }
    let t = median_ms(reps.min(3), || {
        let mut fresh = TokenMap::new();
        cuts.windows(2).for_each(|c| fresh.upsert_within(&hay, &hay[c[0]..c[1]], 1i64, add));
        black_box(fresh.len());
    });
    m.push("arena.insert_ns_per_key", t * 1e6 / 200_000.0, "ns");

    let half = |from: usize, to: usize| {
        let mut map = TokenMap::new();
        for i in from..to {
            let block = store.block(i);
            memchr::for_each_token(block, |tok| map.upsert_within(block, tok, 1i64, add));
        }
        map
    };
    let merges: Vec<f64> = (0..reps.min(3))
        .map(|_| {
            let (mut a, b) = (half(0, hot_blocks / 2), half(hot_blocks / 2, hot_blocks));
            let t = ms(|| a.merge_from(b, add));
            black_box(a.len());
            t
        })
        .collect();
    m.push("arena.merge_ms", median(&merges), "ms");

    let pool = WorkerPool::new(threads);
    let (tx, rx) = mpsc::channel();
    let trips: Vec<f64> = (0..2_000)
        .map(|_| {
            let tx = tx.clone();
            ms(|| {
                pool.execute(move || tx.send(()).expect("the driver holds the receiver"));
                rx.recv().expect("the task sends once");
            })
        })
        .collect();
    m.push("pool.execute_roundtrip_us", median(&trips) * 1e3, "us");
    let blocks = 1 << 20;
    let progress = WorkProgress::new(blocks);
    let t = ms(|| {
        while let Some(i) = progress.claim() {
            black_box(i);
            progress.complete();
        }
    });
    m.push("pool.claim_ns", t * 1e6 / blocks as f64, "ns");
}

/// The first eight pool jobs (cycling a smaller pool): the riders of the
/// eight-wide probes, and the jobs their one-wide baselines are taken over.
fn eight<F: Family>(set: &Workset<F>) -> Vec<usize> {
    (0..8).map(|i| i % set.jobs.len()).collect()
}

/// `exec` and `shared`: one job and one merged batch with no server around
/// them. Every pool job runs once, as in the loops, and the median is
/// reported. Returns `exec.run_job_ms`.
pub fn exec_probes<F: Family>(
    set: &Workset<F>,
    threads: usize,
    reps: usize,
    m: &mut Metrics,
    c: &mut Tally,
) -> f64 {
    let store = set.store();
    let cfg = ExecConfig::try_new(threads, threads).expect("thread count is positive");
    let each: Vec<f64> = (0..set.jobs.len())
        .map(|i| {
            let t0 = Instant::now();
            let out = run_job(&set.jobs[i], &store, &cfg);
            let t = t0.elapsed().as_secs_f64() * 1e3;
            c.note(verify(Ok(out), set.expect[i], false));
            t
        })
        .collect();
    let run_job_ms = median(&each);
    m.push("exec.run_job_ms", run_job_ms, "ms");
    m.push("exec.map_gb_per_s", gb_per_s(store.total_bytes(), run_job_ms), "GB/s");

    let mut merged = |picks: &[usize]| {
        let jobs: Vec<&F::Job> = picks.iter().map(|&i| &set.jobs[i]).collect();
        let t0 = Instant::now();
        let outs = run_merged(&jobs, &store, &cfg);
        let t = t0.elapsed().as_secs_f64() * 1e3;
        outs.into_iter()
            .zip(picks)
            .for_each(|(out, &i)| c.note(verify(Ok(out), set.expect[i], false)));
        t
    };
    let riders = eight(set);
    let n1 = median(&riders.iter().map(|&i| merged(&[i])).collect::<Vec<_>>());
    let n8 = median(&(0..reps.min(3)).map(|_| merged(&riders)).collect::<Vec<_>>());
    m.push("shared.run_merged_ms_n1", n1, "ms");
    m.push("shared.run_merged_ms_n8", n8, "ms");
    m.push("shared.marginal_rider_ms", (n8 - n1) / 7.0, "ms");
    run_job_ms
}

/// Eight-rider revolutions timed on each probe server.
const RIDER_BATCHES: usize = 3;

/// `scan_server` timed from outside and `partition`: start, solo and
/// eight-rider revolutions, shutdown, on fresh idle servers.
///
/// A revolution is the fastest of its repetitions, one per server for a
/// solo job and [`RIDER_BATCHES`] per server for the eight riders; the solo revolution is
/// then the median over the pool's jobs, as in the loops. The fastest,
/// because a probe is the floor the loop's latency is read against, and on
/// this host a server can spend its whole short life with both scan workers
/// on one CPU, which doubles every revolution it serves.
pub fn server_probes<F: Family>(
    set: &Workset<F>,
    engine: Engine,
    reps: usize,
    run_job_ms: f64,
    m: &mut Metrics,
    c: &mut Tally,
) -> ServerProbe {
    let revolution = |server: &SharedScanServer<F::Job>, picks: &[usize], c: &mut Tally| {
        let t0 = Instant::now();
        let handles: Vec<_> = picks.iter().map(|&i| server.submit(set.jobs[i].clone())).collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
        let t = t0.elapsed().as_secs_f64() * 1e3;
        results.into_iter().zip(picks).for_each(|(r, &i)| c.note(verify(r, set.expect[i], false)));
        t
    };
    // One warm-up job, then every pool job alone: `fastest[i]` keeps job i's best.
    let solo_pool = |server: &SharedScanServer<F::Job>, fastest: &mut [f64], c: &mut Tally| {
        revolution(server, &[0], c);
        for (i, best) in fastest.iter_mut().enumerate() {
            *best = best.min(revolution(server, &[i], c));
        }
    };
    let riders = eight(set);
    let (mut start, mut stop) = (vec![], vec![]);
    let mut solo = vec![f64::INFINITY; set.jobs.len()];
    let mut riders8_ms = f64::INFINITY;
    let mut counters = ScanCounters::default();
    for _ in 0..reps.min(3) {
        let store = set.store();
        let blocks = store.num_blocks() as u64;
        let t0 = Instant::now();
        let server = SharedScanServer::with_config(store, server_config(engine, None));
        start.push(t0.elapsed().as_secs_f64() * 1e3);
        solo_pool(&server, &mut solo, c);
        for _ in 0..RIDER_BATCHES {
            riders8_ms = riders8_ms.min(revolution(&server, &riders, c));
        }
        counters.add(ScanCounters::read(
            &server,
            (1 + set.jobs.len() + RIDER_BATCHES * riders.len()) as u64,
            blocks,
        ));
        stop.push(ms(|| server.shutdown()));
    }
    let solo_ms = median(&solo);
    m.push("scan_server.start_ms", median(&start), "ms");
    m.push("scan_server.shutdown_ms", median(&stop), "ms");
    m.push("scan_server.solo_revolution_ms", solo_ms, "ms");
    m.push("scan_server.overhead_vs_exec_ms", solo_ms - run_job_ms, "ms");
    m.push("scan_server.riders8_revolution_ms", riders8_ms, "ms");
    m.push("scan_server.marginal_rider_ms", (riders8_ms - solo_ms) / 7.0, "ms");

    for (name, mode) in [("hash", PartitionMode::Hash), ("weighted", PartitionMode::weighted())] {
        let mut fastest = vec![f64::INFINITY; set.jobs.len()];
        for _ in 0..reps.min(2) {
            let mut cfg = server_config(engine, None);
            cfg.partition = mode;
            let server = SharedScanServer::with_config(set.store(), cfg);
            solo_pool(&server, &mut fastest, c);
            server.shutdown();
        }
        m.push(&format!("partition.{name}_revolution_ms"), median(&fastest), "ms");
    }
    ServerProbe { solo_ms, riders8_ms, counters }
}
