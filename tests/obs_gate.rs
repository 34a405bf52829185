//! Observability overhead gate: a full [`Obs`] (sharded metrics + ring
//! tracer) on the live shared-scan server must cost at most 5% wall time
//! over the same server with observability off.
//!
//! The *off* path (instrumented-but-disabled, one `Option` branch per
//! site) is covered by the `obs_overhead` Criterion bench; this test
//! gates the *on* path with a plain median comparison so CI can run it
//! in seconds. Timing on shared runners is noisy, so the gate first
//! calibrates: two off measurements must agree within 2% before the 5%
//! on/off comparison counts, and the whole measurement retries a few
//! times before failing. `#[ignore]`d by default — CI's obs-slo-smoke
//! job runs it with `--ignored`.

use s3_engine::{BlockStore, Obs, ServerConfig, SharedScanServer};
use s3_sim::SimRng;
use s3_workloads::jobs::PatternWordCount;
use s3_workloads::text::TextGen;
use std::time::Instant;

const JOBS: usize = 4;
const REPEATS: usize = 7;
const NOISE_BOUND: f64 = 0.02;
const ON_BOUND: f64 = 1.05;
const ATTEMPTS: usize = 4;

fn corpus() -> BlockStore {
    let gen = TextGen::new(10_000, 1.1);
    let text = gen.generate(&mut SimRng::seed_from_u64(31), 1 << 20);
    BlockStore::from_text(&text, 4 << 10)
}

fn run_workload(store: &BlockStore, obs: &Obs) -> f64 {
    let t0 = Instant::now();
    let server = SharedScanServer::with_config(
        store.clone(),
        ServerConfig { obs: obs.clone(), ..ServerConfig::new(2, 2) },
    );
    let handles: Vec<_> = (0..JOBS)
        .map(|i| {
            let p = format!("{}a", (b'b' + i as u8) as char);
            server.submit(PatternWordCount::prefix(p))
        })
        .collect();
    for h in handles {
        h.wait().expect("job completed");
    }
    server.shutdown();
    t0.elapsed().as_secs_f64() * 1e3
}

fn median(store: &BlockStore, on: bool) -> f64 {
    let mut samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let obs = if on { Obs::new() } else { Obs::off() };
            run_workload(store, &obs)
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

#[test]
#[ignore = "timing gate; run explicitly (CI obs-slo-smoke passes --ignored)"]
fn observed_server_overhead_is_within_five_percent() {
    let store = corpus();
    // Warm caches and lazy init on both paths before measuring.
    run_workload(&store, &Obs::off());
    run_workload(&store, &Obs::new());

    let mut last = String::new();
    for attempt in 1..=ATTEMPTS {
        let off_a = median(&store, false);
        let on = median(&store, true);
        let off_b = median(&store, false);
        let noise = (off_a - off_b).abs() / off_a.min(off_b);
        let off = off_a.min(off_b);
        let ratio = on / off;
        eprintln!(
            "obs_gate attempt {attempt}: off {off_a:.2}/{off_b:.2} ms (noise {:.1}%), \
             on {on:.2} ms, ratio {ratio:.3}",
            noise * 100.0
        );
        if noise > NOISE_BOUND {
            last = format!("harness noise {:.1}% exceeds {:.0}%", noise * 100.0, NOISE_BOUND * 100.0);
            continue;
        }
        if ratio <= ON_BOUND {
            return;
        }
        last = format!("obs-on ratio {ratio:.3} exceeds {ON_BOUND}");
    }
    panic!("obs overhead gate failed after {ATTEMPTS} attempts: {last}");
}
