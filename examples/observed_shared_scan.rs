//! Live metrics polling against an observed [`SharedScanServer`].
//!
//! A monitor thread polls the lock-free metrics registry every 50 ms while
//! jobs ride the shared scan — the gauges and counters it reads are the
//! same instruments the server's hot loops write, with no locks taken on
//! either side. After the workload drains, the engine's runtime trace is
//! written as a Perfetto-loadable Chrome trace.
//!
//! ```text
//! cargo run --release -p s3-bench --example observed_shared_scan
//! ```

use s3_engine::{BlockStore, Obs, ServerConfig, SharedScanServer};
use s3_obs::chrome::{engine_event_to_chrome, write_chrome_trace, ChromeEvent};
use s3_sim::SimRng;
use s3_workloads::jobs::PatternWordCount;
use s3_workloads::text::TextGen;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    println!("generating corpus...");
    let gen = TextGen::paper_like();
    let text = gen.generate(&mut SimRng::seed_from_u64(5), 16 << 20);
    let store = BlockStore::from_text(&text, 256 << 10);
    println!(
        "corpus: {:.0} MB in {} blocks; segments of 4 blocks\n",
        store.total_bytes() as f64 / (1 << 20) as f64,
        store.num_blocks()
    );

    let obs = Obs::new();
    let server = SharedScanServer::with_config(
        store,
        ServerConfig { obs: obs.clone(), ..ServerConfig::new(4, 4) },
    );

    // The monitor shares only the Obs handle with the server — reading a
    // snapshot aggregates the per-thread shards without stopping writers.
    let stop = Arc::new(AtomicBool::new(false));
    let monitor = {
        let obs = obs.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            println!(
                "{:>8} {:>8} {:>10} {:>10} {:>12} {:>10}",
                "t(ms)", "active", "segments", "jobs done", "map records", "fold hits"
            );
            let t0 = std::time::Instant::now();
            while !stop.load(Ordering::Relaxed) {
                let snap = obs.snapshot().expect("observed");
                println!(
                    "{:>8} {:>8} {:>10} {:>10} {:>12} {:>10}",
                    t0.elapsed().as_millis(),
                    snap.gauges.get("engine.active_jobs").copied().unwrap_or(0),
                    snap.counters.get("engine.segments_scanned").copied().unwrap_or(0),
                    snap.counters.get("engine.jobs_completed").copied().unwrap_or(0),
                    snap.counters.get("engine.map_records").copied().unwrap_or(0),
                    snap.counters.get("engine.combiner_fold_hits").copied().unwrap_or(0),
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    };

    // Ten jobs arriving ~30 ms apart, landing on the live revolution.
    let prefixes = ["ba", "ta", "da", "ma", "na", "pa", "ra", "sa", "va", "za"];
    let mut handles = Vec::new();
    for p in prefixes {
        handles.push(server.submit(PatternWordCount::prefix(p)));
        std::thread::sleep(Duration::from_millis(30));
    }
    for h in handles {
        h.wait().expect("job completed");
    }
    stop.store(true, Ordering::Relaxed);
    monitor.join().expect("monitor thread");
    server.shutdown();

    // Final rollup plus the trace for Perfetto.
    let core = obs.core().expect("observed");
    let snap = core.metrics.snapshot();
    if let Some(h) = snap.histograms.get("engine.admission_latency_us") {
        println!(
            "\nadmission latency: p50 {:.0} µs, p95 {:.0} µs ({} admissions)",
            h.p50, h.p95, h.count
        );
    }
    if let Some(h) = snap.histograms.get("engine.segment_cadence_us") {
        println!("segment cadence:   p50 {:.0} µs, p99 {:.0} µs", h.p50, h.p99);
    }
    let mut chrome = vec![ChromeEvent::process_name(1, "s3-engine")];
    chrome.extend(
        core.tracer
            .drain()
            .iter()
            .map(|e| engine_event_to_chrome(e, 1, "engine")),
    );
    let path = std::env::temp_dir().join("observed_shared_scan_trace.json");
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, &chrome).expect("serialize");
    std::fs::write(&path, buf).expect("write trace");
    println!(
        "trace: {} events -> {} (open in https://ui.perfetto.dev)",
        chrome.len(),
        path.display()
    );
}
