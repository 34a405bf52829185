//! `s3trace` — capture, convert, and validate engine telemetry.
//!
//! Three modes:
//!
//! - `s3trace engine [--quick] [--out-dir DIR]` — run an observed
//!   [`SharedScanServer`] workload, write its runtime trace as a
//!   Perfetto-loadable Chrome trace (`TRACE_engine.json`, with per-job
//!   journal tracks beside the server-centric view), a metrics snapshot
//!   (`METRICS_engine.json`), and the per-job flight recorder
//!   (`JOURNAL_engine.json`), and print a per-segment timeline summary:
//!   cadence p50/p95/p99, segment scan times, admission latency, pool
//!   idle fraction, and the ring-buffer drop count. A trace that lost
//!   events to ring overwrite carries a `trace_truncated` marker event.
//! - `s3trace sim SCENARIO.json [--out-dir DIR]` — run a simulator
//!   scenario and export its trace through the **same** Chrome converter
//!   (`TRACE_sim.json`), one process per scheduler.
//! - `s3trace validate FILE [--strict]` — check a file against the Chrome
//!   trace-event schema, or (for `{…}` files carrying the journal schema)
//!   against the journal invariants (CI's trace-smoke job runs this on
//!   what `engine` emitted). Truncated inputs — a `trace_truncated`
//!   marker or non-zero `dropped_events` — warn; `--strict` turns the
//!   warning into a non-zero exit.
//!
//! ```text
//! cargo run --release -p s3-bench --bin s3trace -- engine --quick
//! ```

use s3_bench::scenario::ScenarioSpec;
use s3_engine::{Obs, ServerConfig, SharedScanServer};
use s3_obs::chrome::{engine_event_to_chrome, validate_chrome_trace, write_chrome_trace, ChromeEvent};
use s3_obs::{HistogramSnapshot, JobJournal};
use s3_sim::SimRng;
use s3_workloads::jobs::PatternWordCount;
use s3_workloads::text::TextGen;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const BLOCK_BYTES: usize = 4 << 10;
const THREADS: usize = 2;
const SHARED_JOBS: usize = 4;
const BLOCKS_PER_SEGMENT: usize = 2;

fn fail(msg: &str) -> ! {
    eprintln!("s3trace: {msg}");
    eprintln!("usage: s3trace [engine [--quick] [--out-dir DIR] | sim SCENARIO.json [--out-dir DIR] | validate FILE [--strict]]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("engine");
    match mode {
        "engine" => run_engine(&args[1..]),
        "sim" => run_sim(&args[1..]),
        "validate" => {
            let mut path = None;
            let mut strict = false;
            for a in &args[1..] {
                match a.as_str() {
                    "--strict" => strict = true,
                    other if path.is_none() => path = Some(other.to_string()),
                    other => fail(&format!("unexpected argument {other:?}")),
                }
            }
            let path = path.unwrap_or_else(|| fail("validate needs a file"));
            run_validate(Path::new(&path), strict);
        }
        other => fail(&format!("unknown mode {other:?}")),
    }
}

fn parse_out_dir(args: &[String]) -> (PathBuf, bool) {
    let mut out_dir = PathBuf::from(".");
    let mut quick = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out-dir" => {
                out_dir = PathBuf::from(it.next().unwrap_or_else(|| fail("--out-dir needs a path")));
                std::fs::create_dir_all(&out_dir)
                    .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", out_dir.display())));
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    (out_dir, quick)
}

fn pctls(h: &HistogramSnapshot) -> String {
    format!(
        "p50 {:>8.0} µs   p95 {:>8.0} µs   p99 {:>8.0} µs   max {:>8} µs   (n={})",
        h.p50, h.p95, h.p99, h.max, h.count
    )
}

/// Run the observed shared-scan workload and emit trace + metrics.
fn run_engine(args: &[String]) {
    let (out_dir, quick) = parse_out_dir(args);
    let corpus_bytes = if quick { 256 << 10 } else { 2 << 20 };

    eprintln!("s3trace: building {} KiB corpus...", corpus_bytes >> 10);
    let gen = TextGen::new(10_000, 1.1);
    let text = gen.generate(&mut SimRng::seed_from_u64(31), corpus_bytes);
    let store = s3_engine::BlockStore::from_text(&text, BLOCK_BYTES);

    let obs = Obs::new();
    let server = SharedScanServer::with_config(
        store.clone(),
        ServerConfig { obs: obs.clone(), ..ServerConfig::new(BLOCKS_PER_SEGMENT, THREADS) },
    );

    eprintln!(
        "s3trace: {} blocks, {} segments, {SHARED_JOBS} jobs + 1 late probe, {THREADS} threads",
        store.num_blocks(),
        server.num_segments()
    );
    let wall_t0 = Instant::now();
    let handles: Vec<_> = (0..SHARED_JOBS)
        .map(|i| {
            let p = format!("{}a", (b'b' + i as u8) as char);
            server.submit(PatternWordCount::prefix(p))
        })
        .collect();
    // A probe submitted onto the live revolution exercises admission.
    while server.iterations() < 2 {
        std::thread::sleep(Duration::from_micros(200));
    }
    let probe = server.submit(PatternWordCount::prefix("qa"));
    for h in handles {
        h.wait().expect("job completed");
    }
    probe.wait().expect("job completed");
    let wall_us = wall_t0.elapsed().as_micros() as u64;
    server.shutdown();

    let core = obs.core().expect("Obs::new is on");
    let snapshot = core.metrics.snapshot();
    let events = core.tracer.drain();
    let dropped = core.tracer.dropped();

    // ---- per-job flight recorder ----
    let mut journal = JobJournal::from_events(&events);
    journal.dropped_events = dropped;
    journal.validate().expect("journal invariants hold");
    let journal_path = out_dir.join("JOURNAL_engine.json");
    let journal_text = serde_json::to_string_pretty(&journal).expect("journal serializes");
    std::fs::write(&journal_path, journal_text + "\n").expect("write journal");

    // ---- export ----
    let mut chrome = vec![ChromeEvent::process_name(1, "s3-engine")];
    chrome.extend(events.iter().map(|e| engine_event_to_chrome(e, 1, "engine")));
    // The journal's per-job tracks load as a second process beside the
    // server-centric view.
    chrome.extend(journal.to_chrome_events(2));
    if dropped > 0 {
        // Downstream consumers (and `validate --strict`) can see the
        // truncation without the recorder in hand.
        chrome.push(ChromeEvent {
            name: "trace_truncated".to_string(),
            cat: "meta".to_string(),
            ph: 'i',
            ts: 0.0,
            dur: None,
            pid: 1,
            tid: 0,
            args: vec![("dropped".to_string(), serde_json::Value::from(dropped))],
        });
    }
    let trace_path = out_dir.join("TRACE_engine.json");
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, &chrome).expect("serialize trace");
    let trace_text = String::from_utf8(buf).expect("trace is UTF-8");
    let n = validate_chrome_trace(&trace_text).expect("emitted trace validates");
    std::fs::write(&trace_path, &trace_text).expect("write trace");

    let metrics_path = out_dir.join("METRICS_engine.json");
    let metrics_text = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    std::fs::write(&metrics_path, metrics_text + "\n").expect("write metrics");

    // ---- per-segment timeline summary ----
    let segments = snapshot
        .counters
        .get("engine.segments_scanned")
        .copied()
        .unwrap_or(0);
    println!("== s3trace: engine telemetry summary ==");
    println!(
        "segments scanned      {segments}   (blocks {}, bytes {})",
        snapshot.counters.get("engine.blocks_scanned").copied().unwrap_or(0),
        snapshot.counters.get("engine.bytes_scanned").copied().unwrap_or(0),
    );
    for (label, name) in [
        ("segment cadence", "engine.segment_cadence_us"),
        ("segment scan time", "engine.segment_scan_us"),
        ("admission latency", "engine.admission_latency_us"),
        ("job latency", "engine.job_latency_us"),
        ("reduce shard time", "engine.reduce_shard_us"),
    ] {
        if let Some(h) = snapshot.histograms.get(name) {
            println!("{label:<21} {}", pctls(h));
        }
    }
    // Pool idle: busy worker-µs over wall-µs × workers, per pool.
    for pool in ["scan", "reduce"] {
        let busy = snapshot
            .counters
            .get(&format!("pool.{pool}.busy_us"))
            .copied()
            .unwrap_or(0);
        let capacity = wall_us * THREADS as u64;
        let idle = 100.0 * (1.0 - busy as f64 / capacity as f64).max(0.0);
        println!(
            "{pool} pool idle        {idle:>6.1} %   ({busy} busy µs of {capacity} worker-µs)",
        );
    }
    println!(
        "combiner fold hits    {}   of {} map records",
        snapshot.counters.get("engine.combiner_fold_hits").copied().unwrap_or(0),
        snapshot.counters.get("engine.map_records").copied().unwrap_or(0),
    );
    println!("ring dropped          {dropped} events");
    if dropped > 0 {
        println!("NOTE: ring overflow truncated the trace (raise trace capacity)");
    }
    println!(
        "wrote {} ({n} events), {} ({} jobs), and {}",
        trace_path.display(),
        journal_path.display(),
        journal.jobs.len(),
        metrics_path.display()
    );
    println!("open the trace at https://ui.perfetto.dev or chrome://tracing");
}

/// Run a simulator scenario and export its trace via the shared converter.
fn run_sim(args: &[String]) {
    let path = args.first().unwrap_or_else(|| fail("sim needs a scenario file"));
    let (out_dir, _quick) = parse_out_dir(&args[1..]);
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let spec: ScenarioSpec =
        serde_json::from_str(&text).unwrap_or_else(|e| fail(&format!("bad scenario: {e}")));
    let runs = spec
        .run()
        .unwrap_or_else(|e| fail(&format!("scenario failed: {e}")));

    let mut chrome = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let pid = i as u64 + 1;
        chrome.extend(run.trace.to_chrome_events(pid));
        if !run.violations.is_empty() {
            eprintln!(
                "s3trace: WARNING: scheduler {} trace has {} invariant violations",
                pid,
                run.violations.len()
            );
        }
    }
    let trace_path = out_dir.join("TRACE_sim.json");
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, &chrome).expect("serialize trace");
    let trace_text = String::from_utf8(buf).expect("trace is UTF-8");
    let n = validate_chrome_trace(&trace_text).expect("emitted trace validates");
    std::fs::write(&trace_path, &trace_text).expect("write trace");
    println!(
        "wrote {} ({n} events from {} scheduler run(s))",
        trace_path.display(),
        runs.len()
    );
}

/// Validate an existing file: journal JSON (`{…}` with the journal
/// schema) against the journal invariants, anything else against the
/// Chrome trace-event schema. Truncation — `dropped_events > 0` in a
/// journal, or a `trace_truncated` marker in a trace — warns, and fails
/// the run under `--strict`.
fn run_validate(path: &Path, strict: bool) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let truncated = if text.trim_start().starts_with('{') {
        let journal: JobJournal = serde_json::from_str(&text)
            .unwrap_or_else(|e| fail(&format!("{}: not a journal: {e}", path.display())));
        if let Err(e) = journal.validate() {
            eprintln!("{}: INVALID journal: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "{}: valid job journal, {} jobs, {} dropped events",
            path.display(),
            journal.jobs.len(),
            journal.dropped_events
        );
        journal.dropped_events > 0
    } else {
        match validate_chrome_trace(&text) {
            Ok(n) => println!("{}: valid Chrome trace, {n} events", path.display()),
            Err(e) => {
                eprintln!("{}: INVALID trace: {e}", path.display());
                std::process::exit(1);
            }
        }
        text.contains("\"trace_truncated\"")
    };
    if truncated {
        eprintln!(
            "{}: WARNING: events were overwritten in the ring buffer; timelines may be incomplete",
            path.display()
        );
        if strict {
            std::process::exit(1);
        }
    }
}
