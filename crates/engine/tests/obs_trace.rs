//! Trace completeness and metrics/trace agreement for the observed engine.
//!
//! The telemetry contract: every submitted job reaches a terminal
//! `job_done` event, admission happens exactly once per job, the trace's
//! segment spans agree with the server's iteration counter, and the
//! metrics registry totals agree with the server's own counters.

use s3_engine::{BlockStore, JobShape, MapReduceJob, Obs, ServerConfig, SharedScanServer};
use s3_obs::chrome::{engine_event_to_chrome, validate_chrome_trace, write_chrome_trace, ChromeEvent};
use s3_obs::trace::{Event, Phase, NO_ID};

struct Count;
impl MapReduceJob for Count {
    type K = String;
    type V = i64;
    type Out = i64;
    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        for w in line.split_whitespace() {
            emit(w.into(), 1);
        }
    }
    fn combine(&self, _k: &String, v: Vec<i64>) -> Vec<i64> {
        vec![v.iter().sum()]
    }
    fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
        Some(v.iter().sum())
    }
    fn shape(&self) -> JobShape<'_> {
        JobShape::LineFold
    }
    fn combine_fold(&self, acc: &mut i64, next: i64) -> Option<i64> {
        *acc += next;
        None
    }
}

fn store() -> BlockStore {
    let text = "alpha beta alpha\nbeta gamma delta alpha\ngamma beta\n".repeat(1500);
    BlockStore::from_text(&text, 2048)
}

fn named<'a>(events: &'a [Event], name: &str) -> Vec<&'a Event> {
    events.iter().filter(|e| e.name == name).collect()
}

#[test]
fn every_submitted_job_reaches_a_terminal_event() {
    const JOBS: usize = 5;
    let obs = Obs::new();
    let server = SharedScanServer::with_config(
        store(),
        ServerConfig { obs: obs.clone(), ..ServerConfig::new(2, 3) },
    );
    let handles: Vec<_> = (0..JOBS).map(|_| server.submit(Count)).collect();
    for h in handles {
        h.wait().expect("job completed");
    }
    let iterations = server.iterations();
    let blocks_scanned = server.blocks_scanned();
    server.shutdown();

    let events = obs.core().expect("on").tracer.drain();
    assert_eq!(
        obs.core().expect("on").tracer.dropped(),
        0,
        "this workload must fit the rings"
    );

    // Every submit has exactly one admission and one terminal job_done,
    // carrying the same job id.
    let submits = named(&events, "submit");
    assert_eq!(submits.len(), JOBS);
    for s in &submits {
        let id = s.ids.job;
        assert_ne!(id, NO_ID);
        let admits: Vec<_> = named(&events, "admit")
            .into_iter()
            .filter(|e| e.ids.job == id)
            .collect();
        assert_eq!(admits.len(), 1, "job {id} admitted exactly once");
        let done: Vec<_> = named(&events, "job_done")
            .into_iter()
            .filter(|e| e.ids.job == id)
            .collect();
        assert_eq!(done.len(), 1, "job {id} reaches exactly one terminal event");
        assert!(
            done[0].ts_us >= s.ts_us,
            "terminal event follows submission"
        );
    }

    // Segment spans agree with the server's iteration counter, and every
    // span is well-formed. A segment span's ids carry the block range it
    // scanned — `seg` is the starting block, `n` the block count — so the
    // resize invariant in `s3-mapreduce::invariants` can re-derive the
    // partition; a scanned segment always covers at least one block.
    let segments = named(&events, "segment");
    assert_eq!(segments.len() as u64, iterations);
    for seg in &segments {
        assert_eq!(seg.ph, Phase::Span);
        assert_ne!(seg.ids.seg, NO_ID);
        assert!(seg.ids.n >= 1, "a scanned segment covers at least one block");
    }

    // Metrics totals agree with the server's own counters.
    let snap = obs.snapshot().expect("on");
    assert_eq!(snap.counters["engine.jobs_submitted"], JOBS as u64);
    assert_eq!(snap.counters["engine.jobs_completed"], JOBS as u64);
    assert_eq!(snap.counters["engine.segments_scanned"], iterations);
    assert_eq!(snap.counters["engine.blocks_scanned"], blocks_scanned);
    assert_eq!(snap.histograms["engine.admission_latency_us"].count, JOBS as u64);
    assert_eq!(snap.histograms["engine.job_latency_us"].count, JOBS as u64);
    assert!(snap.counters["engine.map_records"] > 0);
    assert!(
        snap.counters["engine.combiner_fold_hits"] > 0,
        "a fold-combiner wordcount folds repeats"
    );
    assert_eq!(snap.gauges["engine.active_jobs"], 0, "all jobs drained");

    // The server's named pools export panic counters; a healthy run has
    // zero panicked tasks and zero quarantined jobs.
    assert_eq!(snap.counter("pool.scan.tasks_panicked"), 0);
    assert_eq!(snap.counter("pool.reduce.tasks_panicked"), 0);
    assert_eq!(snap.counter("engine.jobs_quarantined"), 0);
    assert_eq!(snap.counter("engine.jobs_aborted"), 0);

    // The drained trace exports to a schema-valid Chrome trace.
    let mut chrome = vec![ChromeEvent::process_name(1, "s3-engine")];
    chrome.extend(events.iter().map(|e| engine_event_to_chrome(e, 1, "engine")));
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, &chrome).expect("serialize");
    let n = validate_chrome_trace(std::str::from_utf8(&buf).expect("utf8")).expect("valid");
    assert_eq!(n, chrome.len());
}

#[test]
fn unobserved_server_records_nothing_and_costs_no_instruments() {
    let obs = Obs::off();
    let server = SharedScanServer::with_config(
        store(),
        ServerConfig { obs: obs.clone(), ..ServerConfig::new(2, 2) },
    );
    server.submit(Count).wait().expect("job completed");
    server.shutdown();
    assert!(obs.snapshot().is_none(), "Obs::off has no registry");
}

#[test]
fn observed_batch_records_phase_spans_and_counters() {
    let obs = Obs::new();
    let pool = s3_engine::WorkerPool::new_observed(2, "t", &obs);
    let s = store();
    let out = s3_engine::run_merged_observed(
        &pool,
        &[&Count],
        &s,
        &s3_engine::ExecConfig {
            num_threads: 2,
            num_reducers: 4,
        },
        &obs,
    )
    .pop()
    .expect("one job in, one output out");
    let snap = obs.snapshot().expect("on");
    assert_eq!(snap.counters["engine.map_records"], out.stats.map_output_records);
    assert_eq!(snap.counters["engine.blocks_scanned"], out.stats.blocks_scanned);
    assert_eq!(snap.counters["engine.bytes_scanned"], out.stats.bytes_scanned);
    assert!(snap.counters["engine.shuffle_records"] <= out.stats.map_output_records);
    let events = obs.core().expect("on").tracer.drain();
    assert_eq!(named(&events, "map_phase").len(), 1);
    assert_eq!(named(&events, "reduce_phase").len(), 1);
}
