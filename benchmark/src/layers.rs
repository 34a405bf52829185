//! Per-layer metrics that come from a traced pass rather than a probe: the
//! engine's own telemetry, the benchmark's spans, and the service's counters.

use crate::driver::{Run, Sample};
use crate::report::{span_samples, Metrics, Round};
use crate::sched::Arrival;
use crate::stats::{quantile, sorted};
use crate::subject::{ServiceFacts, SERVICE_RATE};
use crate::workloads::TENANTS;
use crate::LATENCY_LIMIT_MS;
use s3_engine::QosClass;
use s3_obs::MetricsSnapshot;

/// Layer metrics read from the engine's telemetry, via `Obs::snapshot`.
/// Means, not medians: the histograms' buckets double, which is too coarse
/// to subtract a scan from a cadence, while sum and count are exact.
pub fn push_obs_metrics(snap: &MetricsSnapshot, m: &mut Metrics) {
    let hist = |name: &str| snap.histograms.get(&format!("engine.{name}"));
    let mean = |name: &str| hist(name).map_or(0.0, |h| h.mean());
    let scan = mean("segment_scan_us");
    let gap = (mean("segment_cadence_us") - scan).max(0.0);
    m.push("scan_server.segment_scan_us_mean", scan, "us");
    m.push("scan_server.segment_gap_us_mean", gap, "us");
    m.push("scan_server.admission_us_mean", mean("admission_latency_us"), "us");
    m.push("scan_server.shard_split_us_mean", mean("shard_split_us"), "us");
    m.push("scan_server.reduce_shard_us_mean", mean("reduce_shard_us"), "us");
    let p99 = hist("reduce_shard_us").map_or(0.0, |h| h.p99);
    m.push("scan_server.reduce_shard_us_p99", p99, "us");
    let jobs = snap.counter("engine.jobs_completed").max(1) as f64;
    let mapped = snap.counter("engine.map_records") as f64;
    let reduced = hist("reduce_shard_records").map_or(0, |h| h.sum) as f64;
    m.push("scan_server.map_records_per_job", mapped / jobs, "count");
    m.push("scan_server.reduce_records_per_job", reduced / jobs, "count");
}

/// What the benchmark's own spans say about the timed rounds of a pass.
/// `plan` gives each job's class on the service; a server has no classes
/// and no schedule, so its per-class latencies and lateness read 0.
pub fn push_loop_metrics(run: &Run, plan: Option<&[Arrival]>, m: &mut Metrics) {
    let timed: Vec<&Sample> = span_samples(run, 0, run.marks.len() - 1).collect();
    let of = |pick: &dyn Fn(&Sample) -> Option<f64>| -> Vec<f64> {
        sorted(&timed.iter().filter_map(|s| pick(s)).collect::<Vec<_>>())
    };
    let latency = |s: &Sample| s.ok.then(|| s.latency_ms());
    let class_p90 = |class: QosClass| {
        let of_class = |s: &Sample| plan.is_some_and(|p| p[s.seq].class == class);
        quantile(&of(&|s| latency(s).filter(|_| of_class(s))), 0.9)
    };
    let submit_us = of(&|s| Some(s.submit_call.as_secs_f64() * 1e6));
    let over = timed.iter().filter(|s| !s.ok || s.latency_ms() > LATENCY_LIMIT_MS);
    let over_share = over.count() as f64 / timed.len().max(1) as f64;
    m.push("service.submit_call_us_p50", quantile(&submit_us, 0.5), "us");
    m.push("service.latency_ms_p99", quantile(&of(&latency), 0.99), "ms");
    m.push("service.high_latency_ms_p90", class_p90(QosClass::High), "ms");
    m.push("service.low_latency_ms_p90", class_p90(QosClass::Low), "ms");
    m.push("service.max_outstanding", run.max_outstanding as f64, "count");
    m.push("service.over_limit_share", over_share, "ratio");
    m.push("service.gen_late_ms_p99", quantile(&of(&|s| Some(s.late_ms())), 0.99), "ms");
}

/// The admission-plane metrics only a `ScanService` has; 0 on a server.
pub fn push_service_metrics(facts: Option<&ServiceFacts>, m: &mut Metrics) {
    let [start_ms, shed, deferred, backlog] = facts.map_or([0.0; 4], |f| {
        let share = |n: u64| n as f64 / f.stats.submitted.max(1) as f64;
        [f.start_ms, share(f.stats.rejected), share(f.stats.deferred), f.backlog_end as f64]
    });
    m.push("service.start_ms", start_ms, "ms");
    m.push("service.shed_share", shed, "ratio");
    m.push("service.deferred_share", deferred, "ratio");
    m.push("service.backlog_end", backlog, "count");
}

/// The service's accounting, the width in flight, and the latency limit.
pub fn print_service(facts: &ServiceFacts, run: &Run, all: &Round) {
    let s = facts.stats;
    println!(
        "service: submitted {}, completed {}, rejected {}, expired {}, aborted {}, \
         quarantined {}, deferred {}; backlog at the last mark {}; most outstanding {}",
        s.submitted,
        s.completed,
        s.rejected,
        s.expired,
        s.aborted,
        s.quarantined,
        s.deferred,
        facts.backlog_end,
        run.max_outstanding
    );
    // Little's law on the busier tenant: arrival rate times mean time in the system.
    let busiest: Vec<f64> = span_samples(run, 0, run.marks.len() - 1)
        .filter(|x| facts.plan[x.seq].tenant == 0)
        .map(Sample::latency_ms)
        .collect();
    let mean_ms = busiest.iter().sum::<f64>() / busiest.len().max(1) as f64;
    println!(
        "tenant {}: mean latency {:.2} ms, mean width in flight {:.2} (Little's law)",
        TENANTS[0].0,
        mean_ms,
        busiest.len() as f64 / all.secs * mean_ms / 1e3
    );
    let p90 = all.percentile(90.0);
    let met = p90 <= LATENCY_LIMIT_MS && s.rejected == 0 && facts.backlog_end < SERVICE_RATE;
    println!(
        "latency limit {LATENCY_LIMIT_MS} ms at p90: {} (p90 {p90:.2} ms over all rounds)",
        if met { "met" } else { "MISSED" }
    );
}

/// The benchmark's spans, written out when the pass is over: a summary on
/// standard output, and every span as a JSON line in `spans-<workload>.jsonl`
/// beside the executable, which is in the build directory.
pub fn write_spans(workload: &str, run: &Run) {
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let submit = sorted(&run.samples.iter().map(|s| us(s.submit_call)).collect::<Vec<_>>());
    let wait = |s: &Sample| s.done - s.submitted - s.submit_call;
    let waits = sorted(&run.samples.iter().map(|s| us(wait(s))).collect::<Vec<_>>());
    println!(
        "spans: {} submit (p50 {:.1} us, max {:.1} us), {} wait (p50 {:.1} us, max {:.1} us)",
        submit.len(),
        quantile(&submit, 0.5),
        quantile(&submit, 1.0),
        waits.len(),
        quantile(&waits, 0.5),
        quantile(&waits, 1.0)
    );
    let mut out = String::new();
    for s in &run.samples {
        let (job, t0) = (s.seq, s.submitted.as_micros());
        let (t1, t2) = ((s.submitted + s.submit_call).as_micros(), s.done.as_micros());
        out += &format!(
            "{{\"name\": \"submit\", \"job\": {job}, \"start_us\": {t0}, \"end_us\": {t1}}}\n\
             {{\"name\": \"wait\", \"job\": {job}, \"start_us\": {t1}, \"end_us\": {t2}, \"ok\": {}}}\n",
            s.ok
        );
    }
    let written = std::env::current_exe().and_then(|exe| {
        let path = exe.with_file_name(format!("spans-{workload}.jsonl"));
        std::fs::write(&path, out).map(|()| path)
    });
    match written {
        Ok(path) => println!("spans written to {}", path.display()),
        Err(e) => println!("WARNING: could not write the spans: {e}"),
    }
}
