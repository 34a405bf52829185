//! Execution-trace invariants: structural properties of the schedule that
//! must hold for any scheduler, verified on full traces.

use s3_cluster::{ClusterTopology, NodeId, SlowdownSchedule};
use s3_core::{FifoScheduler, MRShareScheduler, S3Scheduler};
use s3_mapreduce::{
    job::requests_from_arrivals, simulate_traced, CostModel, EngineConfig, RunMetrics, Scheduler,
    Trace, TraceKind,
};
use s3_workloads::{per_node_file, wordcount_normal};

fn traced_run(scheduler: &mut dyn Scheduler, arrivals: &[f64]) -> (RunMetrics, Trace) {
    let cluster = ClusterTopology::paper_cluster();
    let dataset = per_node_file(&cluster, "trace", 1, 64); // 640 blocks
    let profile = wordcount_normal();
    let workload = requests_from_arrivals(&profile, dataset.file, arrivals);
    simulate_traced(
        &cluster,
        &SlowdownSchedule::none(),
        &dataset.dfs,
        &CostModel::default(),
        &workload,
        scheduler,
        &EngineConfig::default(),
        Some(Trace::new()),
    )
    .expect("traced run completes")
}

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(S3Scheduler::default()),
        Box::new(FifoScheduler::new()),
        Box::new(MRShareScheduler::mrs2(3)),
    ]
}

#[test]
fn map_intervals_never_overlap_on_a_slot() {
    // One map slot per node: intervals on each node must be disjoint.
    for mut s in schedulers() {
        let (m, trace) = traced_run(s.as_mut(), &[0.0, 20.0, 40.0]);
        for node_id in 0..40u32 {
            let mut iv = trace.map_intervals_on(NodeId(node_id));
            iv.sort_by_key(|&(s, _)| s);
            for w in iv.windows(2) {
                assert!(
                    w[0].1 <= w[1].0,
                    "{}: overlapping maps on node{node_id}: {:?}",
                    m.scheduler,
                    w
                );
            }
        }
    }
}

#[test]
fn trace_event_counts_are_balanced() {
    for mut s in schedulers() {
        let (m, trace) = traced_run(s.as_mut(), &[0.0, 20.0, 40.0]);
        let starts = trace.of_kind(TraceKind::MapStart).count();
        let ends = trace.of_kind(TraceKind::MapEnd).count();
        assert_eq!(starts, ends, "{}", m.scheduler);
        assert_eq!(starts as u64, m.blocks_read, "{}", m.scheduler);
        assert_eq!(trace.of_kind(TraceKind::JobSubmitted).count(), 3);
        assert_eq!(trace.of_kind(TraceKind::JobCompleted).count(), 3);
        let rstarts = trace.of_kind(TraceKind::ReduceStart).count();
        let rends = trace.of_kind(TraceKind::ReduceEnd).count();
        assert_eq!(rstarts, rends, "{}", m.scheduler);
    }
}

#[test]
fn completions_follow_all_of_a_jobs_work() {
    // A job's completion event must come after the last task that served it.
    for mut s in schedulers() {
        let (m, trace) = traced_run(s.as_mut(), &[0.0, 30.0]);
        for outcome in &m.outcomes {
            let last_task_end = trace
                .events()
                .iter()
                .filter(|e| {
                    matches!(e.kind, TraceKind::MapEnd | TraceKind::ReduceEnd)
                        && e.jobs.contains(&outcome.job)
                })
                .map(|e| e.at)
                .max()
                .expect("job ran tasks");
            assert!(
                outcome.completed >= last_task_end,
                "{}: job completed before its last task",
                m.scheduler
            );
        }
    }
}

#[test]
fn s3_keeps_the_cluster_busy_during_overlap() {
    // With two overlapping jobs, S3's map slots stay well utilized on
    // every node over the run.
    let (_, trace) = traced_run(&mut S3Scheduler::default(), &[0.0, 10.0]);
    let mut total = 0.0;
    for node_id in 0..40u32 {
        total += trace.map_utilization_of(NodeId(node_id));
    }
    let avg = total / 40.0;
    assert!(avg > 0.5, "average map utilization too low: {avg:.2}");
}

#[test]
fn shared_tasks_carry_every_merged_job() {
    // Under S3 with two fully-overlapping jobs, some map tasks must list
    // both jobs (the merged sub-jobs), and those tasks dominate.
    let (m, trace) = traced_run(&mut S3Scheduler::default(), &[0.0, 5.0]);
    let shared = trace
        .of_kind(TraceKind::MapStart)
        .filter(|e| e.jobs.len() == 2)
        .count();
    let solo = trace
        .of_kind(TraceKind::MapStart)
        .filter(|e| e.jobs.len() == 1)
        .count();
    assert!(shared > 0, "no shared tasks recorded");
    assert!(
        shared > solo,
        "sharing should dominate: {shared} shared vs {solo} solo ({})",
        m.scheduler
    );
}

#[test]
fn s3_runs_one_merged_subjob_map_phase_at_a_time() {
    // Partial job initialization: per scan, the next merged sub-job's map
    // phase starts only after the current one's maps all finished. In the
    // trace: order batches by their first MapStart; then every batch's
    // first MapStart must be at or after the previous batch's last MapEnd.
    use std::collections::BTreeMap;
    let (_, trace) = traced_run(&mut S3Scheduler::default(), &[0.0, 15.0, 30.0]);
    let mut first_start: BTreeMap<u64, s3_sim::SimTime> = BTreeMap::new();
    let mut last_end: BTreeMap<u64, s3_sim::SimTime> = BTreeMap::new();
    for e in trace.events() {
        let Some(batch) = e.batch else { continue };
        match e.kind {
            TraceKind::MapStart => {
                first_start.entry(batch.0).or_insert(e.at);
            }
            TraceKind::MapEnd => {
                last_end.insert(batch.0, e.at);
            }
            _ => {}
        }
    }
    let mut ordered: Vec<(u64, s3_sim::SimTime)> = first_start.iter().map(|(&b, &t)| (b, t)).collect();
    ordered.sort_by_key(|&(_, t)| t);
    assert!(ordered.len() > 2, "expected several sub-jobs");
    for w in ordered.windows(2) {
        let (prev_batch, _) = w[0];
        let (next_batch, next_first) = w[1];
        let prev_last = last_end[&prev_batch];
        assert!(
            next_first >= prev_last,
            "batch {next_batch} maps started at {next_first} before batch {prev_batch} finished at {prev_last}"
        );
    }
}

#[test]
fn timeline_renders_at_cluster_scale() {
    let (_, trace) = traced_run(&mut S3Scheduler::default(), &[0.0, 20.0]);
    let nodes: Vec<NodeId> = (0..40).map(NodeId).collect();
    let s = trace.render_timeline(&nodes, 80);
    assert_eq!(s.lines().count(), 41); // header + one row per node
    assert!(s.contains('M'));
}

mod engine_journal {
    //! Journal invariants on a *live* engine trace: the per-job flight
    //! recorder must reconstruct a well-formed timeline for every job a
    //! real observed [`SharedScanServer`] run produced — exactly one
    //! admit, exactly one terminal, segment slices covering the job's
    //! full revolution, and an exact latency decomposition.

    use s3_engine::{BlockStore, Obs, ServerConfig, SharedScanServer};
    use s3_obs::journal::{JobJournal, Outcome};
    use s3_sim::SimRng;
    use s3_workloads::jobs::PatternWordCount;
    use s3_workloads::text::TextGen;

    const JOBS: usize = 4;

    fn observed_run() -> (JobJournal, u64) {
        let gen = TextGen::new(10_000, 1.1);
        let text = gen.generate(&mut SimRng::seed_from_u64(47), 256 << 10);
        let store = BlockStore::from_text(&text, 4 << 10);
        let blocks = store.num_blocks() as u64;

        let obs = Obs::new();
        let server = SharedScanServer::with_config(
            store,
            ServerConfig { obs: obs.clone(), ..ServerConfig::new(2, 2) },
        );
        let handles: Vec<_> = (0..JOBS)
            .map(|i| {
                let p = format!("{}a", (b'b' + i as u8) as char);
                server.submit(PatternWordCount::prefix(p))
            })
            .collect();
        // A probe submitted mid-revolution exercises late admission.
        while server.iterations() < 2 {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let probe = server.submit(PatternWordCount::prefix("qa"));
        for h in handles {
            h.wait().expect("job completed");
        }
        probe.wait().expect("probe completed");
        server.shutdown();

        let core = obs.core().expect("Obs::new is on");
        let mut journal = JobJournal::from_events(&core.tracer.drain());
        journal.dropped_events = core.tracer.dropped();
        assert_eq!(journal.dropped_events, 0, "test workload fits the ring");
        (journal, blocks)
    }

    #[test]
    fn live_journal_has_one_admit_one_terminal_and_full_coverage_per_job() {
        let (journal, blocks) = observed_run();
        journal.validate().expect("journal invariants hold");
        assert_eq!(journal.jobs.len(), JOBS + 1, "every submitted job has a record");
        for j in &journal.jobs {
            assert_eq!(j.outcome, Outcome::Done, "job {}", j.id);
            assert_eq!(j.admit_events, 1, "job {}", j.id);
            assert_eq!(j.terminal_events, 1, "job {}", j.id);
            // One full revolution: the slices must cover the whole store,
            // and agree with what the engine itself reported at job_done.
            assert_eq!(j.blocks_covered, blocks, "job {}", j.id);
            assert_eq!(j.blocks_reported, Some(blocks), "job {}", j.id);
            let sliced: u64 = j.segments.iter().map(|s| s.blocks_for_job).sum();
            assert_eq!(sliced, blocks, "job {}", j.id);
            assert_eq!(
                j.queue_us + j.scan_us + j.reduce_us,
                j.latency_us,
                "job {}: decomposition is exact",
                j.id
            );
            assert!(!j.reduce_shards.is_empty(), "job {} reduced", j.id);
        }
    }

    #[test]
    fn live_journal_renders_as_schema_valid_chrome_tracks() {
        let (journal, _) = observed_run();
        let chrome = journal.to_chrome_events(2);
        let mut buf = Vec::new();
        s3_obs::chrome::write_chrome_trace(&mut buf, &chrome).expect("serialize");
        let text = std::str::from_utf8(&buf).expect("utf8");
        let n = s3_obs::chrome::validate_chrome_trace(text).expect("schema-valid");
        assert_eq!(n, chrome.len());
        for j in &journal.jobs {
            assert!(text.contains(&format!("\"job {}\"", j.id)), "track for job {}", j.id);
        }
    }
}

#[test]
fn converted_sim_trace_is_complete_and_schema_valid() {
    // Completeness through the shared s3-obs converter: every MapStart
    // pairs into a closed span (MapEnd or MapFailed — no dangling starts),
    // every submitted job reaches its terminal JobCompleted instant, and
    // the exported file passes the Chrome trace-event schema check.
    for mut s in schedulers() {
        let (m, trace) = traced_run(s.as_mut(), &[0.0, 20.0, 40.0]);
        let starts = trace.of_kind(TraceKind::MapStart).count()
            + trace.of_kind(TraceKind::ReduceStart).count();
        let events = trace.to_obs_events();
        let spans = events
            .iter()
            .filter(|e| {
                matches!(e.name, "map" | "map_failed" | "reduce" | "reduce_failed")
            })
            .count();
        assert_eq!(spans, starts, "{}: every task start closes a span", m.scheduler);
        let submitted = events.iter().filter(|e| e.name == "job_submitted").count();
        let completed = events.iter().filter(|e| e.name == "job_completed").count();
        assert_eq!(submitted, 3, "{}", m.scheduler);
        assert_eq!(completed, submitted, "{}: every job reaches a terminal event", m.scheduler);

        let chrome = trace.to_chrome_events(1);
        let mut buf = Vec::new();
        s3_obs::chrome::write_chrome_trace(&mut buf, &chrome).expect("serialize");
        let n = s3_obs::chrome::validate_chrome_trace(std::str::from_utf8(&buf).expect("utf8"))
            .expect("schema-valid");
        assert_eq!(n, chrome.len(), "{}", m.scheduler);
    }
}
