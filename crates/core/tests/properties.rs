//! Property-based tests of the schedulers: for random arrival patterns and
//! file geometries, every scheduler completes every job, every job logically
//! scans the whole file exactly once, and S³ never scans more than FIFO.

use proptest::prelude::*;
use s3_cluster::{ClusterTopology, SlowdownSchedule};
use s3_core::{FifoScheduler, MRShareScheduler, S3Config, S3Scheduler, SubJobSizing};
use s3_mapreduce::{
    job::requests_from_arrivals, simulate, simulate_traced, CostModel, EngineConfig,
    InvariantChecker, RunMetrics, Scheduler, Trace,
};
use s3_workloads::wordcount_normal;

fn run(
    scheduler: &mut dyn Scheduler,
    blocks: u64,
    block_mb: u64,
    arrivals: &[f64],
    seed: u64,
) -> RunMetrics {
    let cluster = ClusterTopology::paper_cluster();
    let mut dfs = s3_dfs::Dfs::new();
    let file = dfs
        .create_file(
            &cluster,
            "p",
            blocks * block_mb * s3_dfs::MB,
            block_mb * s3_dfs::MB,
            1,
            &mut s3_dfs::RoundRobinPlacement::default(),
        )
        .expect("create file");
    let workload = requests_from_arrivals(&wordcount_normal(), file, arrivals);
    simulate(
        &cluster,
        &SlowdownSchedule::none(),
        &dfs,
        &CostModel::default(),
        &workload,
        scheduler,
        &EngineConfig {
            seed,
            ..EngineConfig::default()
        },
    )
    .expect("scheduler must not stall")
}

proptest! {
    // Full simulations are not free; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// S³ invariant: for any arrival pattern and geometry, every job's
    /// logical scan volume equals the file size exactly once — no block
    /// skipped, none rescanned — and all jobs complete.
    #[test]
    fn s3_covers_every_block_exactly_once_per_job(
        blocks in 41u64..300,
        arrivals in prop::collection::vec(0.0f64..600.0, 1..6),
        waves in 1u32..8,
        seed in any::<u64>(),
    ) {
        let mut sched = S3Scheduler::new(S3Config {
            sizing: SubJobSizing::Waves(waves),
            ..S3Config::default()
        });
        let m = run(&mut sched, blocks, 64, &arrivals, seed);
        prop_assert_eq!(m.outcomes.len(), arrivals.len());
        let file_mb = (blocks * 64) as f64;
        let expected = arrivals.len() as f64 * file_mb;
        prop_assert!(
            (m.logical_mb_scanned - expected).abs() < 1e-6,
            "scanned {} expected {}", m.logical_mb_scanned, expected
        );
        // Physical reads never exceed one scan per job and never fall
        // below one scan total.
        prop_assert!(m.mb_read <= expected + 1e-6);
        prop_assert!(m.mb_read >= file_mb - 1e-6);
    }

    /// All schedulers complete all jobs and respect the same logical-scan
    /// accounting; sharing schedulers never read more than FIFO.
    #[test]
    fn schedulers_agree_on_work_accounting(
        blocks in 41u64..200,
        arrivals in prop::collection::vec(0.0f64..400.0, 2..5),
        seed in any::<u64>(),
    ) {
        let n = arrivals.len();
        let fifo = run(&mut FifoScheduler::new(), blocks, 64, &arrivals, seed);
        let file_mb = (blocks * 64) as f64;
        prop_assert!((fifo.mb_read - n as f64 * file_mb).abs() < 1e-6, "FIFO never shares");

        let mut others: Vec<Box<dyn Scheduler>> = vec![
            Box::new(S3Scheduler::default()),
            Box::new(MRShareScheduler::mrs1(n)),
            Box::new(MRShareScheduler::mrs3(n)),
        ];
        for s in &mut others {
            let m = run(s.as_mut(), blocks, 64, &arrivals, seed);
            prop_assert_eq!(m.outcomes.len(), n, "{}", m.scheduler);
            prop_assert!(
                (m.logical_mb_scanned - n as f64 * file_mb).abs() < 1e-6,
                "{}: logical volume", m.scheduler
            );
            prop_assert!(m.blocks_read <= fifo.blocks_read, "{}", m.scheduler);
            // Completions never precede submissions.
            for o in &m.outcomes {
                prop_assert!(o.completed >= o.submitted);
            }
        }
    }

    /// MRShare single-batch: all jobs complete at the same instant, after
    /// the last arrival.
    #[test]
    fn mrs1_completes_jobs_together(
        blocks in 41u64..150,
        arrivals in prop::collection::vec(0.0f64..300.0, 2..5),
        seed in any::<u64>(),
    ) {
        let n = arrivals.len();
        let m = run(&mut MRShareScheduler::mrs1(n), blocks, 64, &arrivals, seed);
        let first = m.outcomes[0].completed;
        for o in &m.outcomes {
            prop_assert_eq!(o.completed, first);
        }
        let last_arrival = m.outcomes.iter().map(|o| o.submitted).max().unwrap();
        prop_assert!(first > last_arrival);
        // Exactly one scan of the file.
        prop_assert_eq!(m.blocks_read, blocks);
    }

    /// Priority-aware S³: for any mix of priorities and any width cap,
    /// every job completes and still scans the whole file exactly once
    /// (deferral only reorders segments, never drops or repeats them).
    #[test]
    fn priority_s3_preserves_coverage(
        blocks in 80u64..250,
        priorities in prop::collection::vec(0u8..3, 2..6),
        cap in 0u32..4,
        gap in 1u32..16,
        seed in any::<u64>(),
    ) {
        use s3_core::PriorityPolicy;
        use s3_mapreduce::job::requests_with_priorities;
        use s3_mapreduce::Priority;

        let cluster = ClusterTopology::paper_cluster();
        let mut dfs = s3_dfs::Dfs::new();
        let file = dfs
            .create_file(
                &cluster,
                "pp",
                blocks * 64 * s3_dfs::MB,
                64 * s3_dfs::MB,
                1,
                &mut s3_dfs::RoundRobinPlacement::default(),
            )
            .expect("create file");
        let spec: Vec<(f64, Priority)> = priorities
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let prio = match p {
                    0 => Priority::Low,
                    1 => Priority::Normal,
                    _ => Priority::High,
                };
                (f64::from(gap) * i as f64, prio)
            })
            .collect();
        let workload = requests_with_priorities(&wordcount_normal(), file, &spec);
        let mut sched = S3Scheduler::new(S3Config {
            // Segments of one wave, so a revolution spans several sub-jobs
            // and a job can be left out after it has started.
            sizing: SubJobSizing::FixedBlocks(40),
            priority_policy: Some(PriorityPolicy {
                low_priority_width_cap: cap,
            }),
            ..S3Config::default()
        });
        let config = EngineConfig {
            seed,
            ..EngineConfig::default()
        };
        let (m, trace) = simulate_traced(
            &cluster,
            &SlowdownSchedule::none(),
            &dfs,
            &CostModel::default(),
            &workload,
            &mut sched,
            &config,
            Some(Trace::new()),
        )
        .expect("priority runs must not stall");
        prop_assert_eq!(m.outcomes.len(), spec.len());
        // Block by block, not the MB total: a block scanned twice and
        // another never leave the total unchanged.
        let violations = InvariantChecker {
            cluster: &cluster,
            dfs: &dfs,
            workload: &workload,
            failures: &config.failures,
            speculation: false,
        }
        .check(&trace);
        prop_assert!(violations.is_empty(), "cap {cap}: {:?}", &violations[..violations.len().min(3)]);
    }

    /// FIFO responses are non-decreasing in submission order whenever the
    /// queue is continuously backlogged (arrivals inside one job length).
    #[test]
    fn fifo_backlog_responses_ramp(
        blocks in 80u64..160,
        n in 3usize..6,
        seed in any::<u64>(),
    ) {
        let arrivals: Vec<f64> = (0..n).map(|i| i as f64 * 2.0).collect();
        let m = run(&mut FifoScheduler::new(), blocks, 64, &arrivals, seed);
        let responses: Vec<f64> = m.outcomes.iter().map(|o| o.response().as_secs_f64()).collect();
        for w in responses.windows(2) {
            prop_assert!(w[1] > w[0], "responses must ramp: {responses:?}");
        }
    }
}
