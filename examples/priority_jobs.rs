//! Priority-aware S³ (the paper's future-work extension): a latency-
//! sensitive job arrives while nine background jobs saturate the shared
//! scan. Baseline S³ merges everyone; priority-aware S³ caps how many
//! low-priority jobs ride each sub-job, trimming the high-priority job's
//! waves.
//!
//! ```text
//! cargo run --release -p s3-bench --example priority_jobs
//! ```

use s3_cluster::{ClusterTopology, SlowdownSchedule};
use s3_core::{PriorityPolicy, S3Config, S3Scheduler};
use s3_mapreduce::job::requests_with_priorities;
use s3_mapreduce::{simulate, CostModel, EngineConfig, Priority};
use s3_workloads::{paper_wordcount_file, wordcount_normal};

fn main() {
    let cluster = ClusterTopology::paper_cluster();
    let dataset = paper_wordcount_file(&cluster, 64);
    let profile = wordcount_normal();

    // Nine background (low-priority) jobs trickling in, then one urgent job.
    let mut spec: Vec<(f64, Priority)> =
        (0..9).map(|i| (i as f64 * 10.0, Priority::Low)).collect();
    spec.push((95.0, Priority::High));
    let workload = requests_with_priorities(&profile, dataset.file, &spec);
    let high_id = workload
        .iter()
        .find(|r| r.priority == Priority::High)
        .expect("high-priority job present")
        .id;

    println!("nine low-priority wordcount jobs + one high-priority job at t=95s\n");
    println!(
        "{:<26} {:>12} {:>10} {:>10}",
        "configuration", "high resp(s)", "TET(s)", "ART(s)"
    );

    for (label, config) in [
        ("baseline S3 (oblivious)", S3Config::default()),
        (
            "priority-aware, cap 3",
            S3Config {
                priority_policy: Some(PriorityPolicy {
                    low_priority_width_cap: 3,
                }),
                ..S3Config::default()
            },
        ),
        (
            "priority-aware, cap 1",
            S3Config {
                priority_policy: Some(PriorityPolicy {
                    low_priority_width_cap: 1,
                }),
                ..S3Config::default()
            },
        ),
    ] {
        let m = simulate(
            &cluster,
            &SlowdownSchedule::none(),
            &dataset.dfs,
            &CostModel::default(),
            &workload,
            &mut S3Scheduler::new(config),
            &EngineConfig::default(),
        )
        .expect("simulation completes");
        let high = m
            .outcomes
            .iter()
            .find(|o| o.job == high_id)
            .expect("high job completed")
            .response()
            .as_secs_f64();
        println!(
            "{:<26} {:>12.1} {:>10.1} {:>10.1}",
            label,
            high,
            m.tet().as_secs_f64(),
            m.art().as_secs_f64()
        );
    }

    println!("\ntighter caps speed the urgent job; a deferred low-priority job starts");
    println!("its revolution later, and once started it rides every segment, so every");
    println!("job still reads each block exactly once.");
}
