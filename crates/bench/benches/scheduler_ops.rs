//! Micro-benchmarks of scheduler-side operations: batch construction and
//! locality-aware map handout — the per-heartbeat costs a real JobTracker
//! plugin would pay.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use s3_cluster::{ClusterTopology, NodeId};
use s3_dfs::{BlockId, Dfs, RoundRobinPlacement, MB};
use s3_mapreduce::job::{requests_from_arrivals, JobProfile, JobTable};
use s3_mapreduce::{Batch, BatchKey};
use s3_sim::SimTime;
use std::sync::Arc;

fn world() -> (ClusterTopology, Dfs, JobTable, Vec<BlockId>) {
    let cluster = ClusterTopology::paper_cluster();
    let mut dfs = Dfs::new();
    let file = dfs
        .create_file(
            &cluster,
            "in",
            2560 * 64 * MB,
            64 * MB,
            1,
            &mut RoundRobinPlacement::default(),
        )
        .expect("create file");
    let profile = Arc::new(JobProfile {
        name: "wc".into(),
        map_cpu_s_per_mb: 0.0015,
        map_output_ratio: 0.015,
        map_output_records_per_mb: 1526.0,
        reduce_cpu_s_per_mb: 0.002,
        reduce_output_ratio: 0.000625,
        num_reduce_tasks: 30,
    });
    let mut table = JobTable::new();
    for r in requests_from_arrivals(&profile, file, &[0.0; 10]) {
        table.arrive(r);
    }
    let blocks = dfs.file(file).blocks.clone();
    (cluster, dfs, table, blocks)
}

fn bench_batch(c: &mut Criterion) {
    let (cluster, dfs, table, blocks) = world();
    let jobs: Vec<_> = table.arrived().iter().map(|r| r.id).collect();

    let mut g = c.benchmark_group("batch");
    g.bench_function("construct_2560_blocks_10_jobs", |b| {
        b.iter(|| {
            Batch::new(
                BatchKey(0),
                jobs.clone(),
                &blocks,
                &table,
                &dfs,
                SimTime::ZERO,
                40,
            )
        });
    });

    g.throughput(Throughput::Elements(2560));
    g.bench_function("drain_all_maps_locally", |b| {
        b.iter(|| {
            let mut batch = Batch::new(
                BatchKey(0),
                jobs.clone(),
                &blocks,
                &table,
                &dfs,
                SimTime::ZERO,
                40,
            );
            let mut handed = 0u32;
            // Round-robin over nodes like the heartbeat loop does.
            'outer: loop {
                let mut any = false;
                for n in 0..40u32 {
                    if let Some(_spec) =
                        batch.next_map_for(NodeId(n), SimTime::ZERO, &dfs, &cluster)
                    {
                        handed += 1;
                        any = true;
                        if handed == 2560 {
                            break 'outer;
                        }
                    }
                }
                assert!(any, "ran dry before all maps were handed out");
            }
            handed
        });
    });
    g.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
