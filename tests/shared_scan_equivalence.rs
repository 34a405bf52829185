//! The semantic heart of the paper, verified on real data at integration
//! scale: a merged shared scan produces byte-identical results to
//! independent execution, for both workload families, across thread and
//! reducer configurations.

use s3_engine::{
    run_job, run_merged, run_merged_legacy, BlockStore, ExecConfig, FtConfig, Obs, PartitionMode,
    ServerConfig, SharedScanServer,
};
use s3_mapreduce::check_engine_events;
use s3_obs::JobJournal;
use s3_sim::SimRng;
use s3_workloads::jobs::{PatternWordCount, SelectionJob, WordPattern};
use s3_workloads::lineitem::LineItemGen;
use s3_workloads::text::TextGen;

fn text_store() -> BlockStore {
    let gen = TextGen::new(5000, 1.1);
    let text = gen.generate(&mut SimRng::seed_from_u64(2024), 2 << 20);
    BlockStore::from_text(&text, 64 << 10)
}

fn lineitem_store() -> BlockStore {
    let text = LineItemGen::new().generate(&mut SimRng::seed_from_u64(2025), 2 << 20);
    BlockStore::from_text(&text, 64 << 10)
}

#[test]
fn ten_wordcount_jobs_share_one_scan_losslessly() {
    let store = text_store();
    let jobs: Vec<PatternWordCount> = vec![
        PatternWordCount::all(),
        PatternWordCount::prefix("b"),
        PatternWordCount::prefix("ta"),
        PatternWordCount::prefix("zzz"), // empty result
        PatternWordCount {
            pattern: WordPattern::Contains("an".into()),
        },
        PatternWordCount {
            pattern: WordPattern::Contains("q".into()),
        },
        PatternWordCount {
            pattern: WordPattern::Length(4),
        },
        PatternWordCount {
            pattern: WordPattern::Length(6),
        },
        PatternWordCount::prefix("da"),
        PatternWordCount::prefix("ma"),
    ];
    let cfg = ExecConfig {
        num_threads: 4,
        num_reducers: 7,
    ..ExecConfig::default()
    };
    let refs: Vec<&PatternWordCount> = jobs.iter().collect();
    let merged = run_merged(&refs, &store, &cfg);
    assert_eq!(merged.len(), 10);
    for (i, (job, m)) in jobs.iter().zip(&merged).enumerate() {
        let solo = run_job(job, &store, &cfg);
        assert_eq!(m.records, solo.records, "job {i} ({:?})", job.pattern);
        assert_eq!(m.stats.map_output_records, solo.stats.map_output_records);
    }
}

#[test]
fn selection_jobs_share_one_scan_losslessly() {
    let store = lineitem_store();
    let jobs: Vec<SelectionJob> = (0..6)
        .map(|i| SelectionJob {
            quantity_threshold: 10 + i * 8,
        })
        .collect();
    let cfg = ExecConfig::default();
    let refs: Vec<&SelectionJob> = jobs.iter().collect();
    let merged = run_merged(&refs, &store, &cfg);
    for (job, m) in jobs.iter().zip(&merged) {
        let solo = run_job(job, &store, &cfg);
        assert_eq!(
            m.records, solo.records,
            "threshold {}",
            job.quantity_threshold
        );
    }
    // Monotonicity: higher threshold selects a subset.
    for w in merged.windows(2) {
        assert!(w[1].records.len() <= w[0].records.len());
        for k in w[1].records.keys() {
            assert!(w[0].records.contains_key(k));
        }
    }
}

#[test]
fn equivalence_is_configuration_independent() {
    // Outputs must not depend on threads or reducer counts — merged or not.
    let store = text_store();
    let job = PatternWordCount::prefix("ba");
    let reference = run_job(
        &job,
        &store,
        &ExecConfig {
            num_threads: 1,
            num_reducers: 1,
        ..ExecConfig::default()
        },
    );
    for threads in [2, 8] {
        for reducers in [3, 16] {
            let cfg = ExecConfig {
                num_threads: threads,
                num_reducers: reducers,
            ..ExecConfig::default()
            };
            let solo = run_job(&job, &store, &cfg);
            assert_eq!(solo.records, reference.records, "solo {threads}x{reducers}");
            let merged = run_merged(&[&job], &store, &cfg);
            assert_eq!(
                merged[0].records, reference.records,
                "merged {threads}x{reducers}"
            );
        }
    }
}

#[test]
fn shared_scan_reads_each_byte_once() {
    let store = text_store();
    let jobs = [
        PatternWordCount::prefix("a"),
        PatternWordCount::prefix("b"),
        PatternWordCount::prefix("d"),
    ];
    let refs: Vec<&PatternWordCount> = jobs.iter().collect();
    let merged = run_merged(&refs, &store, &ExecConfig::default());
    for m in &merged {
        assert_eq!(m.stats.bytes_scanned as usize, store.total_bytes());
        assert_eq!(m.stats.blocks_scanned as usize, store.num_blocks());
    }
}

/// The workload family's own riders through the fan-out kernel: every
/// pattern kind — `Prefix` of length 0, 1, 2 and past the indexed depth,
/// the patterns that declare no prefix — at 1, 8 and 65+ riders equals the
/// unindexed reference, records and map-output counts, on `run_merged` and
/// on both scan loops of the server.
#[test]
fn pattern_riders_equal_the_unindexed_oracle() {
    let gen = TextGen::new(5000, 1.1);
    // The generator's words are at most 6 bytes; a few long ones give the
    // prefixes past the indexed depth something to match and to miss.
    let mut text = gen.generate(&mut SimRng::seed_from_u64(2026), 512 << 10);
    text.push_str(&"supercalifragilistic supercalifragile superb\n".repeat(40));
    let store = BlockStore::from_text(&text, 32 << 10);
    let mut pool: Vec<PatternWordCount> = vec![
        PatternWordCount::all(),
        PatternWordCount::prefix(""),
        PatternWordCount::prefix("b"),
        PatternWordCount::prefix("supercalifrag"),
        PatternWordCount::prefix("supercalifragilisticx"),
        PatternWordCount { pattern: WordPattern::Contains("an".into()) },
        PatternWordCount { pattern: WordPattern::Length(4) },
    ];
    // Two-letter prefixes: the generator's 60 most frequent words are its
    // 60 leading syllables.
    pool.extend((0..60).map(|rank| PatternWordCount::prefix(gen.word(rank))));
    let cfg = ExecConfig { num_threads: 2, num_reducers: 3, ..ExecConfig::default() };
    for riders in [1, 8, pool.len()] {
        assert!(riders == 1 || riders == 8 || riders > 64);
        // The last `riders` of the pool first, so that 1 and 8 riders are
        // prefix riders and the full set mixes everything.
        let jobs: Vec<PatternWordCount> = pool.iter().rev().take(riders).cloned().collect();
        let refs: Vec<&PatternWordCount> = jobs.iter().collect();
        let oracle = run_merged_legacy(&refs, &store);
        let merged = run_merged(&refs, &store, &cfg);
        let mut outputs = vec![merged];
        for ft in [FtConfig::default(), FtConfig::resilient()] {
            let mut server_cfg = ServerConfig::new(4, 2);
            server_cfg.ft = ft;
            let server = SharedScanServer::with_config(store.clone(), server_cfg);
            let handles = server.submit_all(jobs.clone());
            outputs.push(handles.into_iter().map(|h| h.wait().expect("job completes")).collect());
            server.shutdown();
        }
        for (which, outs) in outputs.iter().enumerate() {
            for ((job, out), want) in jobs.iter().zip(outs).zip(&oracle) {
                assert_eq!(out.records, want.records, "executor {which}: {:?}", job.pattern);
                assert_eq!(
                    out.stats.map_output_records, want.stats.map_output_records,
                    "executor {which}: {:?}", job.pattern
                );
            }
        }
        assert!(oracle.iter().any(|o| !o.records.is_empty()));
    }
}

/// The paper's second workload family on all three fronts: `SelectionJob`
/// riders (non-fold, line-based, every key unique) over rows some of which
/// raw high bytes have damaged, at block cuts that fall mid-row, 1, 8 and 70
/// of them. `run_merged` equals the reference in records and in every stat
/// under hash and weighted partitioning (split factor 1.0, the tightest),
/// at 1, 2 and 4 threads and 1, 3 and 8 reducers; `run_job` is `run_merged`
/// of one; and on the live server the same riders, staggered so that later
/// ones join mid-revolution and wrap, equal both on both scan loops, with
/// traces that satisfy the engine's and the journal's invariants.
#[test]
fn selection_riders_equal_the_reference_on_every_front() {
    let mut text = LineItemGen::new().generate(&mut SimRng::seed_from_u64(2027), 192 << 10).into_bytes();
    for (i, byte) in text.iter_mut().enumerate().filter(|(i, _)| i % 1013 == 0) {
        *byte = [0x80, 0xc3, 0xff][i % 3];
    }
    let tight = PartitionMode::Weighted { split_factor_x1000: 1000 };
    for (riders, block_bytes) in [(1, 8 << 10), (8, 1_000), (8, 8 << 10), (8, 37_123), (70, 37_123)] {
        let jobs: Vec<SelectionJob> = (0..riders)
            .map(|i| SelectionJob { quantity_threshold: 5 + (i * 40 / riders) as u32 })
            .collect();
        let refs: Vec<&SelectionJob> = jobs.iter().collect();
        let store = BlockStore::from_bytes(&text, block_bytes);
        let oracle = run_merged_legacy(&refs, &store);
        assert!(oracle.windows(2).all(|w| w[1].records.len() <= w[0].records.len()));
        assert!(oracle.iter().all(|o| !o.records.is_empty()));
        for partition in [PartitionMode::Hash, tight] {
            for threads in [1, 2, 4] {
                for num_reducers in [1, 3, 8] {
                    let mode = format!("{riders} riders, {block_bytes}-byte blocks, {partition:?}, {threads} threads, {num_reducers} reducers");
                    let cfg = ExecConfig { num_threads: threads, num_reducers, partition };
                    let merged = run_merged(&refs, &store, &cfg);
                    assert!(merged == oracle, "run_merged: {mode}");
                    let last = refs[riders - 1];
                    assert!(run_job(last, &store, &cfg) == merged[riders - 1], "run_job: {mode}");
                    assert!(run_merged(&[last], &store, &cfg)[0] == merged[riders - 1], "run_merged of one: {mode}");
                }
                for ft in [FtConfig::default(), FtConfig::resilient()] {
                    let mode = format!(
                        "{riders} riders, {block_bytes}-byte blocks, speculation {}, {partition:?}, {threads} threads",
                        ft.speculation
                    );
                    let obs = Obs::new();
                    let mut cfg = ServerConfig::new(4, threads);
                    cfg.ft = ft;
                    cfg.partition = partition;
                    cfg.obs = obs.clone();
                    let server = SharedScanServer::with_config(store.clone(), cfg);
                    let handles: Vec<_> = jobs
                        .iter()
                        .map(|job| {
                            // One segment apart, or 2 ms if the scan went idle.
                            let seen = server.iterations();
                            let handle = server.submit(job.clone());
                            let t0 = std::time::Instant::now();
                            while server.iterations() == seen && t0.elapsed().as_millis() < 2 {
                                std::thread::yield_now();
                            }
                            handle
                        })
                        .collect();
                    for ((h, want), job) in handles.into_iter().zip(&oracle).zip(&jobs) {
                        let out = h.wait().expect("job completes");
                        assert!(out == *want, "{mode}: threshold {}", job.quantity_threshold);
                    }
                    server.shutdown();
                    let core = obs.core().expect("obs is on");
                    let events = core.tracer.drain();
                    assert_eq!(core.tracer.dropped(), 0, "{mode}: the run fits the ring");
                    let violations = check_engine_events(&events);
                    assert!(violations.is_empty(), "{mode}: {violations:?}");
                    JobJournal::from_events(&events).validate().unwrap_or_else(|e| panic!("{mode}: {e}"));
                }
            }
        }
    }
}
