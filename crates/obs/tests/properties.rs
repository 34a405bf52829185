//! Property tests of the lock-free registry: concurrent recording from
//! many threads must aggregate to exactly what serial recording would —
//! no lost increments, no torn reads, regardless of how observations land
//! on the shards. Then the paper's segment geometry, as the circular scan's
//! revolution cuts it at a fixed segment size.

use proptest::prelude::*;
use s3_obs::revolution::{Align, Revolution};
use s3_obs::{Obs, Registry};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// N threads hammering one counter and one histogram concurrently
    /// equals the serial sum of their contributions.
    #[test]
    fn concurrent_recording_equals_serial_sum(
        per_thread in prop::collection::vec(
            prop::collection::vec(1u64..2_000, 1..200),
            1..8,
        ),
    ) {
        let reg = Arc::new(Registry::new());
        let threads: Vec<_> = per_thread
            .iter()
            .cloned()
            .map(|values| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let c = reg.counter("hits");
                    let h = reg.histogram("lat_us");
                    let g = reg.gauge("level");
                    for &v in &values {
                        c.add(v);
                        h.record(v);
                        g.add(v as i64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("recorder thread");
        }

        let serial_sum: u64 = per_thread.iter().flatten().sum();
        let serial_count: u64 = per_thread.iter().map(|v| v.len() as u64).sum();
        let serial_max: u64 = per_thread.iter().flatten().copied().max().unwrap_or(0);

        prop_assert_eq!(reg.counter("hits").get(), serial_sum);
        prop_assert_eq!(reg.gauge("level").get(), serial_sum as i64);
        let snap = reg.histogram("lat_us").snapshot();
        prop_assert_eq!(snap.count, serial_count);
        prop_assert_eq!(snap.sum, serial_sum);
        prop_assert_eq!(snap.max, serial_max);
        let bucketed: u64 = snap.buckets.iter().map(|b| b.count).sum();
        prop_assert_eq!(bucketed, serial_count, "every observation lands in a bucket");
    }

    /// Snapshots taken mid-hammer never tear: every observed total is a
    /// valid prefix (monotonically non-decreasing, internally consistent).
    #[test]
    fn snapshots_under_concurrency_are_consistent(
        n in 200usize..2_000,
    ) {
        let obs = Obs::new();
        let writer = {
            let obs = obs.clone();
            std::thread::spawn(move || {
                let m = &obs.core().expect("on").metrics;
                let c = m.counter("ticks");
                let h = m.histogram("work_us");
                for i in 0..n {
                    c.inc();
                    h.record(i as u64 % 500 + 1);
                }
            })
        };
        let mut last = 0u64;
        loop {
            let snap = obs.snapshot().expect("on");
            let ticks = snap.counters.get("ticks").copied().unwrap_or(0);
            prop_assert!(ticks >= last, "counter went backwards: {} -> {}", last, ticks);
            prop_assert!(ticks <= n as u64);
            if let Some(h) = snap.histograms.get("work_us") {
                prop_assert!(h.sum >= h.count, "every recorded value is >= 1");
                prop_assert!(h.count <= n as u64);
            }
            last = ticks;
            if writer.is_finished() {
                break;
            }
        }
        writer.join().expect("writer thread");
        let end = obs.snapshot().expect("on");
        prop_assert_eq!(end.counters["ticks"], n as u64);
        prop_assert_eq!(end.histograms["work_us"].count, n as u64);
    }
}

/// The segments, as `(start, len)`, that a job joining the circular scan
/// after `skip` segments rides under the engine's rule until its revolution
/// finishes, the segment sizes taken from `sizes` in turn.
fn ridden(n: usize, sizes: &[usize], skip: usize) -> Vec<(usize, usize)> {
    let mut sizes = sizes.iter().copied().cycle();
    let mut rev = Revolution::new(n, Align::Clip);
    for _ in 0..skip {
        rev.next(sizes.next().expect("sizes cycle"), |_| true);
    }
    rev.admit(0);
    let mut segs = Vec::new();
    loop {
        let seg = rev.next(sizes.next().expect("sizes cycle"), |_| true);
        segs.push((seg.start, seg.len));
        if !seg.finished.is_empty() {
            return segs;
        }
    }
}

proptest! {
    /// From block 0, one revolution of fixed size `m` cuts the file into
    /// non-empty runs of at most `m` blocks that cover every block once,
    /// in order.
    #[test]
    fn uniform_segmentation_partitions_blocks(n in 1usize..5000, m in 1usize..200) {
        let mut covered = Vec::new();
        for (start, len) in ridden(n, &[m], 0) {
            prop_assert!(len > 0 && len <= m);
            covered.extend(start..start + len);
        }
        prop_assert_eq!(covered, (0..n).collect::<Vec<_>>());
    }

    /// A revolution is exactly k = ceil(N/m) segments (Section IV-B): every
    /// one but the last holds m blocks, the last the remainder.
    #[test]
    fn uniform_segment_count_is_ceil(n in 1usize..5000, m in 1usize..200) {
        let segs = ridden(n, &[m], 0);
        let k = n.div_ceil(m);
        prop_assert_eq!(segs.len(), k);
        for (j, &(_, len)) in segs.iter().enumerate() {
            prop_assert_eq!(len, if j + 1 < k { m } else { n - m * (k - 1) });
        }
    }

    /// A job admitted at segment j scans j, j+1, ..., k-1, 0, ..., j-1: a
    /// rotation of the k segments that covers every block once.
    #[test]
    fn scan_order_is_a_rotation(n in 1usize..5000, m in 1usize..200, start_raw in 0usize..5000) {
        let k = n.div_ceil(m);
        let j = start_raw % k;
        let segs = ridden(n, &[m], j);
        let order: Vec<usize> = segs.iter().map(|&(start, _)| start / m).collect();
        prop_assert_eq!(order, (0..k).map(|i| (j + i) % k).collect::<Vec<_>>());
        let mut blocks: Vec<usize> = segs.iter().flat_map(|&(s, len)| s..s + len).collect();
        blocks.sort_unstable();
        prop_assert_eq!(blocks, (0..n).collect::<Vec<_>>());
    }

    /// A segment size of at least the file size is one segment spanning the
    /// whole file, which is its own successor: a single wave scans it all.
    #[test]
    fn oversized_segment_is_whole_file(n in 1usize..2000, extra in 0usize..100) {
        prop_assert_eq!(ridden(n, &[n + extra], 0), vec![(0, n)]);
        prop_assert_eq!(ridden(n, &[n + extra], 1), vec![(0, n)]);
    }

    /// At any sequence of segment sizes (dynamic sub-job adjustment), each
    /// block of a revolution lies in exactly one of its segments.
    #[test]
    fn segment_of_inverts_blocks_of(sizes in prop::collection::vec(1usize..50, 1..40)) {
        let n: usize = sizes.iter().sum();
        let mut owners = vec![0u32; n];
        for (start, len) in ridden(n, &sizes, 0) {
            for owner in &mut owners[start..start + len] {
                *owner += 1;
            }
        }
        prop_assert!(owners.iter().all(|&o| o == 1), "{:?}", owners);
    }

    /// At any sequence of sizes and from any entry, each segment starts
    /// where the one before it ended, wrapping at the end of the file: the
    /// successor of a segment is the run right after it.
    #[test]
    fn next_prev_are_inverses(sizes in prop::collection::vec(1usize..50, 1..40), skip in 0usize..40) {
        let n: usize = sizes.iter().sum();
        for pair in ridden(n, &sizes, skip).windows(2) {
            let ((start, len), (next, _)) = (pair[0], pair[1]);
            prop_assert_eq!(next, (start + len) % n);
        }
    }

    /// A job admitted at segment j rides segment (j + i) mod k as its i-th.
    #[test]
    fn position_from_matches_scan_order(n in 1usize..2000, m in 1usize..100, start_raw in any::<u32>()) {
        let k = n.div_ceil(m);
        let j = start_raw as usize % k;
        for (i, (start, _)) in ridden(n, &[m], j).into_iter().enumerate() {
            prop_assert_eq!((start / m + k - j) % k, i);
        }
    }
}
