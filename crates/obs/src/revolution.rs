//! One revolution of the circular scan: the paper's Algorithm 1 as pure
//! segment arithmetic, shared by the engine's coordinator and the
//! simulator's S³ scheduler.
//!
//! A file of `n` blocks is scanned from a cursor that wraps at the end of
//! the file. A job admitted while the cursor sits at block `c` rides the
//! segments that follow and leaves once it has taken `n` blocks, which is
//! one revolution: `c..n`, then `0..c`. Each call to [`Revolution::next`]
//! cuts the next segment and says how many of its blocks each rider takes.
//!
//! Nothing here knows about clocks, threads or jobs beyond their ids. The
//! policies stay with the callers: the segment length they ask for (fixed,
//! adaptive, or sized from healthy slots), which admitted jobs ride a
//! segment, and when a job is removed (deadline, quarantine).
//!
//! The two callers cut segments by different rules, held by [`Align`].
//! A job must ride every segment from its first ride until it finishes:
//! one left out after its first ride no longer has a contiguous unseen run
//! and loses exactly-once coverage. Leaving out a job that has not ridden
//! yet is safe; its revolution then starts at its first ride.
//!
//! ```
//! use s3_obs::revolution::{Align, Revolution};
//!
//! // Five blocks, segments of two, a job joining at the second segment.
//! let mut rev = Revolution::new(5, Align::Clip);
//! rev.admit(1);
//! assert_eq!(rev.next(2, |_| true).riders, vec![(1, 2)]);
//! rev.admit(2);
//! assert_eq!(rev.cursor(), 2);
//! let segs: Vec<_> = (0..3).map(|_| rev.next(2, |_| true)).collect();
//! // Clipped at the end of the file: 2..4, 4..5, then the wrap to 0..2.
//! assert_eq!(segs.iter().map(|s| (s.start, s.len)).collect::<Vec<_>>(),
//!            vec![(2, 2), (4, 1), (0, 2)]);
//! assert_eq!(segs[1].finished, vec![1]);
//! assert_eq!(segs[2].finished, vec![2]);
//! ```

/// How a segment is cut from the cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// The engine's rule: a segment holds the requested blocks but stops at
    /// the end of the file (the wrap happens at the next segment), and each
    /// rider takes the first `min(len, remaining)` of them.
    Clip,
    /// The simulator's rule: a segment shrinks to the smallest rider's
    /// remaining count, so every rider takes all of it, and it wraps
    /// around the end of the file.
    Shorten,
}

/// One segment cut by [`Revolution::next`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// First block; under [`Align::Shorten`] the segment may wrap past the
    /// last block to block 0.
    pub start: usize,
    /// Blocks the segment scans.
    pub len: usize,
    /// `(id, take)` per rider in admission order: the rider sees the
    /// segment's first `take` blocks.
    pub riders: Vec<(u64, usize)>,
    /// Riders whose revolution this segment completed, in admission order.
    /// They have left the revolution.
    pub finished: Vec<u64>,
}

impl Segment {
    /// Blocks `id` takes from this segment (0 if it does not ride).
    pub fn take(&self, id: u64) -> usize {
        self.riders
            .iter()
            .find(|&&(rider, _)| rider == id)
            .map_or(0, |&(_, take)| take)
    }
}

/// The cursor and every admitted job's remaining block count.
#[derive(Debug, Clone)]
pub struct Revolution {
    blocks: usize,
    align: Align,
    cursor: usize,
    /// `(id, blocks still to see)` in admission order.
    jobs: Vec<(u64, usize)>,
}

impl Revolution {
    /// A revolution over a file of `blocks` blocks, cursor at block 0.
    pub fn new(blocks: usize, align: Align) -> Self {
        Revolution {
            blocks,
            align,
            cursor: 0,
            jobs: Vec::new(),
        }
    }

    /// The next block to scan: where a job admitted now joins.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Admit a job; it still has to see every block.
    pub fn admit(&mut self, id: u64) {
        self.jobs.push((id, self.blocks));
    }

    /// Drop a job before its revolution finishes. Returns whether it was
    /// admitted and unfinished.
    pub fn remove(&mut self, id: u64) -> bool {
        let before = self.jobs.len();
        self.jobs.retain(|&(job, _)| job != id);
        self.jobs.len() < before
    }

    /// Cut the next segment of at most `len` blocks for the admitted jobs
    /// `rides` selects, advance the cursor past it, and charge each rider
    /// its take. Jobs not selected take nothing.
    ///
    /// # Panics
    /// Panics if `len` is zero.
    pub fn next(&mut self, len: usize, rides: impl Fn(u64) -> bool) -> Segment {
        assert!(len > 0, "a segment of zero size scans nothing");
        let start = self.cursor;
        let len = match self.align {
            Align::Clip => len.min(self.blocks - start),
            Align::Shorten => self
                .jobs
                .iter()
                .filter(|&&(id, _)| rides(id))
                .fold(len.min(self.blocks), |len, &(_, remaining)| {
                    len.min(remaining)
                }),
        };
        let mut riders = Vec::new();
        let mut finished = Vec::new();
        for (id, remaining) in self.jobs.iter_mut() {
            if !rides(*id) {
                continue;
            }
            let take = len.min(*remaining);
            *remaining -= take;
            riders.push((*id, take));
            if *remaining == 0 {
                finished.push(*id);
            }
        }
        self.jobs.retain(|(id, _)| !finished.contains(id));
        self.cursor = (start + len) % self.blocks.max(1);
        Segment {
            start,
            len,
            riders,
            finished,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn shorten_wraps_and_stops_at_the_nearest_finish() {
        let mut rev = Revolution::new(10, Align::Shorten);
        rev.admit(1);
        assert_eq!(rev.next(4, |_| true).len, 4);
        rev.admit(2);
        assert_eq!(rev.next(8, |_| true).len, 6); // job 1 has 6 left
        let seg = rev.next(8, |_| true);
        // Job 2 has 4 left from block 0; the segment starts at block 0.
        assert_eq!((seg.start, seg.len, seg.finished), (0, 4, vec![2]));
    }

    #[test]
    fn an_empty_file_finishes_every_job_on_its_first_segment() {
        for align in [Align::Clip, Align::Shorten] {
            let mut rev = Revolution::new(0, align);
            rev.admit(3);
            let seg = rev.next(1, |_| true);
            assert_eq!((seg.len, seg.finished), (0, vec![3]));
            assert_eq!(rev.cursor(), 0);
        }
    }

    /// splitmix64: the case generator's stream, drawn from one seed.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// The module against a brute-force oracle, under both rules: block
        /// counts 0 to 39, up to 120 interleaved admits, removals and
        /// segments, sizes from 1 to 2n + 1, and under `Shorten` any rider
        /// subset that keeps every started job riding. A job that is not
        /// removed sees each block exactly once, in one revolution from the
        /// cursor where it first rode; `Clip` segments never cross the end
        /// of the file; `Shorten` gives every rider the same take; no take
        /// exceeds the rider's remaining count.
        #[test]
        fn every_kept_job_sees_each_block_once_from_its_entry(seed in any::<u64>()) {
            let mut draw = Draw(seed);
            let n = draw.below(40);
            let shorten = draw.below(2) == 1;
            let align = if shorten { Align::Shorten } else { Align::Clip };
            let mut rev = Revolution::new(n, align);
            let mut next_id = 0u64;
            // Brute force: the blocks each live job has seen, in order,
            // and the cursor of its first ride.
            let mut seen: BTreeMap<u64, (Option<usize>, Vec<usize>)> = BTreeMap::new();
            for _ in 0..1 + draw.below(120) {
                match draw.below(9) {
                    0 | 1 => {
                        rev.admit(next_id);
                        seen.insert(next_id, (None, Vec::new()));
                        next_id += 1;
                    }
                    2 if !seen.is_empty() => {
                        let id = *seen.keys().nth(draw.below(seen.len())).unwrap();
                        seen.remove(&id);
                        prop_assert!(rev.remove(id));
                        prop_assert!(!rev.remove(id));
                    }
                    _ => {
                        let len = 1 + draw.below(2 * n + 1);
                        // Clip: everyone rides. Shorten: started jobs
                        // always, each other job by a coin.
                        let rides: Vec<u64> = seen
                            .iter()
                            .filter(|(_, (first, _))| {
                                !shorten || first.is_some() || draw.below(2) == 1
                            })
                            .map(|(&id, _)| id)
                            .collect();
                        let remaining: BTreeMap<u64, usize> =
                            seen.iter().map(|(&id, (_, b))| (id, n - b.len())).collect();
                        let cursor = rev.cursor();
                        let seg = rev.next(len, |id| rides.contains(&id));
                        prop_assert_eq!(seg.start, cursor);
                        prop_assert!(seg.len <= len);
                        if !shorten {
                            prop_assert!(seg.start + seg.len <= n, "a Clip segment crossed the end");
                        }
                        prop_assert_eq!(
                            seg.riders.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
                            rides.clone()
                        );
                        for &(id, take) in &seg.riders {
                            prop_assert!(take <= remaining[&id], "take beyond the remaining count");
                            if shorten {
                                prop_assert_eq!(take, seg.len, "Shorten riders take unequal shares");
                            }
                            let (first, blocks) = seen.get_mut(&id).unwrap();
                            first.get_or_insert(cursor);
                            blocks.extend((0..take).map(|i| (seg.start + i) % n.max(1)));
                        }
                        for &id in &seg.finished {
                            let (first, blocks) = seen.remove(&id).unwrap();
                            let first = first.unwrap();
                            let revolution: Vec<usize> = (0..n).map(|i| (first + i) % n).collect();
                            prop_assert_eq!(blocks, revolution, "job {} saw the wrong blocks", id);
                        }
                        for (id, (first, blocks)) in &seen {
                            prop_assert!(
                                blocks.len() < n || first.is_none(),
                                "job {} saw a whole revolution but did not finish", id
                            );
                        }
                    }
                }
            }
        }
    }
}
