//! The paper's segment geometry (Section IV-B), as a
//! [`Revolution`](crate::revolution::Revolution) cuts it under the engine's
//! [`Align::Clip`](crate::revolution::Align::Clip) rule.
//!
//! A file of `N` blocks scanned `m` blocks at a time is `k = ceil(N/m)`
//! segments, the last possibly short, in a fixed circular order: a job
//! admitted at segment `j` processes `j, j+1, ..., k-1, 0, ..., j-1`. With
//! the sizes varying (the paper's dynamic sub-job adjustment), a revolution
//! still cuts the file into consecutive runs that cover it once.

mod tests {
    use crate::revolution::{Align, Revolution};

    /// `(start, len)` of each segment a job rides when it joins after `skip`
    /// segments, the sizes taken from `sizes` in turn, until it finishes.
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

    /// Segment indices (`start / m`) a job joining at segment `j` rides.
    fn order_from(n: usize, m: usize, j: usize) -> Vec<usize> {
        ridden(n, &[m], j)
            .iter()
            .map(|&(start, _)| start / m)
            .collect()
    }

    #[test]
    fn uniform_paper_geometry() {
        // 2560 blocks / 40 map slots = 64 segments of 40 (Section IV-B).
        let segs = ridden(2560, &[40], 0);
        assert_eq!(segs.len(), 64);
        assert!(segs.iter().all(|&(_, len)| len == 40));
        assert_eq!(segs[1], (40, 40));
    }

    #[test]
    fn uniform_with_short_tail() {
        assert_eq!(ridden(100, &[40], 0), vec![(0, 40), (40, 40), (80, 20)]);
    }

    #[test]
    fn from_sizes_variable() {
        let segs = ridden(127, &[40, 35, 40, 12], 0);
        assert_eq!(segs, vec![(0, 40), (40, 35), (75, 40), (115, 12)]);
    }

    #[test]
    fn segment_of_block_lookup() {
        let segs = ridden(35, &[10, 20, 5], 0);
        let segment_of = |b: usize| {
            segs.iter()
                .position(|&(start, len)| (start..start + len).contains(&b))
                .expect("every block is in a segment")
        };
        for (b, seg) in [(0, 0), (9, 0), (10, 1), (29, 1), (30, 2), (34, 2)] {
            assert_eq!(segment_of(b), seg, "block {b}");
        }
    }

    #[test]
    fn circular_next_prev() {
        // The segment after the last one is the first; a job's last
        // segment is the one before the segment it joined at.
        assert_eq!(order_from(120, 40, 0), vec![0, 1, 2]);
        assert_eq!(order_from(120, 40, 2), vec![2, 0, 1]);
        assert_eq!(order_from(120, 40, 1).last(), Some(&0));
        assert_eq!(order_from(120, 40, 0).last(), Some(&2));
    }

    #[test]
    fn scan_order_wraps_like_the_paper() {
        // Job admitted at S_j processes S_j..S_k then S_1..S_{j-1}
        // (Section I / IV-B), 0-indexed here: five segments, j = 3.
        assert_eq!(order_from(200, 40, 3), vec![3, 4, 0, 1, 2]);
    }

    #[test]
    fn position_from_is_distance_in_scan_order() {
        let from_3 = order_from(200, 40, 3);
        assert_eq!(from_3.iter().position(|&s| s == 3), Some(0));
        assert_eq!(from_3.iter().position(|&s| s == 2), Some(4));
        assert_eq!(order_from(200, 40, 0).iter().position(|&s| s == 4), Some(4));
    }

    #[test]
    #[should_panic(expected = "zero size")]
    fn zero_segment_size_panics() {
        Revolution::new(10, Align::Clip).next(0, |_| true);
    }
}
