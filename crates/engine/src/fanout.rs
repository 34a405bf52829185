//! The shared scan's inner loop: one token-start scan and one predicate
//! lookup per start for **all** co-riding jobs, so that rider N+1 pays for
//! the tokens it could match, not for another pass over every token.
//!
//! Each job's [`JobShape`] is resolved once per submission into a [`Plan`]
//! ([`Plan::of`]): lines or a token prefix to route by, and so the sink and
//! accumulator. A [`RiderIndex`] is built over the plans of one shared scan
//! (one segment of a server, one batch run) from the token riders'
//! prefixes: one 256-entry table of rider bitmasks per leading byte
//! position, whose entries a token's leading bytes select AND to the riders
//! whose prefix the token starts with. Mapping a block is then two phases:
//!
//! 1. [`RiderIndex::select`] finds the block's token starts once and
//!    appends each start's `(offset, len)` span to the selection vector of
//!    every candidate rider — a load, one lookup per indexed position and a
//!    test per start, whatever the number of riders (one more such pass per
//!    64 of them). A token's end is found only when some rider takes it,
//!    and when the riders' prefixes begin with few distinct bytes, starts
//!    with any other first byte are dropped inside the start scan;
//! 2. [`scan_block_for_job`], once per rider, confirms each candidate with
//!    the job's own map code and folds what it emits.
//!
//! The index only ever *narrows*: a candidate is still confirmed by
//! `token_value` / `map_token`, so false positives (a 9-byte prefix indexed
//! on its first 8 bytes) cost a call, and jobs that declare nothing read
//! the vector of all tokens, exactly the pass they made before. Keeping the
//! second phase rider-major keeps the callers' per-(job, block) panic
//! quarantine and their per-job `emitted` counts where they were.
//!
//! [`scan_block_for_job`] is the step every executor shares — the map core:
//! one rider's map over one block into that worker's accumulator, through
//! the kernel for token riders and line by line for the rest.

use crate::arena::load8;
use crate::reduce::{fold, fold_into, group_into, JobAcc, JobPartial};
use crate::types::{JobShape, MapReduceJob};

/// One token of a block: `(offset, length)`.
type Span = (usize, usize);

/// Leading token bytes the index can discriminate on: what one
/// [`load8`] holds.
const MAX_DEPTH: usize = 8;

/// The most distinct prefix first bytes for which [`RiderIndex::select`]
/// filters token starts by first byte inside the start scan: each byte of
/// the set costs one 16-byte compare per group, paid on every group.
///
/// Measured on `select` alone (32 MiB of the benchmark's Zipf text in
/// 64 KiB blocks, one thread, nine interleaved repeats, two runs), as a
/// fraction of the time of tokenizing every token and looking each up:
/// one pool prefix 0.36–0.60 (median 0.42), 2 riders 0.75, 4 riders
/// 0.91–0.92; with the filter off, 8 riders 1.08–1.09 and 16 riders
/// 1.09–1.11. Forcing the filter on over the 8 riders' 8 first bytes read
/// 1.26–1.33 — past four, the compares cost more than the lookups they
/// save (EXPERIMENTS.md, "Select by token start").
const MAX_FIRST_BYTES: usize = 4;

/// A job's [`JobShape`] as resolved at submission (DESIGN.md, "What a job
/// declares"): lines or a token prefix to route by, and what the records
/// fold or group into.
#[derive(Debug)]
pub(crate) enum Plan {
    /// `map_bytes` per line into pairs, folded per key or grouped.
    Lines { fold: bool },
    /// `map_token` per selected token into pairs, folded per key or grouped.
    Tokens { prefix: Box<[u8]>, fold: bool },
    /// `token_value` per selected token into the arena: no line arena exists.
    Arena { prefix: Box<[u8]> },
}

impl Plan {
    /// The engine's one call of [`MapReduceJob::shape`]. The prefix is
    /// copied, so it holds for the whole run whatever the job does later.
    pub(crate) fn of<J: MapReduceJob>(job: &J) -> Plan {
        match job.shape() {
            JobShape::Line => Plan::Lines { fold: false },
            JobShape::LineFold => Plan::Lines { fold: true },
            JobShape::Token { prefix } => Plan::Tokens { prefix: prefix.into(), fold: false },
            JobShape::TokenFold { prefix } => Plan::Tokens { prefix: prefix.into(), fold: true },
            JobShape::TokenIdentity { prefix } => Plan::Arena { prefix: prefix.into() },
        }
    }

    /// Whether one value per key reaches the reduce side.
    pub(crate) fn folds(&self) -> bool {
        !matches!(self, Plan::Lines { fold: false } | Plan::Tokens { fold: false, .. })
    }

    /// A token rider's prefix; `None` for a line rider.
    fn prefix(&self) -> Option<&[u8]> {
        match self {
            Plan::Lines { .. } => None,
            Plan::Tokens { prefix, .. } | Plan::Arena { prefix } => Some(prefix),
        }
    }
}

/// How one rider of the scan gets its tokens.
#[derive(Clone, Copy)]
enum Route {
    /// Maps whole lines; never enters the kernel.
    Line,
    /// Per-token without a prefix: reads the shared all-token vector.
    Every,
    /// Per-token with a prefix: owns bit `n` of the masks and selection
    /// vector `n`.
    Slot(usize),
}

/// Bit-parallel predicate index over the riders of one shared scan.
pub(crate) struct RiderIndex {
    /// One route per rider, in the caller's job order.
    routes: Vec<Route>,
    /// Riders with a [`Route::Slot`].
    slots: usize,
    /// Slot `n`'s prefix, for the debug-build check's message.
    prefixes: Vec<Box<[u8]>>,
    /// Byte positions indexed: the longest prefix, capped at [`MAX_DEPTH`].
    depth: usize,
    /// One 256-entry mask table per (mask word, position), laid out
    /// `[word][position][byte]`: bit `n % 64` of word `n / 64` is set iff
    /// slot `n`'s prefix has that byte at that position or ends before it.
    tables: Vec<[u64; 256]>,
    /// Some rider has a [`Route::Every`].
    every_rides: bool,
    /// The distinct first bytes of the slots' prefixes, when no rider is
    /// [`Route::Every`] and there are at most [`MAX_FIRST_BYTES`] of them:
    /// a token starting with any other byte is no rider's candidate.
    first: Option<Vec<u8>>,
}

/// Per-worker scratch of [`RiderIndex::select`], reused from block to block.
#[derive(Default)]
pub(crate) struct Selection {
    /// The offsets of the block's token starts the index may take, in
    /// block order.
    starts: Vec<usize>,
    /// Every token of the block, in block order, when a prefix-less rider
    /// rides (what it maps); empty otherwise.
    every: Vec<Span>,
    /// Candidate tokens per slot, in block order.
    slots: Vec<Vec<Span>>,
}

impl RiderIndex {
    /// Index the riders of one shared scan, in the caller's job order.
    pub(crate) fn over<'p>(plans: impl IntoIterator<Item = &'p Plan>) -> Self {
        Self::new(plans.into_iter().map(Plan::prefix))
    }

    /// One entry per rider: `None` for a line rider, else its prefix.
    fn new<'p>(riders: impl IntoIterator<Item = Option<&'p [u8]>>) -> Self {
        let mut prefixes: Vec<&[u8]> = Vec::new();
        let routes: Vec<Route> = riders
            .into_iter()
            .map(|rider| match rider {
                None => Route::Line,
                Some([]) => Route::Every,
                Some(prefix) => {
                    prefixes.push(prefix);
                    Route::Slot(prefixes.len() - 1)
                }
            })
            .collect();
        let slots = prefixes.len();
        let prefixes: Vec<Box<[u8]>> = prefixes.into_iter().map(Box::from).collect();
        let words = slots.div_ceil(64);
        let depth = prefixes
            .iter()
            .map(|p| p.len())
            .max()
            .unwrap_or(1)
            .min(MAX_DEPTH);
        let mut tables = vec![[0u64; 256]; words * depth];
        for (slot, prefix) in prefixes.iter().enumerate() {
            let (word, bit) = (slot / 64, 1u64 << (slot % 64));
            for pos in 0..depth {
                let accepted = match prefix.get(pos) {
                    Some(&b) => b as usize..=b as usize,
                    None => 0..=255,
                };
                for byte in accepted {
                    tables[word * depth + pos][byte] |= bit;
                }
            }
        }
        let every_rides = routes.iter().any(|r| matches!(r, Route::Every));
        let mut first: Vec<u8> = prefixes.iter().map(|p| p[0]).collect();
        first.sort_unstable();
        first.dedup();
        let first = (!every_rides && first.len() <= MAX_FIRST_BYTES).then_some(first);
        RiderIndex {
            routes,
            slots,
            prefixes,
            depth,
            tables,
            every_rides,
            first,
        }
    }

    /// Phase 1: find the block's token starts once (`\n`/`\r` are
    /// whitespace, so block tokens == every line's tokens concatenated) and
    /// hand each token to the riders whose prefix it starts with.
    ///
    /// When the riders' prefixes begin with at most [`MAX_FIRST_BYTES`]
    /// distinct bytes, the start scan drops every start with another first
    /// byte, so those tokens are never looked up. At each start that is
    /// left, the lookup reads the 8 bytes there as they are, not cut to the
    /// token's length: past a token shorter than the indexed depth comes
    /// whitespace (or [`load8`]'s zero padding at the block's end), which
    /// only a prefix that ended earlier — or one no token can start with —
    /// accepts. A token's end is found only when some rider takes it (or
    /// for every token, when a prefix-less rider rides).
    ///
    /// The starts are collected into a vector and then looked up, not
    /// looked up inside the scan's callback: the fused form measured slower
    /// in 38 of 40 cases, by 7 % in the median (EXPERIMENTS.md, "Select by
    /// token start").
    pub(crate) fn select(&self, block: &[u8], sel: &mut Selection) {
        let Selection {
            starts,
            every,
            slots,
        } = sel;
        starts.clear();
        every.clear();
        slots.resize_with(self.slots, Vec::new);
        slots.iter_mut().for_each(Vec::clear);
        if self.slots == 0 && !self.every_rides {
            return;
        }
        memchr::for_each_token_start(block, self.first.as_deref(), |start| starts.push(start));
        if self.every_rides {
            every.extend(starts.iter().map(|&s| (s, memchr::token_end(block, s) - s)));
        }
        // One pass over the starts per 64 riders keeps the loop to a load,
        // `depth` lookups and a test.
        for (positions, slots) in self
            .tables
            .chunks_exact(self.depth)
            .zip(slots.chunks_mut(64))
        {
            for &start in starts.iter() {
                let mut bytes = load8(block, start);
                let mut mask = u64::MAX;
                for table in positions {
                    mask &= table[bytes as u8 as usize];
                    bytes >>= 8;
                }
                if mask != 0 {
                    let span = (start, memchr::token_end(block, start) - start);
                    while mask != 0 {
                        slots[mask.trailing_zeros() as usize].push(span);
                        mask &= mask - 1;
                    }
                }
            }
        }
    }

    /// The tokens [`select`](Self::select) handed `rider` out of the
    /// block; `None` for a line rider, which maps lines instead.
    fn tokens<'s>(&self, sel: &'s Selection, rider: usize) -> Option<&'s [Span]> {
        match self.routes[rider] {
            Route::Line => None,
            Route::Every => Some(&sel.every),
            Route::Slot(n) => Some(&sel.slots[n]),
        }
    }

    /// The debug-build guard on a declared prefix: run the job on every
    /// token the index kept from `rider` (confirming with `token_value` if
    /// `arena`, else `map_token`) and panic if one emits — a job whose
    /// declared prefix is stronger than its filter would otherwise lose
    /// those records without a trace. It tokenizes the block itself rather
    /// than trusting the start scan, so a start the scan skipped is checked
    /// too.
    fn check_rejected<J: MapReduceJob>(
        &self,
        job: &J,
        block: &[u8],
        sel: &Selection,
        rider: usize,
        arena: bool,
    ) {
        let Route::Slot(n) = self.routes[rider] else {
            return;
        };
        // Tokens and candidates are both in block order, and the candidates
        // are a subsequence of the tokens.
        let mut kept = sel.slots[n].iter().peekable();
        memchr::for_each_token(block, |token| {
            let span = (token.as_ptr() as usize - block.as_ptr() as usize, token.len());
            if kept.peek() == Some(&&span) {
                kept.next();
                return;
            }
            let emits = if arena {
                job.token_value(token).is_some()
            } else {
                let mut any = false;
                job.map_token(token, &mut |_, _| any = true);
                any
            };
            assert!(
                !emits,
                "job declares token_prefix {:?} but emits for token {:?}",
                String::from_utf8_lossy(&self.prefixes[n]),
                String::from_utf8_lossy(token),
            );
        });
    }
}

/// The map core: run one job's map over one block into its worker's
/// partial. Every executor's per-(rider, block) step is this call.
///
/// The accumulator is the one the job's [`Plan`] made, so it is the sink:
/// an arena folds the tokens the scan's fan-out index (`fan`, in which this
/// job is rider `rider`) selected for it with `token_value`; a fold map or
/// grouped tables take the pairs `map_token` emits for those tokens, or,
/// for a line rider, the pairs `map_bytes` emits per line. The caller runs
/// [`RiderIndex::select`] once per block, for all jobs.
///
/// User map code may panic: the server wraps each call in its
/// per-(job, block) `catch_unwind`, the batch front lets it unwind.
pub(crate) fn scan_block_for_job<J: MapReduceJob>(
    job: &J,
    block: &[u8],
    fan: &RiderIndex,
    sel: &Selection,
    rider: usize,
    partial: &mut JobPartial<J>,
) {
    let JobPartial { emitted, acc } = partial;
    if cfg!(debug_assertions) {
        fan.check_rejected(job, block, sel, rider, matches!(acc, JobAcc::Tok(_)));
    }
    let tokens = fan.tokens(sel, rider);
    match acc {
        // `Plan::Arena` routes tokens, so an arena rider is handed some.
        JobAcc::Tok(map) => {
            for &(start, len) in tokens.unwrap_or_default() {
                if let Some(v) = job.token_value(&block[start..start + len]) {
                    *emitted += 1;
                    map.upsert_span(block, start, len, v, |acc, next| fold(job, acc, next));
                }
            }
        }
        JobAcc::Fold(map) => map_pairs(job, block, tokens, &mut |k, v| {
            *emitted += 1;
            fold_into(job, map, k, v);
        }),
        JobAcc::Grouped(shards) => map_pairs(job, block, tokens, &mut |k, v| {
            *emitted += 1;
            group_into(shards, k, v);
        }),
    }
}

/// Run `job`'s map over the `tokens` the index handed it, or, for a line
/// rider, over the block's lines.
fn map_pairs<J: MapReduceJob>(
    job: &J,
    block: &[u8],
    tokens: Option<&[Span]>,
    emit: &mut dyn FnMut(J::K, J::V),
) {
    match tokens {
        Some(tokens) => {
            for &(start, len) in tokens {
                job.map_token(&block[start..start + len], emit);
            }
        }
        None => memchr::lines(block).for_each(|line| job.map_bytes(line, emit)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The tokens each rider is handed, against a plain `starts_with` per
    /// rider: every matching token is a candidate, in block order, and
    /// nothing a rider is handed disagrees with the indexed part of its
    /// prefix on a byte the token has. The all-token vector is filled
    /// exactly when a prefix-less rider rides.
    fn check(block: &[u8], prefixes: &[&[u8]]) {
        let index = RiderIndex::new(prefixes.iter().map(|p| Some(*p)));
        let mut sel = Selection::default();
        // A dirty scratch must not leak into the next block.
        index.select(b"stale tokens from the previous block", &mut sel);
        index.select(block, &mut sel);
        let tokens: Vec<&[u8]> = memchr::tokens(block).collect();
        let spans = |spans: &[Span]| -> Vec<&[u8]> {
            spans.iter().map(|&(start, len)| &block[start..start + len]).collect()
        };
        if prefixes.iter().any(|p| p.is_empty()) {
            assert_eq!(spans(&sel.every), tokens);
        } else {
            assert!(sel.every.is_empty());
        }
        for (rider, prefix) in prefixes.iter().enumerate() {
            let handed = spans(index.tokens(&sel, rider).expect("a token rider"));
            let matching: Vec<&[u8]> = tokens
                .iter()
                .copied()
                .filter(|t| t.starts_with(prefix))
                .collect();
            let mut rest = handed.iter();
            for m in &matching {
                assert!(rest.any(|h| h == m), "rider {rider} {prefix:?} lost {m:?}");
            }
            let in_order = handed.windows(2).all(|w| w[0].as_ptr() < w[1].as_ptr());
            assert!(in_order, "rider {rider} {prefix:?} handed out of block order");
            let indexed = &prefix[..prefix.len().min(MAX_DEPTH)];
            for h in &handed {
                assert!(tokens.iter().any(|t| t.as_ptr() == h.as_ptr() && t == h));
                let both = h.len().min(indexed.len());
                assert_eq!(
                    h[..both],
                    indexed[..both],
                    "rider {rider} {prefix:?} was handed {h:?}"
                );
            }
        }
    }

    #[test]
    fn candidates_cover_every_prefix_match() {
        let block =
            b"apple ab a  abc\tbanana\nab\0x ab\0 a\0 \0 longprefix9 longprefix longprefiX9 b";
        check(block, &[b"a", b"ab", b"abc", b"b", b"", b"zz"]);
        check(block, &[b"ab\0", b"\0", b"a\0"]);
        check(block, &[b"longprefix9", b"longprefi", b"lo"]);
        check(block, &[b""]);
        check(b"", &[b"a"]);
        check(b"   \n\t ", &[b"a", b""]);
    }

    #[test]
    fn tokens_across_group_boundaries_and_short_blocks() {
        // "abcdefghij" runs from offset 10 across the 16-byte group edge.
        let block = b"x y zz abcabcdefghij abd\tab\xffab";
        check(block, &[b"abc", b"ab"]);
        check(block, &[b"abcd", b"a", b"x", b"z", b"\xff"]);
        check(block, &[b"abc", b""]);
        // Shorter than one group: the start scan runs on its padded tail.
        check(b"ab a\tabc", &[b"ab"]);
        check(b"ab a\tabc", &[b"ab", b"a", b"b", b"c", b"x"]);
        check(b"b", &[b"b"]);
    }

    #[test]
    fn more_than_sixty_four_riders_use_more_mask_words() {
        let prefixes: Vec<Vec<u8>> = (0..150u8)
            .map(|i| vec![b'a' + i % 26, b'a' + i / 26])
            .collect();
        let refs: Vec<&[u8]> = prefixes.iter().map(Vec::as_slice).collect();
        let index = RiderIndex::new(refs.iter().map(|p| Some(*p)));
        assert_eq!(index.tables.len(), 3 * index.depth);
        let block: Vec<u8> = prefixes
            .iter()
            .flat_map(|p| [p.as_slice(), b"tail "].concat())
            .collect();
        check(&block, &refs);
    }

    #[test]
    fn line_riders_take_no_slot_and_no_tokens() {
        let index = RiderIndex::new([None, Some(&b"ab"[..]), None]);
        assert_eq!(index.slots, 1);
        let mut sel = Selection::default();
        index.select(b"ab abc b", &mut sel);
        assert_eq!(sel.slots[0], vec![(0, 2), (3, 3)]);
        let empty = RiderIndex::new([None, None]);
        empty.select(b"ab abc b", &mut sel);
        assert!(sel.every.is_empty() && sel.slots.is_empty());
    }

    #[test]
    fn first_byte_filter_needs_few_first_bytes_and_no_every_rider() {
        let first = |prefixes: &[&[u8]]| RiderIndex::new(prefixes.iter().map(|p| Some(*p))).first;
        assert_eq!(first(&[b"ab", b"ac", b"b\0", b" x"]), Some(vec![b' ', b'a', b'b']));
        assert_eq!(first(&[b"a", b"b", b"c", b"d", b"ab"]).map(|f| f.len()), Some(4));
        assert_eq!(first(&[b"a", b"b", b"c", b"d", b"e"]), None);
        assert_eq!(first(&[b"a", b""]), None);
    }

    /// Block and prefix bytes: letters, NUL, all six whitespace bytes and
    /// high bytes, few enough that prefixes match.
    const ALPHABET: &[u8] = b"abc\0 \t\n\x0b\x0c\r\x80\xff";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `check` over arbitrary blocks and 0–70 prefixes of 0–10 bytes
        /// whose first bytes come from a pool of 1–6, so both sides of
        /// [`MAX_FIRST_BYTES`] and of the mask-word boundary are hit, with
        /// and without a prefix-less rider.
        #[test]
        fn selection_matches_starts_with(
            block in prop::collection::vec(prop::sample::select(ALPHABET.to_vec()), 0..120),
            pool in prop::collection::vec(prop::sample::select(ALPHABET.to_vec()), 1..7),
            picks in prop::collection::vec(0usize..1000, 0..71),
            tails in prop::collection::vec(
                prop::collection::vec(prop::sample::select(ALPHABET.to_vec()), 0..10), 71),
            every_at in 0usize..100,
        ) {
            let mut prefixes: Vec<Vec<u8>> = picks
                .iter()
                .zip(&tails)
                .map(|(&pick, tail)| [&[pool[pick % pool.len()]][..], tail].concat())
                .collect();
            // A quarter of the cases carry one prefix-less rider.
            if every_at < 25 {
                prefixes.insert(every_at.min(prefixes.len()), Vec::new());
            }
            let refs: Vec<&[u8]> = prefixes.iter().map(Vec::as_slice).collect();
            let index = RiderIndex::new(refs.iter().map(|p| Some(*p)));
            let mut first: Vec<u8> = refs.iter().filter_map(|p| p.first().copied()).collect();
            first.sort_unstable();
            first.dedup();
            let filtered = !refs.iter().any(|p| p.is_empty()) && first.len() <= MAX_FIRST_BYTES;
            prop_assert_eq!(index.first.is_some(), filtered);
            check(&block, &refs);
        }
    }
}
