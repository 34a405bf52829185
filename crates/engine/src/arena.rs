//! Per-worker token arena/interner for the fold-combiner fast path.
//!
//! [`TokenMap`] is an open-addressing hash map keyed by byte strings whose
//! key storage is one append-only arena buffer: the first occurrence of a
//! token copies its bytes into the arena; every later occurrence only probes
//! the index table and folds into the existing value. Nothing is allocated
//! per occurrence — the engines materialize each **distinct** token's real
//! key type exactly once, at flush time, via
//! [`MapReduceJob::token_key`](crate::MapReduceJob::token_key).
//!
//! The hot path is tuned for short tokens (words): a token of at most 8
//! bytes is packed little-endian into a `u64` that is stored **inline in
//! the table slot**, so a repeat occurrence — the overwhelmingly common
//! case in a wordcount-shaped workload — is resolved with one slot load
//! and one `u64`+length compare, never touching the arena. Longer tokens
//! keep a 64-bit hash in the slot and fall back to an arena byte compare.

/// One interned token: where its bytes live in the arena and the folded
/// value.
struct Entry<V> {
    off: u32,
    len: u32,
    value: V,
}

/// One index slot: the inline key (packed bytes for short tokens, full
/// hash for long ones), the entry index + 1 (0 = empty), and the token
/// length (part of key identity — short tokens are zero-padded, and
/// tokens may legitimately contain NUL bytes).
#[derive(Clone, Copy)]
struct Slot {
    key: u64,
    idx: u32,
    len: u32,
}

const EMPTY: Slot = Slot { key: 0, idx: 0, len: 0 };

/// Multiplier from FxHash; any odd constant with good bit dispersion works.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Pack up to 8 token bytes little-endian into a `u64` (zero-padded).
/// Exact as a key when paired with the length: two short tokens are equal
/// iff their packed keys and lengths are equal.
#[inline]
fn key8(token: &[u8]) -> u64 {
    let mut k = 0u64;
    for (i, &b) in token.iter().enumerate() {
        k |= (b as u64) << (8 * i);
    }
    k
}

/// The inline key for a token of any length: packed bytes when they fit,
/// otherwise the full `fxhash`. Long-token equality is confirmed against
/// the arena, so hash collisions cost a compare, never a wrong answer.
#[inline]
fn inline_key(token: &[u8]) -> u64 {
    if token.len() <= 8 {
        key8(token)
    } else {
        fxhash::hash64(token)
    }
}

/// The 8 bytes at `hay[start..]` packed little-endian, zero-padded where the
/// buffer ends first. One unconditional 8-byte load except in a buffer's
/// last 7 bytes, where it falls back to the byte loop of [`key8`].
///
/// One load serves two readers: the rider predicate index looks a token's
/// leading bytes up in this word as it is, and [`lead8`] masks it down to
/// the inline key of a short token.
///
/// # Panics
/// Panics if `start` lies past the end of `hay`.
#[inline]
pub(crate) fn load8(hay: &[u8], start: usize) -> u64 {
    let tail = &hay[start..];
    match tail.first_chunk::<8>() {
        Some(chunk) => u64::from_le_bytes(*chunk),
        None => key8(tail),
    }
}

/// [`key8`] of the `len`-byte token at `hay[start..]` (of its first 8 bytes
/// when longer): [`load8`] masked to the token length. The byte-shift loop
/// in [`key8`] runs a data-dependent number of iterations and mispredicts
/// on every length change; this is branch-free for the common case.
#[inline]
fn lead8(hay: &[u8], start: usize, len: usize) -> u64 {
    // `checked_shl` is `None` from 8 bytes up: nothing to mask off.
    let beyond = u64::MAX.checked_shl(8 * len as u32).unwrap_or(0);
    load8(hay, start) & !beyond
}

/// Table index seed: one multiply and a fold of the high bits (the low
/// bits of a product alone are poorly mixed, and the table is indexed by
/// low bits).
#[inline]
fn mix(key: u64, len: usize) -> u64 {
    let h = (key ^ (len as u64).rotate_left(61)).wrapping_mul(SEED);
    h ^ (h >> 32)
}

/// A byte-string-keyed fold map backed by a bump arena (see module docs).
pub struct TokenMap<V> {
    /// All distinct token bytes, concatenated in insertion order.
    arena: Vec<u8>,
    /// One entry per distinct token, in insertion order.
    entries: Vec<Entry<V>>,
    /// Open-addressing index: power-of-two table of [`Slot`]s.
    table: Vec<Slot>,
}

impl<V> Default for TokenMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> TokenMap<V> {
    /// An empty map. No allocation happens until the first insert.
    pub fn new() -> Self {
        TokenMap { arena: Vec::new(), entries: Vec::new(), table: Vec::new() }
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no token has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[cold]
    fn grow(&mut self) {
        // Jump straight to a table sized for real workloads: growth
        // rehashes are pure overhead on the hot path, and a worker-scoped
        // map that interns anything at all tends to intern thousands.
        let cap = (self.table.len() * 2).max(1024);
        self.table.clear();
        self.table.resize(cap, EMPTY);
        let mask = cap - 1;
        for (i, e) in self.entries.iter().enumerate() {
            let tok = &self.arena[e.off as usize..(e.off + e.len) as usize];
            let key = inline_key(tok);
            let mut slot = mix(key, tok.len()) as usize & mask;
            while self.table[slot].idx != 0 {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = Slot { key, idx: i as u32 + 1, len: e.len };
        }
    }

    /// Fold `value` into the accumulator for `token`, interning the token on
    /// first sight. `fold` merges an incoming value into the existing
    /// accumulator (same contract as
    /// [`MapReduceJob::combine_fold`](crate::MapReduceJob::combine_fold)).
    #[inline]
    pub fn upsert(&mut self, token: &[u8], value: V, fold: impl FnOnce(&mut V, V)) {
        self.upsert_keyed(token, inline_key(token), value, fold);
    }

    /// [`upsert`](Self::upsert) for a token that borrows from `hay` (e.g. a
    /// token the scan kernel just carved out of a block): the inline key is
    /// built with one unconditional 8-byte load instead of a variable-length
    /// byte loop.
    ///
    /// # Panics
    /// May panic (or intern under a wrong key) if `token` is not actually a
    /// subslice of `hay`.
    #[inline]
    pub fn upsert_within(&mut self, hay: &[u8], token: &[u8], value: V, fold: impl FnOnce(&mut V, V)) {
        // `token` borrows from `hay`: the offset is recovered from the
        // borrow itself.
        let start = token.as_ptr() as usize - hay.as_ptr() as usize;
        self.upsert_span(hay, start, token.len(), value, fold);
    }

    /// [`upsert_within`](Self::upsert_within) for the token
    /// `hay[start..start + len]` — the fan-out kernel's hot-loop entry point,
    /// which already holds tokens as `(offset, len)` spans of the block.
    ///
    /// # Panics
    /// Panics if the span lies outside `hay`.
    #[inline]
    pub(crate) fn upsert_span(
        &mut self,
        hay: &[u8],
        start: usize,
        len: usize,
        value: V,
        fold: impl FnOnce(&mut V, V),
    ) {
        let token = &hay[start..start + len];
        let key = if len <= 8 { lead8(hay, start, len) } else { fxhash::hash64(token) };
        self.upsert_keyed(token, key, value, fold);
    }

    #[inline]
    fn upsert_keyed(&mut self, token: &[u8], key: u64, value: V, fold: impl FnOnce(&mut V, V)) {
        if self.table.is_empty() {
            self.grow();
        }
        let tl = token.len();
        let mask = self.table.len() - 1;
        let mut slot = mix(key, tl) as usize & mask;
        loop {
            let s = self.table[slot];
            if s.idx == 0 {
                return self.insert_cold(token, key, value);
            }
            if s.key == key && s.len as usize == tl {
                let e = &mut self.entries[s.idx as usize - 1];
                // Short tokens are fully identified by (key, len); long
                // tokens confirm the hash match against the arena bytes.
                if tl <= 8 || &self.arena[e.off as usize..(e.off + e.len) as usize] == token {
                    fold(&mut e.value, value);
                    return;
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// First sight of a token: intern it. Out of line so the (dominant)
    /// repeat-occurrence path stays small; the load-factor check lives here
    /// because only inserts can change the load factor.
    #[inline(never)]
    fn insert_cold(&mut self, token: &[u8], key: u64, value: V) {
        if (self.entries.len() + 1) * 4 > self.table.len() * 3 {
            self.grow();
        }
        let tl = token.len();
        let mask = self.table.len() - 1;
        let mut slot = mix(key, tl) as usize & mask;
        while self.table[slot].idx != 0 {
            slot = (slot + 1) & mask;
        }
        let off = self.arena.len() as u32;
        self.arena.extend_from_slice(token);
        self.entries.push(Entry { off, len: tl as u32, value });
        self.table[slot] = Slot { key, idx: self.entries.len() as u32, len: tl as u32 };
    }

    /// Consume the map, yielding each distinct token's bytes and folded
    /// value in insertion order.
    pub fn drain_into(self, mut f: impl FnMut(&[u8], V)) {
        let arena = self.arena;
        for e in self.entries {
            f(&arena[e.off as usize..(e.off + e.len) as usize], e.value);
        }
    }

    /// Merge every (token, value) of `other` into `self` with `fold`.
    pub fn merge_from(&mut self, other: TokenMap<V>, mut fold: impl FnMut(&mut V, V)) {
        other.drain_into(|tok, v| self.upsert(tok, v, &mut fold));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn upsert_folds_per_distinct_token() {
        let mut m = TokenMap::new();
        for tok in [&b"apple"[..], b"pear", b"apple", b"apple", b"plum", b"pear"] {
            m.upsert(tok, 1i64, |a, n| *a += n);
        }
        assert_eq!(m.len(), 3);
        let mut got = BTreeMap::new();
        m.drain_into(|tok, v| {
            got.insert(tok.to_vec(), v);
        });
        assert_eq!(got[&b"apple".to_vec()], 3);
        assert_eq!(got[&b"pear".to_vec()], 2);
        assert_eq!(got[&b"plum".to_vec()], 1);
    }

    #[test]
    fn survives_growth_and_collisions() {
        let mut m = TokenMap::new();
        let tokens: Vec<String> = (0..5000).map(|i| format!("tok{}", i % 1000)).collect();
        for t in &tokens {
            m.upsert(t.as_bytes(), 1u64, |a, n| *a += n);
        }
        assert_eq!(m.len(), 1000);
        let mut total = 0;
        m.drain_into(|_, v| total += v);
        assert_eq!(total, 5000);
    }

    #[test]
    fn merge_from_folds_across_maps() {
        let mut a = TokenMap::new();
        let mut b = TokenMap::new();
        a.upsert(b"x", 1i64, |x, n| *x += n);
        a.upsert(b"y", 2, |x, n| *x += n);
        b.upsert(b"y", 3, |x, n| *x += n);
        b.upsert(b"z", 4, |x, n| *x += n);
        a.merge_from(b, |x, n| *x += n);
        let mut got = BTreeMap::new();
        a.drain_into(|tok, v| {
            got.insert(tok.to_vec(), v);
        });
        assert_eq!(got[&b"x".to_vec()], 1);
        assert_eq!(got[&b"y".to_vec()], 5);
        assert_eq!(got[&b"z".to_vec()], 4);
    }

    #[test]
    fn empty_and_binary_tokens_are_valid_keys() {
        let mut m = TokenMap::new();
        m.upsert(b"", 1i64, |a, n| *a += n);
        m.upsert(b"\xff\x00\xfe", 2, |a, n| *a += n);
        m.upsert(b"", 10, |a, n| *a += n);
        assert_eq!(m.len(), 2);
        let mut got = BTreeMap::new();
        m.drain_into(|tok, v| {
            got.insert(tok.to_vec(), v);
        });
        assert_eq!(got[&b"".to_vec()], 11);
        assert_eq!(got[&b"\xff\x00\xfe".to_vec()], 2);
    }

    #[test]
    fn zero_padding_does_not_conflate_lengths() {
        // "ab" packs to the same u64 as "ab\0" — the length field must keep
        // them distinct (NUL is a token byte, not whitespace).
        let mut m = TokenMap::new();
        m.upsert(b"ab", 1i64, |a, n| *a += n);
        m.upsert(b"ab\x00", 10, |a, n| *a += n);
        m.upsert(b"ab", 1, |a, n| *a += n);
        assert_eq!(m.len(), 2);
        let mut got = BTreeMap::new();
        m.drain_into(|tok, v| {
            got.insert(tok.to_vec(), v);
        });
        assert_eq!(got[&b"ab".to_vec()], 2);
        assert_eq!(got[&b"ab\x00".to_vec()], 10);
    }

    #[test]
    fn block_tail_tokens_key_like_any_other() {
        // The last 7 bytes of a buffer cannot take the 8-byte load; tokens
        // there must intern under the same key as the same bytes mid-buffer.
        let hay = b"abc tail   abc   wordlong8 tail abc";
        let mut spans = Vec::new();
        memchr::for_each_token_start(hay, None, |s| spans.push((s, memchr::token_end(hay, s) - s)));
        for &(start, len) in &spans {
            let tok = &hay[start..start + len];
            let want = if len >= 8 { key8(&tok[..8]) } else { key8(tok) };
            assert_eq!(lead8(hay, start, len), want, "token at {start}");
        }
        let mut m = TokenMap::new();
        for &(start, len) in &spans {
            m.upsert_span(hay, start, len, 1i64, |a, n| *a += n);
        }
        let mut by_slice = TokenMap::new();
        for t in memchr::tokens(hay) {
            by_slice.upsert_within(hay, t, 1i64, |a, n| *a += n);
        }
        let mut got = BTreeMap::new();
        m.drain_into(|tok, v| {
            got.insert(tok.to_vec(), v);
        });
        let mut same = BTreeMap::new();
        by_slice.drain_into(|tok, v| {
            same.insert(tok.to_vec(), v);
        });
        assert_eq!(got, same);
        assert_eq!(got[&b"abc".to_vec()], 3, "mid-buffer and tail occurrences fold together");
        assert_eq!(got[&b"tail".to_vec()], 2);
        assert_eq!(got[&b"wordlong8".to_vec()], 1);
    }

    #[test]
    fn long_tokens_fall_back_to_arena_compare() {
        let mut m = TokenMap::new();
        let long_a = b"a-fairly-long-token-well-past-eight-bytes";
        let long_b = b"another-long-token-also-past-eight-bytes!";
        m.upsert(long_a, 1i64, |a, n| *a += n);
        m.upsert(long_b, 2, |a, n| *a += n);
        m.upsert(long_a, 3, |a, n| *a += n);
        assert_eq!(m.len(), 2);
        let mut got = BTreeMap::new();
        m.drain_into(|tok, v| {
            got.insert(tok.to_vec(), v);
        });
        assert_eq!(got[&long_a.to_vec()], 4);
        assert_eq!(got[&long_b.to_vec()], 2);
    }
}
