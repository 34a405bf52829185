//! The reduce core shared by every executor: what a worker accumulates for a
//! job while it scans ([`JobAcc`]), and the three steps that turn the
//! workers' accumulators into the job's output relation —
//! [`split_into_bins`], [`reduce_bin`], [`assemble`]. The batch front
//! (`exec.rs`) calls them in a row; the server (`scan_server.rs`) calls the
//! same three from its reduce-pool tasks, each under its own `catch_unwind`
//! (DESIGN.md, "One map core, one reduce core"). A bin is a reduce shard:
//! keys are routed by [`shard_of_hash`] of their [`key_hash`], nothing else.
//!
//! A job without a fold combiner keeps every value, but need not keep a
//! hot key once per value: its records are grouped where they are emitted,
//! in a [`Groups`] table that holds a key, its hash, and the values that
//! arrived for it while a small fixed-size table of recent keys still
//! pointed at the group. A key seen once costs one entry and no allocation
//! of its own; a hot key costs one entry however many values it has; a key
//! that comes back after dropping out of that table opens another group.
//! Nothing downstream hashes a key again: tables merge groups by the
//! stored hash, and the reduce side joins a key's groups, within a
//! table and across tables, by *sorting the groups by key*
//! ([`sort_group_reduce`]), which also leaves the part in the order the
//! output relation wants. A fold job reaches the reduce side as one value
//! per key ([`reduce_folded`]).
//!
//! Both append a part sorted by key, so an output relation is built by
//! concatenating key-disjoint parts and handing them to
//! `BTreeMap::from_iter`, whose stable sort detects the sorted runs and
//! merges them.

use crate::arena::TokenMap;
use crate::exec::{JobOutput, ScanStats};
use crate::partition::{key_hash, shard_of_hash};
use crate::types::MapReduceJob;
use fxhash::FxHashMap;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

/// Map-side accumulator for one job on one worker. Fold jobs stream into
/// one value per key; token-identity fold jobs
/// ([`MapReduceJob::map_emits_token`]) fold under the raw token bytes in a
/// [`TokenMap`] arena, and no key is materialized until the finish-time
/// flush calls `token_key` once per distinct token. A job without a fold
/// combiner keeps every value, so its accumulator is already the
/// reduce-side layout: one [`Groups`] table per reduce shard, routed at
/// emit by the key's hash, which the table keeps (see DESIGN.md, "The
/// reduce path").
pub(crate) enum JobAcc<J: MapReduceJob> {
    Fold(FxHashMap<J::K, J::V>),
    Grouped(Vec<ShardGroups<J>>),
    Tok(TokenMap<J::V>),
}

/// A non-fold job's records of one reduce shard, grouped by key.
pub(crate) type ShardGroups<J> = Groups<<J as MapReduceJob>::K, <J as MapReduceJob>::V>;

impl<J: MapReduceJob> JobAcc<J> {
    /// The accumulator kind is a pure function of the job's declared flags
    /// and the reduce width, so every worker (and the resilient scan
    /// path's block-local accumulators) picks the same variant, with the
    /// same shard count, for a job.
    fn for_job(job: &J, nshards: usize) -> Self {
        if job.combine_is_fold() {
            if job.map_emits_token() {
                JobAcc::Tok(TokenMap::new())
            } else {
                JobAcc::Fold(FxHashMap::default())
            }
        } else {
            JobAcc::Grouped((0..nshards).map(|_| Groups::new()).collect())
        }
    }

    pub(crate) fn push(&mut self, job: &J, k: J::K, v: J::V) {
        match self {
            JobAcc::Fold(map) => fold_into(job, map, k, v),
            JobAcc::Grouped(shards) => {
                let hash = key_hash(&k);
                let shard = shard_of_hash(hash, shards.len());
                shards[shard].push(hash, k, v);
            }
            JobAcc::Tok(_) => unreachable!("token-identity jobs fold inside the fan-out kernel"),
        }
    }

    /// Merge a committed block-local accumulator into this (persistent)
    /// one — the resilient scan path's idempotent-commit step.
    pub(crate) fn merge(&mut self, job: &J, other: JobAcc<J>) {
        match (self, other) {
            (JobAcc::Fold(m), JobAcc::Fold(o)) => {
                for (k, v) in o {
                    fold_into(job, m, k, v);
                }
            }
            (JobAcc::Grouped(m), JobAcc::Grouped(o)) => {
                for (shard, block_shard) in m.iter_mut().zip(o) {
                    shard.append(block_shard);
                }
            }
            (JobAcc::Tok(m), JobAcc::Tok(o)) => {
                m.merge_from(o, |acc, next| job.combine_fold(acc, next));
            }
            _ => unreachable!("accumulator kinds are fixed per job"),
        }
    }
}

/// One worker's accumulated state for one job over the scan so far.
pub(crate) struct JobPartial<J: MapReduceJob> {
    /// Records the job's map emitted on this worker (pre-combiner).
    pub(crate) emitted: u64,
    pub(crate) acc: JobAcc<J>,
}

impl<J: MapReduceJob> JobPartial<J> {
    /// An empty partial for `job`, reducing over `nshards` shards.
    pub(crate) fn new(job: &J, nshards: usize) -> Self {
        JobPartial {
            emitted: 0,
            acc: JobAcc::for_job(job, nshards),
        }
    }
}

/// One bin's reduced output: (key, output) pairs sorted by key.
pub(crate) type ReducedPart<J> = Vec<(<J as MapReduceJob>::K, <J as MapReduceJob>::Out)>;

/// One bin's reduce input.
pub(crate) enum ShardInput<J: MapReduceJob> {
    /// Fold job: one value per key, the workers' maps merged by the flush.
    Folded(FxHashMap<J::K, J::V>),
    /// Non-fold job: the tables routed to this bin, in worker order.
    Grouped(Vec<ShardGroups<J>>),
}

/// Step 1: hand a job's worker accumulators over to its `nbins` reduce bins,
/// one per reduce shard. Returns each bin's reduce input and the
/// reduce-input records routed into it.
///
/// Fold and token maps are flushed: one route and one fold-merge per
/// distinct key per worker. A non-fold job's tables were routed at emit, so
/// each moves to its bin whole.
///
/// Runs the job's `combine_fold`, `token_key` and `Hash`, which may panic.
pub(crate) fn split_into_bins<J: MapReduceJob>(
    job: &J,
    partials: Vec<JobAcc<J>>,
    nbins: usize,
) -> (Vec<ShardInput<J>>, Vec<u64>) {
    let mut bin_records = vec![0u64; nbins];
    // A job's partials are all of one kind, the one `JobAcc::for_job` picks
    // from the same flag.
    let bins = if job.combine_is_fold() {
        let mut folded: Vec<FxHashMap<J::K, J::V>> = (0..nbins).map(|_| FxHashMap::default()).collect();
        // Fold-merges the values of keys seen by several workers.
        let mut flush = |k: J::K, v: J::V| {
            let b = shard_of_hash(key_hash(&k), nbins);
            bin_records[b] += 1;
            fold_into(job, &mut folded[b], k, v);
        };
        for acc in partials {
            match acc {
                JobAcc::Fold(map) => map.into_iter().for_each(|(k, v)| flush(k, v)),
                // The one place the fast path builds real keys: once per
                // distinct token per worker accumulator.
                JobAcc::Tok(map) => map.drain_into(|tok, v| flush(job.token_key(tok), v)),
                JobAcc::Grouped(_) => {}
            }
        }
        folded.into_iter().map(ShardInput::Folded).collect()
    } else {
        let mut bins: Vec<Vec<ShardGroups<J>>> = (0..nbins).map(|_| Vec::new()).collect();
        for acc in partials {
            let JobAcc::Grouped(worker) = acc else { continue };
            // Worker by worker, so a bin's tables stay in worker order.
            for ((bin, n), table) in bins.iter_mut().zip(&mut bin_records).zip(worker) {
                *n += table.records();
                bin.push(table);
            }
        }
        bins.into_iter().map(ShardInput::Grouped).collect()
    };
    (bins, bin_records)
}

/// Step 2, once per bin and in parallel across bins: combine and reduce one
/// bin's input into its part, sorted by key.
///
/// Runs the job's `combine` and `reduce`, which may panic.
pub(crate) fn reduce_bin<J: MapReduceJob>(job: &J, input: ShardInput<J>) -> ReducedPart<J> {
    let mut part = Vec::new();
    match input {
        ShardInput::Folded(map) => reduce_folded(job, map, &mut part),
        ShardInput::Grouped(tables) => sort_group_reduce(job, tables, &mut part),
    }
    part
}

/// Step 3: build the output relation from the bins' parts. Each part is
/// sorted and the parts hold disjoint key sets (split by key hash), so the
/// concatenation is a duplicate-free sequence of sorted runs: `from_iter`'s
/// stable sort merges them, then bulk-builds. `stats` arrives with its
/// scan-side fields filled; the output count is set here.
pub(crate) fn assemble<J: MapReduceJob>(
    parts: Vec<ReducedPart<J>>,
    mut stats: ScanStats,
) -> JobOutput<J::K, J::Out> {
    let records = BTreeMap::from_iter(concat(parts));
    stats.reduce_output_records = records.len() as u64;
    JobOutput { records, stats }
}

/// Fold one emitted pair into a fold job's one-value-per-key accumulator.
fn fold_into<J: MapReduceJob>(job: &J, acc: &mut FxHashMap<J::K, J::V>, k: J::K, v: J::V) {
    match acc.entry(k) {
        Entry::Occupied(mut e) => job.combine_fold(e.get_mut(), v),
        Entry::Vacant(e) => {
            e.insert(v);
        }
    }
}

/// Concatenate owned parts into one exactly-sized vector, moving elements.
fn concat<T>(parts: Vec<Vec<T>>) -> Vec<T> {
    let mut all = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for mut part in parts {
        all.append(&mut part);
    }
    all
}

/// One key's values in arrival order. A key seen once keeps its value in
/// the table entry and allocates nothing.
enum Group<V> {
    One(V),
    Many(Vec<V>),
}

impl<V> Group<V> {
    fn len(&self) -> u64 {
        match self {
            Group::One(_) => 1,
            Group::Many(values) => values.len() as u64,
        }
    }

    /// Move the values to the end of `values`. An empty `values` too small
    /// to hold them is replaced by the key's vector rather than grown.
    fn append_to(self, values: &mut Vec<V>) {
        match self {
            Group::One(v) => values.push(v),
            Group::Many(mine) if values.is_empty() && values.capacity() < mine.len() => *values = mine,
            Group::Many(mut mine) => values.append(&mut mine),
        }
    }

    /// Put `later`'s values behind this group's.
    fn extend(&mut self, later: Group<V>) {
        if let Group::Many(values) = self {
            return later.append_to(values);
        }
        let mut values = Vec::new();
        std::mem::replace(self, Group::Many(Vec::new())).append_to(&mut values);
        later.append_to(&mut values);
        *self = Group::Many(values);
    }
}

/// A key, its [`key_hash`] and a run of its values.
struct KeyGroup<K, V> {
    hash: u64,
    key: K,
    group: Group<V>,
}

/// A non-fold job's records grouped by key: groups in the order they were
/// opened, each holding its key once and the key's values in arrival order.
///
/// A record joins the group of its key if that group is one of the two
/// its set of `recent` saw last, and opens a new group otherwise — partial
/// pre-aggregation (Larson, ICDE 2002) in a table of fixed size. A hot key
/// stays in its set and is held once however many values it has. A key that
/// dropped out in between is held again, later in the vector, and
/// [`sort_group_reduce`] puts its groups back together, in order. Unique
/// keys, the other common shape, never hit and pay one probe of a table
/// that stays in the cache. The table is small on purpose: a complete index
/// of a worker's keys is hundreds of kilobytes probed at random once a
/// record, which costs more than it saves when keys are unique and makes
/// that cost depend on what else is using the last-level cache
/// (EXPERIMENTS.md, "Non-fold reduce path", has both measurements).
pub(crate) struct Groups<K, V> {
    groups: Vec<KeyGroup<K, V>>,
    /// Sets of two, picked by key hash, the more recently used first; empty
    /// until the first record. Two ways, so that a hot key whose set
    /// another key shares is not thrown out every time that key shows up.
    recent: Vec<[Recent; 2]>,
    records: u64,
}

/// A group some set last saw: `group` is its number in `groups` plus one
/// (`0`: none), `tag` is 32 bits of its key's hash that did not pick the
/// set, so a miss is decided without reading the group.
#[derive(Clone, Copy)]
struct Recent {
    tag: u32,
    group: u32,
}

/// log2 of the sets in [`Groups::recent`]: 32 KiB a table. A scan worker
/// fills one table per rider and shard at a time.
const RECENT_BITS: u32 = 11;

impl<K: Eq, V> Groups<K, V> {
    pub(crate) fn new() -> Self {
        Groups {
            groups: Vec::new(),
            recent: Vec::new(),
            records: 0,
        }
    }

    /// Add one record; `hash` is `key_hash(&key)`.
    pub(crate) fn push(&mut self, hash: u64, key: K, v: V) {
        self.insert(KeyGroup {
            hash,
            key,
            group: Group::One(v),
        });
    }

    /// Records held.
    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    /// Move every group of `later` in behind this table's values of the
    /// same key: one table operation per group of `later`.
    pub(crate) fn append(&mut self, later: Groups<K, V>) {
        if self.groups.is_empty() {
            *self = later;
        } else {
            later.groups.into_iter().for_each(|g| self.insert(g));
        }
    }

    /// Put a key's values behind those of its latest group, if the key's
    /// set still points at it, and in a new group otherwise.
    fn insert(&mut self, new: KeyGroup<K, V>) {
        // The high bits of the hash picked the shard, so a table sees only
        // a slice of them; the multiply folds the low bits in.
        const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;
        self.records += new.group.len();
        if self.recent.is_empty() {
            self.recent = vec![[Recent { tag: 0, group: 0 }; 2]; 1 << RECENT_BITS];
        }
        let mixed = new.hash.wrapping_mul(SPREAD);
        let set = &mut self.recent[(mixed >> (64 - RECENT_BITS)) as usize];
        let tag = mixed as u32;
        for way in 0..2 {
            let seen = set[way];
            if seen.group != 0 && seen.tag == tag {
                let held = &mut self.groups[seen.group as usize - 1];
                if held.hash == new.hash && held.key == new.key {
                    set.swap(0, way);
                    return held.group.extend(new.group);
                }
            }
        }
        self.groups.push(new);
        // Past 2^32 groups a table stops joining records to new groups.
        let group = u32::try_from(self.groups.len()).unwrap_or(0);
        *set = [Recent { tag, group }, set[0]];
    }

}

/// Reduce a non-fold job's shard. `tables` hold the shard's records as
/// grouped by each worker, in worker order. Stable-sorts the groups by key,
/// so the groups of one key become neighbours still in worker, then
/// opening, order, hands each key's values — worker by worker, each in
/// arrival order — to
/// [`combine`](MapReduceJob::combine) and the result to
/// [`reduce`](MapReduceJob::reduce), and appends the surviving pairs to
/// `out` in key order. Keys are compared, never hashed.
fn sort_group_reduce<J: MapReduceJob>(
    job: &J,
    tables: impl IntoIterator<Item = Groups<J::K, J::V>>,
    out: &mut Vec<(J::K, J::Out)>,
) {
    let mut groups = concat(tables.into_iter().map(|t| t.groups).collect());
    groups.sort_by(|a, b| a.key.cmp(&b.key));
    // One values buffer for the whole shard: an identity `combine` hands it
    // straight back.
    let mut values: Vec<J::V> = Vec::new();
    let mut groups = groups.into_iter().peekable();
    while let Some(KeyGroup { key, group, .. }) = groups.next() {
        group.append_to(&mut values);
        while let Some(next) = groups.next_if(|g| g.key == key) {
            next.group.append_to(&mut values);
        }
        values = job.combine(&key, values);
        if let Some(o) = job.reduce(&key, &values) {
            out.push((key, o));
        }
        values.clear();
    }
}

/// Reduce a fold job's shard — one already-folded value per distinct key,
/// in any order — and append the surviving pairs to `out` in key order.
fn reduce_folded<J: MapReduceJob>(
    job: &J,
    folded: impl IntoIterator<Item = (J::K, J::V)>,
    out: &mut Vec<(J::K, J::Out)>,
) {
    let start = out.len();
    for (k, v) in folded {
        if let Some(o) = job.reduce(&k, std::slice::from_ref(&v)) {
            out.push((k, o));
        }
    }
    out[start..].sort_unstable_by(|a, b| a.0.cmp(&b.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `combine` keeps a group's first and last value, `reduce` drops keys
    /// starting with `x` and otherwise returns the values it was given.
    struct Ends;
    impl MapReduceJob for Ends {
        type K = String;
        type V = u32;
        type Out = Vec<u32>;
        fn map(&self, _: &str, _: &mut dyn FnMut(String, u32)) {}
        fn combine(&self, _k: &String, v: Vec<u32>) -> Vec<u32> {
            match v.as_slice() {
                [first, .., last] => vec![*first, *last],
                _ => v,
            }
        }
        fn reduce(&self, k: &String, v: &[u32]) -> Option<Vec<u32>> {
            (!k.starts_with('x')).then(|| v.to_vec())
        }
    }

    /// One worker's table of `records`, pushed in order.
    fn table(records: &[(&str, u32)]) -> Groups<String, u32> {
        let mut table = Groups::new();
        for &(k, v) in records {
            let key = k.to_string();
            table.push(key_hash(&key), key, v);
        }
        table
    }

    #[test]
    fn groups_keep_table_then_arrival_order_and_come_out_sorted() {
        let worker0 = table(&[("b", 1), ("a", 2), ("x", 3), ("b", 4)]);
        let worker1 = table(&[("a", 5), ("b", 6), ("c", 7)]);
        assert_eq!((worker0.records(), worker1.records()), (4, 3));
        let mut out = vec![("0".to_string(), vec![0])];
        sort_group_reduce(&Ends, [worker0, worker1], &mut out);
        assert_eq!(
            out,
            vec![
                ("0".to_string(), vec![0]),
                ("a".to_string(), vec![2, 5]),
                ("b".to_string(), vec![1, 6]),
                ("c".to_string(), vec![7]),
            ]
        );
        let before = out.clone();
        sort_group_reduce(&Ends, [Groups::new()], &mut out);
        assert_eq!(out, before);
    }

    #[test]
    fn append_puts_later_values_behind_and_counts_them() {
        let mut persistent = table(&[("a", 1), ("b", 2), ("a", 3)]);
        persistent.append(table(&[("b", 4), ("c", 5), ("b", 6)]));
        persistent.append(Groups::new());
        assert_eq!(persistent.records(), 6);
        let mut weights: Vec<u64> = persistent.groups.iter().map(|g| g.group.len()).collect();
        weights.sort_unstable();
        assert_eq!(weights, vec![1, 2, 3]);
        let mut out = Vec::new();
        /// Identity `combine`, `reduce` returns what it is given.
        struct All;
        impl MapReduceJob for All {
            type K = String;
            type V = u32;
            type Out = Vec<u32>;
            fn map(&self, _: &str, _: &mut dyn FnMut(String, u32)) {}
            fn reduce(&self, _k: &String, v: &[u32]) -> Option<Vec<u32>> {
                Some(v.to_vec())
            }
        }
        sort_group_reduce(&All, [persistent], &mut out);
        assert_eq!(
            out,
            vec![
                ("a".to_string(), vec![1, 3]),
                ("b".to_string(), vec![2, 4, 6]),
                ("c".to_string(), vec![5]),
            ]
        );
    }

    #[test]
    fn a_key_joins_its_latest_group_while_its_set_holds_it_and_reopens_after() {
        // Hashes that share their high bits, as one shard's do.
        let hash = |k: u32| u64::from(k).wrapping_mul(0x0001_0000_0001) >> 3;
        // Few keys: each stays in its set, however the rounds interleave them.
        let mut table: Groups<u32, u32> = Groups::new();
        for round in 0..3 {
            for k in (0..100).rev() {
                table.push(hash(k), k, round);
            }
        }
        assert_eq!(table.records(), 300);
        let keys: Vec<u32> = table.groups.iter().map(|g| g.key).collect();
        assert_eq!(keys, (0..100).rev().collect::<Vec<_>>());
        assert!(table.groups.iter().all(|g| g.group.len() == 3));

        // More keys than the sets hold: a key that dropped out opens a new group,
        // every record is kept, and the reduce side sees each key whole,
        // its values in arrival order.
        let keys = 3 << RECENT_BITS;
        let mut table: Groups<u32, u32> = Groups::new();
        for round in 0..3 {
            for k in 0..keys {
                table.push(hash(k), k, round);
            }
        }
        assert_eq!(table.records(), 3 * u64::from(keys));
        assert!(table.groups.len() > keys as usize, "some key must have dropped out of its set");
        assert_eq!(table.recent.len(), 1 << RECENT_BITS);
        struct All;
        impl MapReduceJob for All {
            type K = u32;
            type V = u32;
            type Out = Vec<u32>;
            fn map(&self, _: &str, _: &mut dyn FnMut(u32, u32)) {}
            fn reduce(&self, _k: &u32, v: &[u32]) -> Option<Vec<u32>> {
                Some(v.to_vec())
            }
        }
        let mut out = Vec::new();
        sort_group_reduce(&All, [table], &mut out);
        assert_eq!(out, (0..keys).map(|k| (k, vec![0, 1, 2])).collect::<Vec<_>>());
    }

    #[test]
    fn folded_parts_sort_only_what_they_append() {
        let mut out = vec![("z".to_string(), vec![9])];
        let folded = [("c", 1), ("xa", 2), ("a", 3)].map(|(k, v)| (k.to_string(), v));
        reduce_folded(&Ends, folded, &mut out);
        assert_eq!(
            out,
            vec![
                ("z".to_string(), vec![9]),
                ("a".to_string(), vec![3]),
                ("c".to_string(), vec![1]),
            ]
        );
    }
}
