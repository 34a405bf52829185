//! The in-memory block store the real engine scans.
//!
//! Mirrors the HDFS view at a small scale: a file is a sequence of blocks,
//! each a chunk of newline-delimited data. Blocks are the unit of map-task
//! input and of shared scanning.
//!
//! Storage is one contiguous `Arc<[u8]>` plus a block-offset index, so
//! [`BlockStore::block`] hands out a borrowed `&[u8]` slice with no per-block
//! heap object and no copy. Blocks are byte slices — the store accepts
//! arbitrary bytes, including invalid UTF-8; the [`BlockStore::block_str`]
//! shim recovers the old `&str` view with a typed error instead of a panic.

use std::collections::HashMap;
use std::sync::Arc;

/// Stable identity of one named file (one [`BlockStore`]) inside a
/// [`crate::ScanService`]'s file catalog.
///
/// Ids are dense indices assigned at registration and never reused, so a
/// `FileId` stays valid for the catalog's lifetime. Callers route by this
/// token (or by name) instead of by construction order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub(crate) u32);

impl FileId {
    /// The dense index this id maps to (registration order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

/// Typed error for a name or id that no registered file matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFile {
    /// What the caller asked for — a name, or a stringified [`FileId`]
    /// from a foreign catalog.
    pub requested: String,
}

impl std::fmt::Display for UnknownFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown file: {}", self.requested)
    }
}

impl std::error::Error for UnknownFile {}

/// A name ↔ [`FileId`] registry over a set of [`BlockStore`]s.
///
/// The catalog owns the stores; registration order defines the dense id
/// space. Lookups by unknown name return a typed [`UnknownFile`] instead
/// of forcing callers to index by construction order and panic on a
/// mistake.
#[derive(Debug, Default)]
pub(crate) struct FileCatalog {
    names: Vec<String>,
    stores: Vec<BlockStore>,
    index: HashMap<String, FileId>,
}

impl FileCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a named store, returning its stable id. Re-registering an
    /// existing name replaces nothing — the original id and store win and
    /// the duplicate is reported via `Err` with the existing id.
    pub fn register(&mut self, name: impl Into<String>, store: BlockStore) -> Result<FileId, FileId> {
        let name = name.into();
        if let Some(&id) = self.index.get(&name) {
            return Err(id);
        }
        let id = FileId(self.names.len() as u32);
        self.index.insert(name.clone(), id);
        self.names.push(name);
        self.stores.push(store);
        Ok(id)
    }

    /// Resolve a name to its id.
    pub fn resolve(&self, name: &str) -> Result<FileId, UnknownFile> {
        self.index.get(name).copied().ok_or_else(|| UnknownFile {
            requested: name.to_string(),
        })
    }

    /// The store behind an id, if the id belongs to this catalog.
    pub fn store(&self, id: FileId) -> Option<&BlockStore> {
        self.stores.get(id.index())
    }

    /// The name behind an id, if the id belongs to this catalog.
    pub fn name(&self, id: FileId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Iterate `(id, name, store)` in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, &str, &BlockStore)> {
        (0..self.names.len())
            .map(move |i| (FileId(i as u32), self.names[i].as_str(), &self.stores[i]))
    }
}

/// An immutable, shareable sequence of byte blocks backed by one contiguous
/// allocation.
#[derive(Debug, Clone)]
pub struct BlockStore {
    /// All block payloads, concatenated in block order.
    data: Arc<[u8]>,
    /// `cuts[i]..cuts[i+1]` is block `i`; always `num_blocks + 1` entries
    /// starting at 0 and ending at `data.len()`.
    cuts: Arc<[usize]>,
}

/// Typed error returned by [`BlockStore::block_str`] when a block is not
/// valid UTF-8.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonUtf8Block {
    /// Index of the offending block.
    pub block: usize,
    /// Number of leading bytes of the block that are valid UTF-8.
    pub valid_up_to: usize,
}

impl std::fmt::Display for NonUtf8Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "block {} is not valid UTF-8 (valid up to byte {})",
            self.block, self.valid_up_to
        )
    }
}

impl std::error::Error for NonUtf8Block {}

impl BlockStore {
    /// Build from explicit text blocks. An empty store is valid: it models a
    /// zero-length file, and a [`crate::SharedScanServer`] over one
    /// resolves every submitted job immediately with empty output.
    pub fn new(blocks: Vec<String>) -> Self {
        Self::from_byte_blocks(blocks.into_iter().map(String::into_bytes).collect())
    }

    /// Build from explicit byte blocks; the payloads may be arbitrary bytes.
    pub fn from_byte_blocks(blocks: Vec<Vec<u8>>) -> Self {
        let mut cuts = Vec::with_capacity(blocks.len() + 1);
        let mut data = Vec::with_capacity(blocks.iter().map(Vec::len).sum());
        cuts.push(0);
        for b in &blocks {
            data.extend_from_slice(b);
            cuts.push(data.len());
        }
        BlockStore { data: data.into(), cuts: cuts.into() }
    }

    /// Split one text into blocks of roughly `block_bytes` bytes, breaking
    /// only at line boundaries so no record straddles two blocks (HDFS
    /// splits mid-record; Hadoop's record reader re-aligns — we model the
    /// post-alignment view).
    ///
    /// # Panics
    /// Panics if `block_bytes` is zero. Empty `text` yields an empty
    /// (zero-block) store.
    pub fn from_text(text: &str, block_bytes: usize) -> Self {
        Self::from_bytes(text.as_bytes(), block_bytes)
    }

    /// Byte-level [`BlockStore::from_text`]: splits at `\n` boundaries, with
    /// the same block sizing, but accepts arbitrary (possibly non-UTF-8)
    /// bytes.
    ///
    /// # Panics
    /// Panics if `block_bytes` is zero.
    pub fn from_bytes(bytes: &[u8], block_bytes: usize) -> Self {
        assert!(block_bytes > 0, "block size must be positive");
        let mut cuts = vec![0usize];
        // The last cut pushed: where the open block starts.
        let mut last = 0;
        let mut data = Vec::with_capacity(bytes.len() + 1);
        for line in memchr::lines(bytes) {
            data.extend_from_slice(line);
            data.push(b'\n');
            if data.len() - last >= block_bytes {
                last = data.len();
                cuts.push(last);
            }
        }
        if last != data.len() {
            cuts.push(data.len());
        }
        BlockStore { data: data.into(), cuts: cuts.into() }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.cuts.len() - 1
    }

    /// A block's bytes, borrowed straight from the contiguous backing store.
    pub fn block(&self, idx: usize) -> &[u8] {
        &self.data[self.cuts[idx]..self.cuts[idx + 1]]
    }

    /// A block's text — the migration shim for `str`-level consumers.
    ///
    /// Returns a typed [`NonUtf8Block`] error (instead of panicking) when the
    /// block holds invalid UTF-8.
    pub fn block_str(&self, idx: usize) -> Result<&str, NonUtf8Block> {
        std::str::from_utf8(self.block(idx))
            .map_err(|e| NonUtf8Block { block: idx, valid_up_to: e.valid_up_to() })
    }

    /// Byte offset of the start of each block plus a final total-length
    /// entry: `num_blocks() + 1` monotone values starting at 0. Useful for
    /// exact per-revolution byte accounting without re-summing block lengths.
    pub fn block_offsets(&self) -> &[usize] {
        &self.cuts
    }

    /// Total bytes across all blocks.
    pub fn total_bytes(&self) -> usize {
        self.data.len()
    }

    /// Iterate over blocks in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.num_blocks()).map(|i| self.block(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_text_respects_line_boundaries() {
        let text = "aaaa\nbbbb\ncccc\ndddd\n";
        let store = BlockStore::from_text(text, 8);
        assert!(store.num_blocks() >= 2);
        for i in 0..store.num_blocks() {
            let b = store.block_str(i).unwrap();
            assert!(b.ends_with('\n'));
            for line in b.lines() {
                assert_eq!(line.len(), 4, "no split lines");
            }
        }
        let rejoined: Vec<u8> = store.iter().flatten().copied().collect();
        assert_eq!(rejoined, text.as_bytes());
    }

    #[test]
    fn total_bytes_is_preserved() {
        let text = "one two three\nfour five\n".repeat(100);
        let store = BlockStore::from_text(&text, 64);
        assert_eq!(store.total_bytes(), text.len());
    }

    #[test]
    fn single_small_text_is_one_block() {
        let store = BlockStore::from_text("hello\n", 1024);
        assert_eq!(store.num_blocks(), 1);
        assert_eq!(store.block(0), b"hello\n");
        assert_eq!(store.block_str(0), Ok("hello\n"));
    }

    #[test]
    fn empty_store_is_a_zero_length_file() {
        let store = BlockStore::new(vec![]);
        assert_eq!(store.num_blocks(), 0);
        assert_eq!(store.total_bytes(), 0);
        assert_eq!(store.iter().count(), 0);
        let from_text = BlockStore::from_text("", 64);
        assert_eq!(from_text.num_blocks(), 0);
    }

    #[test]
    fn block_offsets_index_the_contiguous_payload() {
        let text = "aa\nbb\ncc\ndd\nee\n";
        let store = BlockStore::from_text(text, 6);
        let cuts = store.block_offsets();
        assert_eq!(cuts.len(), store.num_blocks() + 1);
        assert_eq!(cuts[0], 0);
        assert_eq!(*cuts.last().unwrap(), store.total_bytes());
        for i in 0..store.num_blocks() {
            assert_eq!(store.block(i).len(), cuts[i + 1] - cuts[i]);
        }
    }

    #[test]
    fn non_utf8_blocks_are_stored_and_reported() {
        let store = BlockStore::from_byte_blocks(vec![
            b"valid line\n".to_vec(),
            b"bad \xff\xfe bytes\n".to_vec(),
        ]);
        assert_eq!(store.num_blocks(), 2);
        assert!(store.block_str(0).is_ok());
        let err = store.block_str(1).unwrap_err();
        assert_eq!(err.block, 1);
        assert_eq!(err.valid_up_to, 4);
        assert!(err.to_string().contains("not valid UTF-8"));
        // The byte view is untouched.
        assert_eq!(store.block(1), b"bad \xff\xfe bytes\n");
    }

    #[test]
    fn catalog_assigns_stable_ids_and_types_unknown_names() {
        let mut cat = FileCatalog::new();
        let logs = cat.register("logs", BlockStore::from_text("a b\n", 16)).unwrap();
        let events = cat.register("events", BlockStore::from_text("c d\ne f\n", 4)).unwrap();
        assert_eq!(logs.index(), 0);
        assert_eq!(events.index(), 1);
        assert_eq!(cat.resolve("logs"), Ok(logs));
        assert_eq!(cat.resolve("events"), Ok(events));
        assert_eq!(cat.name(events), Some("events"));
        assert_eq!(cat.store(logs).unwrap().total_bytes(), 4);
        assert_eq!(cat.iter().count(), 2);
        let err = cat.resolve("missing").unwrap_err();
        assert_eq!(err.requested, "missing");
        assert!(err.to_string().contains("unknown file"));
        // Duplicate registration reports the existing id and changes nothing.
        assert_eq!(cat.register("logs", BlockStore::new(vec![])), Err(logs));
        assert_eq!(cat.iter().count(), 2);
        assert_eq!(cat.store(logs).unwrap().total_bytes(), 4);
        let ids: Vec<_> = cat.iter().map(|(id, name, _)| (id, name.to_string())).collect();
        assert_eq!(ids, vec![(logs, "logs".into()), (events, "events".into())]);
    }

    #[test]
    fn from_bytes_accepts_invalid_utf8_and_preserves_payload() {
        // Every byte value, then a last line with no newline.
        let mut raw: Vec<u8> = (0u8..=255).cycle().take(1024).collect();
        raw.extend_from_slice(b"ok line\n\xf0\x28\x8c\x28 mangled\nlast");
        // from_bytes normalizes line endings (line-aligned blocks), so
        // compare against the line-rejoined form.
        let mut want = Vec::new();
        for line in memchr::lines(&raw) {
            want.extend_from_slice(line);
            want.push(b'\n');
        }
        for block_bytes in [1, 7, 64, 512] {
            let store = BlockStore::from_bytes(&raw, block_bytes);
            let got: Vec<u8> = store.iter().flatten().copied().collect();
            assert_eq!(got, want, "{block_bytes}-byte blocks");
        }
    }
}
