//! The fan-out kernel's contract: riders that declare a prefix in their
//! [`JobShape`] are indexed, and the indexed scan is **byte-identical** to
//! the sequential `&str` reference (`run_job_legacy`) — same records,
//! same stats — for arbitrary bytes, block cuts, patterns, rider shapes and
//! rider counts on every executor. A rider that lies about its prefix or
//! panics on a token is a targeted test of the differential harness
//! (`tests/differential.rs` at the workspace root), which also sweeps the
//! five shapes over corpora stressing the tokenizer's edge cases.

use proptest::prelude::*;
use s3_engine::{
    run_job, run_merged, run_merged_legacy, BlockStore, ExecConfig, FtConfig, JobError, JobShape,
    MapReduceJob, ServerConfig, SharedScanServer,
};
use std::collections::BTreeMap;
use std::time::Duration;

/// Which tokens a [`Pat`] rider counts. Only `Prefix` promises anything
/// about a matching token's leading bytes.
#[derive(Clone, Debug)]
enum Pattern {
    All,
    Prefix(Vec<u8>),
    Contains(Vec<u8>),
    Length(usize),
}

/// How a [`Pat`] rider rides: through the token arena, through
/// `map_token` with a fold or a buffering combiner, or line by line
/// (never entering the token kernel), again with either combiner.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Identity,
    TokenFold,
    TokenBuf,
    Line,
    LineBuf,
}

/// Pattern wordcount over raw token bytes.
#[derive(Clone, Debug)]
struct Pat {
    pattern: Pattern,
    shape: Shape,
}

impl Pat {
    fn new(pattern: Pattern, shape: Shape) -> Self {
        Pat { pattern, shape }
    }

    fn matches(&self, token: &[u8]) -> bool {
        match &self.pattern {
            Pattern::All => true,
            Pattern::Prefix(p) => token.starts_with(p),
            Pattern::Contains(n) => n.is_empty() || token.windows(n.len()).any(|w| w == &n[..]),
            Pattern::Length(n) => token.len() == *n,
        }
    }
}

impl MapReduceJob for Pat {
    type K = String;
    type V = i64;
    type Out = i64;

    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        for w in line.split_whitespace() {
            self.map_token(w.as_bytes(), emit);
        }
    }

    fn combine(&self, _k: &String, v: Vec<i64>) -> Vec<i64> {
        vec![v.iter().sum()]
    }

    fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
        Some(v.iter().sum())
    }

    fn shape(&self) -> JobShape<'_> {
        let prefix = match &self.pattern {
            Pattern::Prefix(p) => p,
            _ => &b""[..],
        };
        match self.shape {
            Shape::Identity => JobShape::TokenIdentity { prefix },
            Shape::TokenFold => JobShape::TokenFold { prefix },
            Shape::TokenBuf => JobShape::Token { prefix },
            Shape::Line => JobShape::LineFold,
            Shape::LineBuf => JobShape::Line,
        }
    }

    fn combine_fold(&self, acc: &mut i64, next: i64) -> Option<i64> {
        *acc += next;
        None
    }

    /// Matches the lossy `&str` form of the token, as `map` does.
    fn map_token(&self, token: &[u8], emit: &mut dyn FnMut(String, i64)) {
        let token = String::from_utf8_lossy(token);
        if self.matches(token.as_bytes()) {
            emit(token.into_owned(), 1);
        }
    }

    fn token_value(&self, token: &[u8]) -> Option<i64> {
        self.matches(token).then_some(1)
    }

    fn token_key(&self, token: &[u8]) -> Option<String> {
        Some(String::from_utf8_lossy(token).into_owned())
    }
}

/// Corpus bytes: a small ASCII alphabet (so the `&str` reference and the
/// kernel see the same tokens) in which NUL and DEL are token bytes and every
/// kind of separator occurs.
const ALPHABET: &[u8] = b"aaabbc\0\x7fx \n\t\r";

fn ascii_corpus(codes: &[u8]) -> Vec<u8> {
    codes.iter().map(|&c| ALPHABET[c as usize % ALPHABET.len()]).collect()
}

/// Cut `bytes` into blocks at arbitrary offsets — mid-token too: each block
/// is scanned on its own by every path — or, with no cuts, at line ends.
fn cut_store(bytes: &[u8], cuts: &[u16], block_bytes: usize) -> BlockStore {
    if cuts.is_empty() {
        return BlockStore::from_bytes(bytes, block_bytes);
    }
    let mut at: Vec<usize> = cuts.iter().map(|&c| c as usize % (bytes.len() + 1)).collect();
    at.push(0);
    at.push(bytes.len());
    at.sort_unstable();
    BlockStore::from_byte_blocks(at.windows(2).map(|w| bytes[w[0]..w[1]].to_vec()).collect())
}

/// One rider per pick. Prefixes are cut from the corpus's own tokens so
/// they match something: length 0, 1, 2, the whole token plus one byte (a
/// prefix longer than a token that otherwise agrees with it), 9 bytes and
/// more (past the indexed depth), and one containing NUL.
fn riders(corpus: &[u8], picks: &[u32]) -> Vec<Pat> {
    let tokens: Vec<&[u8]> = corpus
        .split(|b| b" \n\t\r\x0b\x0c".contains(b))
        .filter(|t| !t.is_empty())
        .collect();
    picks
        .iter()
        .map(|&pick| {
            let (kind, which, shape) = (pick as u8, (pick >> 8) as u16, (pick >> 24) as u8);
            let token: &[u8] =
                if tokens.is_empty() { b"ab" } else { tokens[which as usize % tokens.len()] };
            let head = |n: usize| token[..n.min(token.len())].to_vec();
            let pattern = match kind % 10 {
                0 => Pattern::All,
                1 => Pattern::Prefix(head(0)),
                2 => Pattern::Prefix(head(1)),
                3 => Pattern::Prefix(head(2)),
                4 => Pattern::Prefix([token, b"a"].concat()),
                5 => Pattern::Prefix(head(9 + which as usize % 4)),
                6 => Pattern::Prefix([&head(1)[..], b"\0"].concat()),
                7 => Pattern::Contains(head(2)),
                8 => Pattern::Length(token.len()),
                _ => Pattern::Prefix(b"aaabbcaaabbc".to_vec()),
            };
            let shape = match shape % 6 {
                0 => Shape::TokenFold,
                1 => Shape::TokenBuf,
                2 => Shape::Line,
                _ => Shape::Identity,
            };
            Pat::new(pattern, shape)
        })
        .collect()
}

fn server_outputs(
    store: &BlockStore,
    jobs: &[Pat],
    threads: usize,
    speculation: bool,
) -> Vec<Result<s3_engine::JobOutput<String, i64>, JobError>> {
    let mut cfg = ServerConfig::new(2, threads);
    if speculation {
        cfg.ft = FtConfig::resilient();
    }
    let server = SharedScanServer::with_config(store.clone(), cfg);
    let outs = server.submit_all(jobs.to_vec()).into_iter().map(|h| h.wait()).collect();
    server.shutdown();
    outs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The indexed kernel equals the unindexed reference — records and
    /// `emitted` — for arbitrary ASCII bytes, block cuts, patterns, rider
    /// shapes and 1 / 8 / 65+ riders, on `run_merged`, `run_job` and both
    /// server scan loops.
    #[test]
    fn indexed_fan_out_equals_the_reference(
        codes in prop::collection::vec(any::<u8>(), 1..400),
        cuts in prop::collection::vec(any::<u16>(), 0..6),
        block_bytes in 4usize..64,
        picks in prop::collection::vec(any::<u32>(), 70..71),
        num_riders in prop::sample::select(vec![1usize, 8, 70]),
        threads in prop::sample::select(vec![1usize, 2, 4]),
    ) {
        let corpus = ascii_corpus(&codes);
        let store = cut_store(&corpus, &cuts, block_bytes);
        let jobs = riders(&corpus, &picks[..num_riders]);
        let refs: Vec<&Pat> = jobs.iter().collect();
        let cfg = ExecConfig { num_threads: threads, num_reducers: 3 };

        let oracle = run_merged_legacy(&refs, &store);
        let merged = run_merged(&refs, &store, &cfg);
        for ((k, l), job) in merged.iter().zip(&oracle).zip(&jobs) {
            prop_assert_eq!(&k.records, &l.records, "run_merged {:?}", job);
            prop_assert_eq!(k.stats.map_output_records, l.stats.map_output_records, "{:?}", job);
        }
        for speculation in [false, true] {
            let outs = server_outputs(&store, &jobs, threads, speculation);
            for ((k, l), job) in outs.iter().zip(&oracle).zip(&jobs) {
                let k = k.as_ref().expect("job completes");
                prop_assert_eq!(&k.records, &l.records, "server spec={} {:?}", speculation, job);
                prop_assert_eq!(k.stats.map_output_records, l.stats.map_output_records);
            }
        }
        // One job at a time on the single-job front.
        for (job, l) in jobs.iter().zip(&oracle).take(4) {
            let solo = run_job(job, &store, &cfg);
            prop_assert_eq!(&solo.records, &l.records, "run_job {:?}", job);
            prop_assert_eq!(solo.stats.map_output_records, l.stats.map_output_records);
        }
    }

    /// Arbitrary bytes, the upper half included, where the lossy reference
    /// is no oracle: the indexed kernel equals a split-and-filter count
    /// written out here.
    #[test]
    fn indexed_fan_out_counts_raw_bytes_exactly(
        bytes in prop::collection::vec(prop::sample::select(
            vec![b'a', b'a', b'b', 0u8, 0x80, 0xff, 0xc3, b' ', b' ', b'\n', b'\t']), 1..300),
        cuts in prop::collection::vec(any::<u16>(), 1..5),
        picks in prop::collection::vec(any::<u32>(), 8..9),
    ) {
        let store = cut_store(&bytes, &cuts, 16);
        let jobs = riders(&bytes, &picks);
        let refs: Vec<&Pat> = jobs.iter().collect();
        let cfg = ExecConfig { num_threads: 2, num_reducers: 2 };
        let merged = run_merged(&refs, &store, &cfg);
        for (job, out) in jobs.iter().zip(&merged) {
            let mut want: BTreeMap<String, i64> = BTreeMap::new();
            let mut emitted = 0;
            for block in store.iter() {
                for token in block.split(|b| b" \n\t\r\x0b\x0c".contains(b)) {
                    if !token.is_empty() && job.matches(token) {
                        emitted += 1;
                        *want.entry(String::from_utf8_lossy(token).into_owned()).or_default() += 1;
                    }
                }
            }
            // Line riders and `map_token` riders see lossy `&str`
            // tokens; only arena riders match on the raw bytes.
            if matches!(job.shape, Shape::Identity) {
                prop_assert_eq!(&out.records, &want, "{:?}", job);
                prop_assert_eq!(out.stats.map_output_records, emitted);
            }
        }
    }
}

/// Submit `jobs` one segment apart (or 2 ms apart, if the scan has already
/// gone idle), so that later riders join mid-revolution and wrap.
fn staggered_server_outputs(
    store: &BlockStore,
    jobs: &[Pat],
    threads: usize,
) -> Vec<s3_engine::JobOutput<String, i64>> {
    let server = SharedScanServer::with_config(store.clone(), ServerConfig::new(2, threads));
    let handles: Vec<_> = jobs
        .iter()
        .map(|job| {
            let seen = server.iterations();
            let handle = server.submit(job.clone());
            let t0 = std::time::Instant::now();
            while server.iterations() == seen && t0.elapsed() < Duration::from_millis(2) {
                std::thread::yield_now();
            }
            handle
        })
        .collect();
    let outs = handles.into_iter().map(|h| h.wait().expect("job completes")).collect();
    server.shutdown();
    outs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One core, three fronts: for ASCII and raw high bytes, arbitrary block
    /// cuts, all five rider shapes, 1 / 8 / 70 riders, and any thread and
    /// reducer count, `run_merged` equals the reference in
    /// records and in every stat, `run_job` is `run_merged` of one, and a
    /// staggered server revolution of the same riders equals both.
    #[test]
    fn batch_equals_reference_equals_server(
        // The high bytes make invalid UTF-8 and one valid two-byte letter,
        // never a Unicode space the `&str` reference would split at.
        bytes in prop::collection::vec(
            prop::sample::select(b"aaabbc\0x \n\t\r\x80\xc3\xff".to_vec()), 1..400),
        cuts in prop::collection::vec(any::<u16>(), 0..6),
        block_bytes in 4usize..64,
        picks in prop::collection::vec(any::<u16>(), 70..71),
        num_riders in prop::sample::select(vec![1usize, 8, 70]),
        threads in prop::sample::select(vec![1usize, 2, 4]),
        num_reducers in prop::sample::select(vec![1usize, 3, 8]),
    ) {
        let store = cut_store(&bytes, &cuts, block_bytes);
        // ASCII patterns only: an arena rider matches raw bytes, the others
        // the lossy `&str`, and only ASCII reads the same in both.
        let jobs: Vec<Pat> = picks[..num_riders]
            .iter()
            .map(|&pick| {
                let pattern = match pick % 7 {
                    0 => Pattern::All,
                    1 => Pattern::Prefix(b"a".to_vec()),
                    2 => Pattern::Prefix(b"ab".to_vec()),
                    3 => Pattern::Prefix(b"b\0".to_vec()),
                    4 => Pattern::Prefix(b"aaabbcaaab".to_vec()),
                    5 => Pattern::Contains(b"ba".to_vec()),
                    _ => Pattern::Contains(b"c".to_vec()),
                };
                let shape = match (pick >> 8) % 5 {
                    0 => Shape::Identity,
                    1 => Shape::TokenFold,
                    2 => Shape::TokenBuf,
                    3 => Shape::Line,
                    _ => Shape::LineBuf,
                };
                Pat::new(pattern, shape)
            })
            .collect();
        let refs: Vec<&Pat> = jobs.iter().collect();
        let cfg = ExecConfig { num_threads: threads, num_reducers };

        let reference = run_merged_legacy(&refs, &store);
        let merged = run_merged(&refs, &store, &cfg);
        let served = staggered_server_outputs(&store, &jobs, threads);
        for (i, job) in jobs.iter().enumerate() {
            prop_assert_eq!(&merged[i], &reference[i], "run_merged {:?}", job);
            prop_assert_eq!(&served[i], &reference[i], "server {:?}", job);
        }
        for (job, m) in jobs.iter().zip(&merged).take(5) {
            prop_assert_eq!(&run_job(job, &store, &cfg), m, "run_job {:?}", job);
            prop_assert_eq!(&run_merged(&[job], &store, &cfg)[0], m, "run_merged of one {:?}", job);
        }
    }
}
