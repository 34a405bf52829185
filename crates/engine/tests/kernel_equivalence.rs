//! The zero-copy kernel scan is **byte-identical** to the sequential `&str`
//! reference ([`run_job_legacy`]) — same records, same stats — across
//! thread counts 1..=16, the batch front and the shared-scan server,
//! adaptive segment sizing on and off, and corpora stressing the
//! tokenizer's edge cases: empty lines, trailing newlines, CR-LF endings,
//! tabs, and multi-space runs.
//!
//! The second half is the fan-out kernel's contract: riders that declare a
//! [`MapReduceJob::token_prefix`] are indexed, and the indexed scan equals
//! the unindexed reference for arbitrary bytes, block cuts, patterns and
//! rider counts on every executor; a rider that lies about its prefix or
//! panics on a token fails alone on the server and re-raises on the batch
//! caller.

use proptest::prelude::*;
use s3_engine::{
    run_job, run_job_legacy, run_merged, run_merged_legacy, AdaptiveConfig, BlockStore, ExecConfig,
    FtConfig, JobError, MapReduceJob, ServerConfig, SharedScanServer,
};
use std::collections::BTreeMap;
use std::time::Duration;

/// Prefix wordcount with every engine path switchable per instance:
/// buffered vs fold combiner, per-line vs per-token map, and the
/// token-identity fast path (raw-byte interning). All four must agree.
#[derive(Clone)]
struct Wc {
    prefix: String,
    fold: bool,
    token: bool,
    identity: bool,
}

impl MapReduceJob for Wc {
    type K = String;
    type V = i64;
    type Out = i64;

    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        for w in line.split_whitespace() {
            if w.starts_with(&self.prefix) {
                emit(w.to_string(), 1);
            }
        }
    }

    fn combine(&self, _k: &String, v: Vec<i64>) -> Vec<i64> {
        vec![v.iter().sum()]
    }

    fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
        Some(v.iter().sum())
    }

    fn combine_is_fold(&self) -> bool {
        self.fold
    }

    fn combine_fold(&self, acc: &mut i64, next: i64) {
        *acc += next;
    }

    fn map_is_per_token(&self) -> bool {
        self.token
    }

    fn map_token(&self, token: &str, emit: &mut dyn FnMut(String, i64)) {
        if token.starts_with(&self.prefix) {
            emit(token.to_string(), 1);
        }
    }

    fn map_emits_token(&self) -> bool {
        self.identity
    }

    fn token_value(&self, token: &[u8]) -> Option<i64> {
        token.starts_with(self.prefix.as_bytes()).then_some(1)
    }

    fn token_key(&self, token: &[u8]) -> String {
        String::from_utf8_lossy(token).into_owned()
    }

    fn token_prefix(&self) -> &[u8] {
        self.prefix.as_bytes()
    }
}

/// Expand code bytes into a corpus that hits the tokenizer's edge cases:
/// short colliding words joined by separators including multi-space runs,
/// tabs, empty lines (`\n\n`), CR-LF endings, and sometimes no trailing
/// newline at all.
fn build_corpus(codes: &[u8]) -> String {
    const WORDS: [&str; 6] = ["a", "ab", "abc", "b", "ba", "cab"];
    const SEPS: [&str; 8] = [" ", "  ", "   ", "\t", "\n", "\n\n", "\r\n", " \t "];
    let mut out = String::new();
    for pair in codes.chunks(2) {
        out.push_str(WORDS[pair[0] as usize % WORDS.len()]);
        let sep = pair.get(1).copied().unwrap_or(0);
        out.push_str(SEPS[sep as usize % SEPS.len()]);
    }
    out
}

fn job_variants(prefix: &str) -> Vec<Wc> {
    let p = prefix.to_string();
    vec![
        Wc { prefix: p.clone(), fold: false, token: false, identity: false },
        Wc { prefix: p.clone(), fold: true, token: false, identity: false },
        Wc { prefix: p.clone(), fold: true, token: true, identity: false },
        Wc { prefix: p, fold: true, token: true, identity: true },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `run_job` equals the reference for every job variant, blocking, and
    /// thread count in 1..=16.
    #[test]
    fn run_job_equals_the_reference(
        codes in prop::collection::vec(0u8..48, 2..160),
        block_bytes in 4usize..96,
        threads in prop::sample::select(vec![1usize, 2, 3, 4, 8, 16]),
        reducers in 1usize..6,
        prefix in prop::sample::select(vec!["", "a", "ab", "c"]),
    ) {
        let store = BlockStore::from_text(&build_corpus(&codes), block_bytes);
        let cfg = ExecConfig { num_threads: threads, num_reducers: reducers };
        for job in job_variants(prefix) {
            prop_assert_eq!(run_job(&job, &store, &cfg), run_job_legacy(&job, &store),
                "fold={} token={} identity={}", job.fold, job.token, job.identity);
        }
    }

    /// `run_merged` equals the reference when one batch mixes all four job
    /// variants over one shared scan.
    #[test]
    fn run_merged_equals_the_reference(
        codes in prop::collection::vec(0u8..48, 2..160),
        block_bytes in 4usize..96,
        threads in prop::sample::select(vec![1usize, 2, 4, 16]),
        reducers in 1usize..6,
    ) {
        let store = BlockStore::from_text(&build_corpus(&codes), block_bytes);
        let jobs = job_variants("a");
        let refs: Vec<&Wc> = jobs.iter().collect();
        let cfg = ExecConfig { num_threads: threads, num_reducers: reducers };
        let merged = run_merged(&refs, &store, &cfg);
        let reference = run_merged_legacy(&refs, &store);
        for ((m, r), job) in merged.iter().zip(&reference).zip(&jobs) {
            prop_assert_eq!(m, r, "fold={} token={} identity={}", job.fold, job.token, job.identity);
        }
    }

    /// The shared-scan server equals the reference — and so every job
    /// variant equals every other — adaptive sizing on and off.
    #[test]
    fn server_equals_the_reference(
        codes in prop::collection::vec(0u8..48, 2..120),
        block_bytes in 4usize..64,
        threads in prop::sample::select(vec![1usize, 2, 4]),
        adaptive in any::<bool>(),
    ) {
        let store = BlockStore::from_text(&build_corpus(&codes), block_bytes);
        let jobs = job_variants("a");
        let refs: Vec<&Wc> = jobs.iter().collect();
        let reference = run_merged_legacy(&refs, &store);
        prop_assert!(reference.iter().all(|r| r.records == reference[0].records));

        let mut cfg = ServerConfig::new(2, threads);
        if adaptive {
            cfg.adaptive = AdaptiveConfig {
                enabled: true,
                target_cadence: Duration::from_micros(500),
                min_blocks_per_segment: 1,
                max_blocks_per_segment: 8,
            };
        }
        let server = SharedScanServer::with_config(store.clone(), cfg);
        let handles = server.submit_all(jobs.clone());
        for ((h, r), job) in handles.into_iter().zip(&reference).zip(&jobs) {
            let out = h.wait().expect("job completes");
            prop_assert_eq!(&out, r, "fold={} token={} identity={}", job.fold, job.token, job.identity);
        }
        server.shutdown();
    }
}

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
/// `map_token_bytes` with a fold or a buffering combiner, or line by line
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
    /// Panic when asked about exactly this token.
    poison: Option<Vec<u8>>,
    /// Declare this prefix instead of the pattern's own: a lie.
    claim: Option<Vec<u8>>,
}

impl Pat {
    fn new(pattern: Pattern, shape: Shape) -> Self {
        Pat { pattern, shape, poison: None, claim: None }
    }

    fn matches(&self, token: &[u8]) -> bool {
        if self.poison.as_deref() == Some(token) {
            panic!("poisoned token");
        }
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
            self.map_token(w, emit);
        }
    }

    fn combine(&self, _k: &String, v: Vec<i64>) -> Vec<i64> {
        vec![v.iter().sum()]
    }

    fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
        Some(v.iter().sum())
    }

    fn combine_is_fold(&self) -> bool {
        !matches!(self.shape, Shape::TokenBuf | Shape::LineBuf)
    }

    fn combine_fold(&self, acc: &mut i64, next: i64) {
        *acc += next;
    }

    fn map_is_per_token(&self) -> bool {
        !matches!(self.shape, Shape::Line | Shape::LineBuf)
    }

    fn map_token(&self, token: &str, emit: &mut dyn FnMut(String, i64)) {
        if self.matches(token.as_bytes()) {
            emit(token.to_string(), 1);
        }
    }

    fn map_emits_token(&self) -> bool {
        matches!(self.shape, Shape::Identity)
    }

    fn token_value(&self, token: &[u8]) -> Option<i64> {
        self.matches(token).then_some(1)
    }

    fn token_key(&self, token: &[u8]) -> String {
        String::from_utf8_lossy(token).into_owned()
    }

    fn token_prefix(&self) -> &[u8] {
        match (&self.claim, &self.pattern) {
            (Some(claim), _) => claim,
            (None, Pattern::Prefix(p)) => p,
            _ => b"",
        }
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
            // Line riders and `map_token_bytes` riders see lossy `&str`
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

fn fixed_store() -> BlockStore {
    let text = "alpha beta alpha gamma\nbeta delta alpha\nepsilon beta gamma delta\n".repeat(60);
    BlockStore::from_text(&text, 256)
}

/// A rider whose own code panics on one token fails alone, on the
/// cooperative and the speculative scan loop; its co-riders — indexed and
/// not — finish with exactly their solo output.
#[test]
fn rider_panicking_on_one_token_fails_alone() {
    let store = fixed_store();
    for shape in [Shape::Identity, Shape::TokenFold] {
        let mut poisoned = Pat::new(Pattern::Prefix(b"ep".to_vec()), shape);
        poisoned.poison = Some(b"epsilon".to_vec());
        let jobs = vec![
            Pat::new(Pattern::Prefix(b"al".to_vec()), Shape::Identity),
            poisoned,
            Pat::new(Pattern::All, Shape::Identity),
            Pat::new(Pattern::Prefix(b"e".to_vec()), Shape::TokenBuf),
            Pat::new(Pattern::Contains(b"lt".to_vec()), Shape::Line),
        ];
        for speculation in [false, true] {
            let outs = server_outputs(&store, &jobs, 2, speculation);
            for (i, (job, out)) in jobs.iter().zip(outs).enumerate() {
                if i == 1 {
                    match out {
                        Err(JobError::Panicked(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
                        other => panic!("spec={speculation}: poisoned rider got {other:?}"),
                    }
                } else {
                    let out = out.expect("healthy rider completes");
                    let solo = run_job_legacy(job, &store);
                    assert_eq!(out.records, solo.records, "spec={speculation} rider {i}");
                    assert_eq!(out.stats.map_output_records, solo.stats.map_output_records);
                }
            }
        }
    }
}

/// A job that declares a prefix its filter does not have would lose records
/// silently; debug builds run it on the tokens the index kept from it and
/// fail it — alone — on the first one it emits for.
#[cfg(debug_assertions)]
#[test]
fn a_rider_that_lies_about_its_prefix_is_quarantined() {
    let store = fixed_store();
    for shape in [Shape::Identity, Shape::TokenFold, Shape::TokenBuf] {
        let mut liar = Pat::new(Pattern::Prefix(b"a".to_vec()), shape);
        liar.claim = Some(b"al".to_vec());
        let honest = Pat::new(Pattern::Prefix(b"be".to_vec()), Shape::Identity);
        // "alpha" keeps the promise; the corpus has no other a-word.
        let outs = server_outputs(&store, &[liar.clone(), honest.clone()], 2, false);
        assert!(outs.iter().all(Result::is_ok), "a kept promise is no lie");

        liar.claim = Some(b"alz".to_vec());
        for speculation in [false, true] {
            let mut outs = server_outputs(&store, &[liar.clone(), honest.clone()], 2, speculation);
            let honest_out = outs.pop().expect("two riders").expect("honest rider completes");
            assert_eq!(honest_out.records, run_job_legacy(&honest, &store).records);
            match outs.pop().expect("two riders") {
                Err(JobError::Panicked(msg)) => {
                    assert!(msg.contains("token_prefix") && msg.contains("alpha"), "{msg}")
                }
                other => panic!("{shape:?} spec={speculation}: liar got {other:?}"),
            }
        }
    }
}
