//! The paper's semantic claim as one differential property: a merged scan
//! computes exactly what independent jobs compute.
//!
//! Each case draws bytes, block cuts, a multiset of [`Rider`]s and the
//! engine's knobs, runs the riders on every front — `run_job`,
//! `run_merged` of all and of one, a staggered `SharedScanServer` and a
//! one-tenant `ScanService` — and compares each rider's whole `JobOutput`
//! (records and all four `ScanStats`) with the sequential reference
//! `run_merged_legacy`. The reference reads high bytes lossily, as most
//! riders do; arena and line-fold riders match raw bytes, so on a corpus
//! with high bytes a split-and-filter count written here judges them.
//! Server and service traces must satisfy the engine's and the journal's
//! invariants and drop nothing. A failing case prints its description and
//! front, then the `PROPTEST_CASE_SEED` that replays it.

use proptest::{run_cases, ProptestConfig, TestRng};
use rand::Rng;
use s3_engine::{
    run_job, run_job_legacy, run_merged, run_merged_legacy, AdaptiveConfig, BlockStore, ExecConfig,
    FileSpec, FtConfig, JobError, JobHandle, JobOutput, JobResult, MapReduceJob, Obs, QosClass,
    QosConfig, ScanService, ScanStats, ServerConfig, ServiceConfig, SharedScanServer,
};
use s3_mapreduce::check_engine_events;
use s3_obs::JobJournal;
use s3_sim::SimRng;
use s3_workloads::lineitem::{parse_row, LineItemGen};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// How long a handle may take to resolve before its case fails as hung.
const WATCHDOG: Duration = Duration::from_secs(5);

type Output = JobOutput<String, i64>;

/// Which tokens a rider counts. Only `Prefix` promises anything about a
/// matching token's leading bytes.
#[derive(Clone, Debug)]
enum Pattern {
    All,
    Prefix(Vec<u8>),
    Contains(Vec<u8>),
    Length(usize),
}

/// How a rider rides the scan.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    /// Token identity: counts fold under the raw token bytes in the arena.
    Arena,
    /// `map_token_bytes` with a fold combiner.
    TokenFold,
    /// `map_token_bytes` with a buffering combiner.
    TokenBuf,
    /// Line by line, never entering the token kernel; fold combiner. Its
    /// `map_bytes` matches raw token bytes, as the arena does.
    LineFold,
    /// Line by line, non-fold: a matching token emits its line's length,
    /// so keys carry many values, and `reduce` drops totals divisible by 3.
    LineWeight,
    /// Line by line: `lineitem` rows whose quantity exceeds the threshold,
    /// keyed by order key, so every key is unique.
    Select(u32),
}

/// The one job type of the harness.
#[derive(Clone, Debug)]
struct Rider {
    pattern: Pattern,
    shape: Shape,
    /// Submitted to the server once it has run this many segments; 0
    /// rides with the first rider.
    arrival: u64,
    /// Panic when asked about exactly this token.
    poison: Option<Vec<u8>>,
    /// Declare this prefix instead of the pattern's own: a lie.
    claim: Option<Vec<u8>>,
}

impl Rider {
    fn new(pattern: Pattern, shape: Shape) -> Self {
        Rider {
            pattern,
            shape,
            arrival: 0,
            poison: None,
            claim: None,
        }
    }

    /// Matches raw bytes, which the lossy reference never sees.
    fn reads_raw(&self) -> bool {
        matches!(self.shape, Shape::Arena | Shape::LineFold)
    }

    fn matches(&self, token: &[u8]) -> bool {
        assert!(self.poison.as_deref() != Some(token), "poisoned token");
        match &self.pattern {
            Pattern::All => true,
            Pattern::Prefix(p) => token.starts_with(p),
            Pattern::Contains(n) => n.is_empty() || token.windows(n.len()).any(|w| w == &n[..]),
            Pattern::Length(n) => token.len() == *n,
        }
    }
}

impl MapReduceJob for Rider {
    type K = String;
    type V = i64;
    type Out = i64;

    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        if let Shape::Select(threshold) = self.shape {
            if let Some(row) = parse_row(line).filter(|row| row.quantity > threshold) {
                emit(
                    format!("{:012}", row.orderkey),
                    row.extendedprice_cents as i64,
                );
            }
            return;
        }
        let value = if self.shape == Shape::LineWeight {
            line.len() as i64
        } else {
            1
        };
        for w in line
            .split_whitespace()
            .filter(|w| self.matches(w.as_bytes()))
        {
            emit(w.to_string(), value);
        }
    }

    fn map_bytes(&self, line: &[u8], emit: &mut dyn FnMut(String, i64)) {
        if self.shape != Shape::LineFold {
            return self.map(&String::from_utf8_lossy(line), emit);
        }
        for token in memchr::tokens(line).filter(|t| self.matches(t)) {
            emit(String::from_utf8_lossy(token).into_owned(), 1);
        }
    }

    fn combine(&self, _k: &String, v: Vec<i64>) -> Vec<i64> {
        vec![v.iter().sum()]
    }

    fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
        let total: i64 = v.iter().sum();
        (self.shape != Shape::LineWeight || total % 3 != 0).then_some(total)
    }

    fn shape(&self) -> s3_engine::JobShape<'_> {
        use s3_engine::JobShape;
        let prefix = match (&self.claim, &self.pattern) {
            (Some(claim), _) => claim,
            (None, Pattern::Prefix(p)) => p,
            _ => &b""[..],
        };
        match self.shape {
            Shape::Arena => JobShape::TokenIdentity { prefix },
            Shape::TokenFold => JobShape::TokenFold { prefix },
            Shape::TokenBuf => JobShape::Token { prefix },
            Shape::LineFold => JobShape::LineFold,
            Shape::LineWeight | Shape::Select(_) => JobShape::Line,
        }
    }

    fn combine_fold(&self, acc: &mut i64, next: i64) -> Option<i64> {
        *acc += next;
        None
    }

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

impl fmt::Display for Rider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.pattern {
            _ if matches!(self.shape, Shape::Select(_)) => write!(f, "{:?}", self.shape),
            Pattern::All => write!(f, "{:?} all", self.shape),
            Pattern::Prefix(p) => write!(f, "{:?} prefix \"{}\"", self.shape, p.escape_ascii()),
            Pattern::Contains(n) => write!(f, "{:?} contains \"{}\"", self.shape, n.escape_ascii()),
            Pattern::Length(n) => write!(f, "{:?} length {n}", self.shape),
        }?;
        write!(f, " @{}", self.arrival)
    }
}

#[derive(Clone, Copy, Debug)]
enum Bytes {
    /// Tokens over `a`, `b`, `c`, NUL and DEL between runs of spaces, tabs,
    /// CR-LF and empty lines, ending with or without a newline.
    Ascii,
    /// Raw bytes: `0x80`, `0xc3` and `0xff` among them, every ASCII space too.
    High,
    /// `lineitem` rows, a few of them with a high byte written mid-row.
    LineItem,
}

#[derive(Clone, Copy, Debug)]
enum ScanLoop {
    Cooperative,
    /// Resilient with this claim-deadline floor: the default, or 1 ms so
    /// that deadline misses and worker exclusions fire mid-run.
    Resilient(Duration),
}

/// One drawn case: a store, its riders and the knobs every front runs at.
struct Case {
    kind: Bytes,
    /// Blocks cut anywhere (mid-token, mid-row) rather than at line ends.
    arbitrary_cuts: bool,
    store: BlockStore,
    riders: Vec<Rider>,
    threads: usize,
    reducers: usize,
    bps: usize,
    /// Adaptive sizing's upper clamp, when adaptive sizing is on.
    adaptive: Option<usize>,
    scan: ScanLoop,
}

fn pick(rng: &mut TestRng, from: &[u8]) -> u8 {
    from[rng.gen_range(0..from.len())]
}

impl Case {
    fn draw(rng: &mut TestRng) -> Case {
        const SEPS: [&[u8]; 8] = [b" ", b"  ", b"   ", b"\t", b"\n", b"\n\n", b"\r\n", b" \t "];
        let kind = [Bytes::Ascii, Bytes::High, Bytes::LineItem][rng.gen_range(0..3usize)];
        let bytes: Vec<u8> = match kind {
            Bytes::Ascii => (0..rng.gen_range(1..40usize))
                .flat_map(|_| {
                    let mut word: Vec<u8> = (0..rng.gen_range(1..12usize))
                        .map(|_| pick(rng, b"aaabbc\0\x7f"))
                        .collect();
                    word.extend_from_slice(SEPS[rng.gen_range(0..SEPS.len())]);
                    word
                })
                .collect(),
            Bytes::High => (0..rng.gen_range(1..300usize))
                .map(|_| pick(rng, b"aab\0  \n\t\r\x0b\x0c\x80\xc3\xff"))
                .collect(),
            Bytes::LineItem => {
                let mut rows = SimRng::seed_from_u64(rng.gen());
                let mut text = LineItemGen::new()
                    .generate(&mut rows, rng.gen_range(256..4096))
                    .into_bytes();
                for _ in 0..rng.gen_range(0..4usize) {
                    let at = rng.gen_range(0..text.len());
                    if text[at] != b'\n' {
                        text[at] = pick(rng, b"\x80\xc3\xff");
                    }
                }
                text
            }
        };
        let arbitrary_cuts = rng.gen_bool(0.5);
        let store = if arbitrary_cuts {
            let mut at: Vec<usize> = (0..rng.gen_range(1..16usize))
                .map(|_| rng.gen_range(0..=bytes.len()))
                .collect();
            at.extend([0, bytes.len()]);
            at.sort_unstable();
            BlockStore::from_byte_blocks(
                at.windows(2).map(|w| bytes[w[0]..w[1]].to_vec()).collect(),
            )
        } else {
            BlockStore::from_bytes(&bytes, rng.gen_range(4..=64usize))
        };

        // Patterns are cut from the corpus's own tokens so that they match
        // something: a prefix of 0, 1 or 2 bytes, the whole token plus one
        // byte, 9 bytes and more, one ending in NUL.
        let tokens: Vec<&[u8]> = bytes
            .split(|&b| memchr::is_ascii_space(b))
            .filter(|t| !t.is_empty())
            .collect();
        let riders = (0..[1, 8, 70][rng.gen_range(0..3usize)])
            .map(|_| {
                let token = if tokens.is_empty() {
                    b"ab"
                } else {
                    tokens[rng.gen_range(0..tokens.len())]
                };
                let head = |n: usize| token[..n.min(token.len())].to_vec();
                let pattern = match rng.gen_range(0..9) {
                    0 => Pattern::All,
                    1 => Pattern::Prefix(head(0)),
                    2 => Pattern::Prefix(head(1)),
                    3 => Pattern::Prefix(head(2)),
                    4 => Pattern::Prefix([token, b"a"].concat()),
                    5 => Pattern::Prefix(head(rng.gen_range(9..13))),
                    6 => Pattern::Prefix([&head(1)[..], b"\0"].concat()),
                    7 => Pattern::Contains(head(2)),
                    _ => Pattern::Length(token.len()),
                };
                let shape = match rng.gen_range(0..6) {
                    0 => Shape::Arena,
                    1 => Shape::TokenFold,
                    2 => Shape::TokenBuf,
                    3 => Shape::LineFold,
                    4 => Shape::LineWeight,
                    _ => Shape::Select(rng.gen_range(0..50)),
                };
                Rider {
                    arrival: rng.gen_range(0..6u64).saturating_sub(2),
                    ..Rider::new(pattern, shape)
                }
            })
            .collect();

        let n = store.num_blocks();
        Case {
            kind,
            arbitrary_cuts,
            riders,
            threads: [1, 2, 3, 4, 8, 16][rng.gen_range(0..6usize)],
            reducers: [1, 3, 8][rng.gen_range(0..3usize)],
            bps: [1, 3.min(n).max(1), n.max(1), n + 7][rng.gen_range(0..4usize)],
            adaptive: rng.gen_bool(0.5).then(|| rng.gen_range(1..10)),
            scan: [
                ScanLoop::Cooperative,
                ScanLoop::Resilient(FtConfig::resilient().deadline_floor),
                ScanLoop::Resilient(Duration::from_millis(1)),
            ][rng.gen_range(0..3usize)],
            store,
        }
    }

    /// Run every front and compare every rider with its reference.
    fn run(&self) {
        let front = Cell::new("reference");
        let _describe = Describe(self, &front);
        let refs: Vec<&Rider> = self.riders.iter().collect();
        let high = self.store.iter().flatten().any(|&b| b >= 0x80);
        let want: Vec<Output> = run_merged_legacy(&refs, &self.store)
            .into_iter()
            .zip(&self.riders)
            .map(|(legacy, r)| {
                if high && r.reads_raw() {
                    raw_count(r, &self.store)
                } else {
                    legacy
                }
            })
            .collect();
        let check = |i: usize, got: Result<&Output, &JobError>| {
            assert!(
                got == Ok(&want[i]),
                "{} differs on rider {i} ({}):\n got {got:?}\nwant {:?}",
                front.get(),
                self.riders[i],
                want[i]
            );
        };

        let cfg = ExecConfig {
            num_threads: self.threads,
            num_reducers: self.reducers,
        };
        front.set("run_merged");
        for (i, out) in run_merged(&refs, &self.store, &cfg).iter().enumerate() {
            check(i, Ok(out));
        }
        front.set("run_merged of one");
        let last = refs.len() - 1;
        check(last, Ok(&run_merged(&[refs[last]], &self.store, &cfg)[0]));
        front.set("run_job");
        for (i, rider) in refs.iter().enumerate().take(5) {
            check(i, Ok(&run_job(*rider, &self.store, &cfg)));
        }
        front.set("server");
        for (i, got) in self.serve() {
            check(i, got.as_ref());
        }
        front.set("service");
        for (i, got) in self.service() {
            check(i, got.as_ref());
        }
    }

    fn server_config(&self) -> ServerConfig {
        let mut cfg = ServerConfig::new(self.bps, self.threads);
        cfg.obs = Obs::new();
        cfg.ft = match self.scan {
            ScanLoop::Cooperative => FtConfig::default(),
            ScanLoop::Resilient(deadline_floor) => FtConfig {
                deadline_floor,
                ..FtConfig::resilient()
            },
        };
        if let Some(max) = self.adaptive {
            cfg.adaptive = AdaptiveConfig {
                enabled: true,
                target_cadence: Duration::from_micros(50),
                min_blocks_per_segment: 1,
                max_blocks_per_segment: max,
            };
        }
        cfg
    }

    /// The riders on a live server, each submitted once the scan has run
    /// its arrival's segments (or 2 ms later, if the scan went idle), so
    /// that later riders join mid-revolution and wrap.
    fn serve(&self) -> Vec<(usize, JobResult<String, i64>)> {
        let cfg = self.server_config();
        let obs = cfg.obs.clone();
        let server = SharedScanServer::with_config(self.store.clone(), cfg);
        let mut order: Vec<usize> = (0..self.riders.len()).collect();
        order.sort_by_key(|&i| self.riders[i].arrival);
        let mut waited = 0;
        let handles = order
            .into_iter()
            .map(|i| {
                let arrival = self.riders[i].arrival;
                if arrival > waited {
                    waited = arrival;
                    let t0 = Instant::now();
                    while server.iterations() < arrival && t0.elapsed() < Duration::from_millis(2) {
                        std::thread::yield_now();
                    }
                }
                (i, server.submit(self.riders[i].clone()))
            })
            .collect();
        self.settle("server", server, SharedScanServer::shutdown, &obs, handles)
    }

    /// The riders through a one-tenant service whose queues hold them all.
    fn service(&self) -> Vec<(usize, JobResult<String, i64>)> {
        let server = self.server_config();
        let obs = server.obs.clone();
        let n = self.riders.len();
        let qos = QosConfig {
            queue_cap: n,
            max_queued_total: n,
            ..QosConfig::default()
        };
        let file = FileSpec {
            name: "tenant".into(),
            store: self.store.clone(),
            server,
        };
        let service = ScanService::new(
            vec![file],
            ServiceConfig {
                qos,
                obs: Obs::off(),
            },
        );
        let id = service.file_id("tenant").expect("registered");
        let handles = (0..n)
            .map(|i| {
                (
                    i,
                    service
                        .submit(id, QosClass::Normal, self.riders[i].clone())
                        .expect("not shed"),
                )
            })
            .collect();
        self.settle("service", service, ScanService::shutdown, &obs, handles)
    }

    /// Wait for every handle, at most [`WATCHDOG`] each, then shut the
    /// runtime down and check its trace. A handle that does not resolve
    /// fails the case with the trace's job journal; the runtime is leaked,
    /// not joined, since its threads may be the ones stuck.
    fn settle<R>(
        &self,
        front: &str,
        runtime: R,
        shutdown: fn(R),
        obs: &Obs,
        handles: Vec<(usize, JobHandle<String, i64>)>,
    ) -> Vec<(usize, JobResult<String, i64>)> {
        let core = obs.core().expect("obs is on");
        let mut outs = Vec::new();
        for (i, handle) in handles {
            match handle.wait_timeout(WATCHDOG) {
                Ok(out) => outs.push((i, out)),
                Err(_) => {
                    let journal = JobJournal::from_events(&core.tracer.drain());
                    std::mem::forget(runtime);
                    panic!("{front}: rider {i} unresolved after {WATCHDOG:?}; journal {journal:?}");
                }
            }
        }
        shutdown(runtime);
        let events = core.tracer.drain();
        assert_eq!(
            core.tracer.dropped(),
            0,
            "{front}: the trace ring dropped events"
        );
        let violations = check_engine_events(&events);
        assert!(violations.is_empty(), "{front}: {violations:?}");
        JobJournal::from_events(&events)
            .validate()
            .unwrap_or_else(|e| panic!("{front} journal: {e}"));
        for ev in events.iter().filter(|e| e.name == "segment_resized") {
            let max = self.adaptive.expect("only adaptive sizing resizes") as u64;
            assert!(
                (1..=max).contains(&ev.ids.seg),
                "{front}: resized to {} outside [1, {max}]",
                ev.ids.seg
            );
        }
        outs
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cuts = if self.arbitrary_cuts {
            "arbitrary"
        } else {
            "line-aligned"
        };
        let (kind, len, offsets) = (
            self.kind,
            self.store.total_bytes(),
            self.store.block_offsets(),
        );
        writeln!(
            f,
            "{kind:?} bytes, {len} long, {cuts} blocks at {offsets:?}"
        )?;
        writeln!(
            f,
            "{} threads, {} reducers, {} blocks/segment, adaptive clamp {:?}, {:?}",
            self.threads, self.reducers, self.bps, self.adaptive, self.scan
        )?;
        let riders: Vec<String> = self.riders.iter().map(Rider::to_string).collect();
        write!(f, "{} riders: {}", riders.len(), riders.join(", "))
    }
}

/// Prints the case, and the front it was on, when a check in it panics.
struct Describe<'a>(&'a Case, &'a Cell<&'static str>);

impl Drop for Describe<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case, on the {} front:\n{}", self.1.get(), self.0);
        }
    }
}

/// What a rider that reads raw bytes must publish, counted on them.
fn raw_count(rider: &Rider, store: &BlockStore) -> Output {
    let mut records = BTreeMap::new();
    let mut emitted = 0;
    for token in store
        .iter()
        .flat_map(|block| block.split(|&b| memchr::is_ascii_space(b)))
    {
        if !token.is_empty() && rider.matches(token) {
            emitted += 1;
            *records
                .entry(String::from_utf8_lossy(token).into_owned())
                .or_default() += 1;
        }
    }
    let stats = ScanStats {
        blocks_scanned: store.num_blocks() as u64,
        bytes_scanned: store.total_bytes() as u64,
        map_output_records: emitted,
        reduce_output_records: records.len() as u64,
    };
    JobOutput { records, stats }
}

#[test]
fn every_front_equals_the_reference() {
    run_cases(ProptestConfig::with_cases(192), |rng| Case::draw(rng).run());
}

fn fixed_store() -> BlockStore {
    let text = "alpha beta alpha gamma\nbeta delta alpha\nepsilon beta gamma delta\n".repeat(60);
    BlockStore::from_text(&text, 256)
}

/// `riders` on a two-thread server with the cooperative or the resilient
/// scan loop.
fn served(riders: &[Rider], resilient: bool) -> Vec<JobResult<String, i64>> {
    let mut cfg = ServerConfig::new(2, 2);
    if resilient {
        cfg.ft = FtConfig::resilient();
    }
    let server = SharedScanServer::with_config(fixed_store(), cfg);
    let handles = server.submit_all(riders.to_vec());
    let outs = handles
        .iter()
        .map(|h| h.wait_timeout(WATCHDOG).expect("resolves"))
        .collect();
    server.shutdown();
    outs
}

/// A rider whose own code panics on one token fails alone, on both scan
/// loops; its co-riders — indexed and not — publish their solo output.
#[test]
fn a_rider_panicking_on_one_token_fails_alone() {
    for shape in [Shape::Arena, Shape::TokenFold] {
        let poison = Some(b"epsilon".to_vec());
        let poisoned = Rider {
            poison,
            ..Rider::new(Pattern::Prefix(b"ep".to_vec()), shape)
        };
        let riders = vec![
            Rider::new(Pattern::Prefix(b"al".to_vec()), Shape::Arena),
            poisoned,
            Rider::new(Pattern::All, Shape::Arena),
            Rider::new(Pattern::Prefix(b"e".to_vec()), Shape::TokenBuf),
            Rider::new(Pattern::Contains(b"lt".to_vec()), Shape::LineFold),
        ];
        for resilient in [false, true] {
            for (i, (rider, out)) in riders.iter().zip(served(&riders, resilient)).enumerate() {
                match out {
                    Err(JobError::Panicked(msg)) if i == 1 => {
                        assert!(msg.contains("poisoned"), "{msg}")
                    }
                    Ok(out) if i != 1 => {
                        assert_eq!(out, run_job_legacy(rider, &fixed_store()), "rider {i}")
                    }
                    other => panic!("{shape:?} resilient={resilient} rider {i}: {other:?}"),
                }
            }
        }
    }
}

/// A rider that declares a prefix its filter does not have would lose
/// records silently; debug builds run it on the tokens the index kept from
/// it and fail it — alone — on the first one it emits for.
#[cfg(debug_assertions)]
#[test]
fn a_rider_that_lies_about_its_prefix_is_quarantined() {
    for shape in [Shape::Arena, Shape::TokenFold, Shape::TokenBuf] {
        let honest = Rider::new(Pattern::Prefix(b"be".to_vec()), Shape::Arena);
        // "alpha" keeps the promise; the corpus has no other a-word.
        let kept = Rider {
            claim: Some(b"al".to_vec()),
            ..Rider::new(Pattern::Prefix(b"a".to_vec()), shape)
        };
        let outs = served(&[kept.clone(), honest.clone()], false);
        assert!(outs.iter().all(Result::is_ok), "a kept promise is no lie");
        let liar = Rider {
            claim: Some(b"alz".to_vec()),
            ..kept
        };
        for resilient in [false, true] {
            let outs = served(&[liar.clone(), honest.clone()], resilient);
            assert_eq!(outs[1], Ok(run_job_legacy(&honest, &fixed_store())));
            match &outs[0] {
                Err(JobError::Panicked(msg)) => {
                    assert!(
                        msg.contains("token_prefix") && msg.contains("alpha"),
                        "{msg}"
                    )
                }
                other => panic!("{shape:?} resilient={resilient}: liar got {other:?}"),
            }
        }
    }
}
