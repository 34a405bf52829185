//! The paper's semantic claim as one differential oracle: a merged scan
//! computes exactly what independent jobs compute, and keeps doing so with
//! slow and failing workers and under overload.
//!
//! A [`Case`] is a store, a multiset of [`Rider`]s, the engine's knobs and,
//! on two optional axes, a seeded [`FaultPlan`] and an [`Overload`] burst.
//! [`Case::check`] runs the riders on every front — `run_job`,
//! `run_merged` of all and of one, a `SharedScanServer` and a
//! `ScanService` — and returns every broken check, each naming its front:
//!
//! - each rider's whole `JobOutput` (records and all four `ScanStats`)
//!   equals the sequential reference `run_merged_legacy`, unless the plan
//!   fails it: a faulted case gang-submits, so each rider's fate is a
//!   function of the plan, and a rider the plan fails must end with that
//!   typed `JobError`. Under overload a handle may end with the reference,
//!   `Panicked`, `Aborted`, or `DeadlineExpired` if it carried a deadline,
//!   and a shed submission is `Rejected` at submit;
//! - every handle resolves within [`WATCHDOG`];
//! - every trace drops nothing and passes `check_engine_events` and the
//!   job journal's `validate`, and every resize stays inside its clamp;
//! - each server keeps `jobs_submitted == completed + quarantined +
//!   aborted` with buckets equal to the fates, assisted blocks never exceed
//!   tail attempts, and `assist_ratio` stays within [0, 10 000];
//! - under overload, `ServiceStats` holds its identity and equals the
//!   client's own tally.
//!
//! The reference reads high bytes lossily, as most riders do; arena and
//! line-fold riders match raw bytes, so on a corpus with high bytes a
//! split-and-filter count written here judges them.
//!
//! `tests/differential.rs` draws cases with [`Case::draw`] and asserts the
//! list is empty; `s3chaos engine|service` sweeps the pinned cases of
//! [`Case::chaos`], prints the list, minimises the plan and replays.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use s3_engine::{
    run_job, run_merged, run_merged_legacy, AdaptiveConfig, BlockStore, EngineChaosConfig,
    EngineFault, ExecConfig, FaultPlan, FileSpec, FtConfig, JobError, JobHandle, JobOutput,
    JobResult, JobShape, MapReduceJob, Obs, QosClass, QosConfig, ScanService, ScanStats,
    ServerConfig, ServiceConfig, SharedScanServer,
};
use s3_mapreduce::check_engine_events;
use s3_obs::JobJournal;
use s3_sim::SimRng;
use s3_workloads::lineitem::{parse_row, LineItemGen};
use s3_workloads::text::TextGen;
use s3_workloads::ClassMix;
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// How long one front's handles may take, together, to resolve before the
/// case fails as hung.
pub const WATCHDOG: Duration = Duration::from_secs(30);

/// What every rider publishes.
pub type Output = JobOutput<String, i64>;
type Results = Vec<(usize, JobResult<String, i64>)>;

/// Salts that keep a chaos seed's rider and second-tenant streams apart
/// from its fault plan.
const RIDER_SALT: u64 = 0x00E6_61FE_C0DE_F00D;
const TENANT_SALT: u64 = 0x7E4A_4475_0000_0001;

/// Which tokens a rider counts. Only `Prefix` promises anything about a
/// matching token's leading bytes.
#[derive(Clone, Debug)]
pub enum Pattern {
    /// Every token.
    All,
    /// Tokens starting with these bytes.
    Prefix(Vec<u8>),
    /// Tokens holding these bytes.
    Contains(Vec<u8>),
    /// Tokens of this many bytes.
    Length(usize),
}

/// How a rider rides the scan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
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
pub struct Rider {
    /// Which tokens it counts.
    pub pattern: Pattern,
    /// How it rides.
    pub shape: Shape,
    /// Submitted to an unfaulted server once it has run this many
    /// segments; 0 rides with the first rider.
    pub arrival: u64,
    /// Panic when asked about exactly this token.
    pub poison: Option<Vec<u8>>,
    /// Declare this prefix instead of the pattern's own: a lie.
    pub claim: Option<Vec<u8>>,
}

impl Rider {
    /// An honest rider arriving with the first.
    pub fn new(pattern: Pattern, shape: Shape) -> Self {
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

    fn shape(&self) -> JobShape<'_> {
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

/// What the store holds.
#[derive(Clone, Copy, Debug)]
pub enum Bytes {
    /// Tokens over `a`, `b`, `c`, NUL and DEL between runs of spaces, tabs,
    /// CR-LF and empty lines, ending with or without a newline.
    Ascii,
    /// Raw bytes: `0x80`, `0xc3` and `0xff` among them, every ASCII space too.
    High,
    /// `lineitem` rows, a few of them with a high byte written mid-row.
    LineItem,
    /// The chaos sweeps' Zipf text, cut at line ends.
    Zipf,
}

/// Which scan loop the servers run.
#[derive(Clone, Copy, Debug)]
pub enum ScanLoop {
    /// One cooperative broadcast per segment: `ServerConfig::new`'s default.
    Cooperative,
    /// Resilient with this claim-deadline floor: the default, 3 ms, or 1 ms
    /// so that deadline misses and worker exclusions fire mid-run.
    Resilient(Duration),
}

/// Which `s3chaos` sweep a pinned case belongs to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Chaos {
    /// `s3chaos engine`: every fault kind, both scan loops.
    Engine,
    /// `s3chaos engine --adaptive`: adaptive sizing, outcome-neutral faults.
    Adaptive,
    /// `s3chaos engine --assist`: 8 KiB blocks and a straggler in every plan.
    Assist,
    /// `s3chaos service`: two tenants under an overload burst.
    Service,
}

/// The service front's overload axis: a second tenant, and per rider its
/// tenant, class and deadline, against small admission bounds.
pub struct Overload {
    /// The second tenant's store; the first tenant's is the case's.
    pub other: BlockStore,
    /// The second tenant's fault plan.
    pub other_faults: Option<FaultPlan>,
    /// Per rider: tenant (0 or 1), class and relative deadline.
    pub routes: Vec<(usize, QosClass, Option<Duration>)>,
}

/// One case: a store, its riders and the knobs every front runs at.
pub struct Case {
    /// What the store holds.
    pub kind: Bytes,
    /// Blocks cut anywhere (mid-token, mid-row) rather than at line ends.
    pub arbitrary_cuts: bool,
    /// The file every front scans.
    pub store: BlockStore,
    /// The jobs, in submission order.
    pub riders: Vec<Rider>,
    /// Scan threads (batch fronts and servers) and reduce shards (servers).
    pub threads: usize,
    /// Reducers of the batch fronts.
    pub reducers: usize,
    /// Blocks per segment (the initial size under adaptive sizing).
    pub bps: usize,
    /// Adaptive sizing, when on.
    pub adaptive: Option<AdaptiveConfig>,
    /// The servers' scan loop.
    pub scan: ScanLoop,
    /// Faults injected into the server front and, less the coordinator
    /// kill, into the service's first tenant.
    pub faults: Option<FaultPlan>,
    /// The overload axis of the service front.
    pub overload: Option<Overload>,
}

/// What [`Case::check`] found.
#[derive(Default)]
pub struct Report {
    /// Every broken check, each naming its front.
    pub violations: Vec<String>,
    /// Per rider, the server front's outcome: the replay fingerprint.
    pub outcomes: Vec<String>,
    /// Blocks the server front's tails assisted.
    pub assisted: u64,
    /// Segment resizes on the server front.
    pub resizes: usize,
}

/// What a rider must end with.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fate {
    /// The reference output.
    Ok,
    /// `JobError::Panicked`: a map or reduce panic lands on it.
    Panicked,
    /// `JobError::Aborted`: the coordinator dies first.
    Aborted,
    /// Under overload, whose admission order is timing's: the reference,
    /// `Panicked`, `Aborted`, or `DeadlineExpired` if it carried a deadline.
    Any { deadline: bool },
}

/// Each of `riders` gang-submitted riders' fate under `plan` over
/// `segments` fixed segments. Job `j`'s `segments_done` then equals the
/// global iteration, a `PanicMap { after_segments: s }` fires during
/// iteration `s`, and a `KillCoordinator { at_iter: k }` fires at the top
/// of iteration `k`, so the panic lands iff `s < k`.
fn fates(plan: Option<&FaultPlan>, riders: usize, segments: u64) -> Vec<Fate> {
    let faults = plan.map_or(&[][..], |p| &p.faults[..]);
    let doomed = plan.map(FaultPlan::doomed_jobs).unwrap_or_default();
    let kill = faults
        .iter()
        .find_map(|f| match f {
            EngineFault::KillCoordinator { at_iter } => Some(*at_iter),
            _ => None,
        })
        .filter(|k| *k < segments);
    (0..riders as u64)
        .map(|j| {
            let map_panic = faults.iter().find_map(|f| match f {
                EngineFault::PanicMap {
                    job,
                    after_segments,
                } if *job == j => Some(*after_segments),
                _ => None,
            });
            match kill {
                Some(k) if map_panic.is_some_and(|s| s < k) => Fate::Panicked,
                Some(_) => Fate::Aborted,
                None if doomed.contains(&j) => Fate::Panicked,
                None => Fate::Ok,
            }
        })
        .collect()
}

/// The plan a service tenant runs: every tenant must keep serving, so the
/// coordinator kill is the bare server's alone.
fn without_kill(plan: &FaultPlan) -> FaultPlan {
    let mut plan = plan.clone();
    plan.faults
        .retain(|f| !matches!(f, EngineFault::KillCoordinator { .. }));
    plan
}

fn pick(rng: &mut SmallRng, from: &[u8]) -> u8 {
    from[rng.gen_range(0..from.len())]
}

/// `n` riders whose patterns are cut from the corpus's own tokens so that
/// they match something: a prefix of 0, 1 or 2 bytes, the whole token plus
/// one byte, 9 bytes and more, one ending in NUL.
fn draw_riders(rng: &mut SmallRng, bytes: &[u8], n: usize) -> Vec<Rider> {
    let tokens: Vec<&[u8]> = bytes
        .split(|&b| memchr::is_ascii_space(b))
        .filter(|t| !t.is_empty())
        .collect();
    (0..n)
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
        .collect()
}

/// The service fuzzer's burst: per rider a tenant, a class from the
/// default mix, and for a quarter of them a tight deadline that queue waits
/// overrun, some in the queue, others mid-revolution.
fn draw_routes(rng: &mut SmallRng, n: usize) -> Vec<(usize, QosClass, Option<Duration>)> {
    ClassMix::default()
        .assign(n, rng.gen())
        .into_iter()
        .map(|class| {
            let deadline = rng
                .gen_bool(0.25)
                .then(|| Duration::from_micros(rng.gen_range(500..20_000)));
            (rng.gen_range(0..2), class, deadline)
        })
        .collect()
}

impl Case {
    /// Draw a case: bytes, cuts, 1, 8 or 70 riders, the engine's knobs, and
    /// for a quarter of the cases each a fault plan and an overload burst.
    pub fn draw(rng: &mut SmallRng) -> Case {
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
            _ => {
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
        let count = [1, 8, 70][rng.gen_range(0..3usize)];
        let riders = draw_riders(rng, &bytes, count);
        let n = store.num_blocks();
        let mut case = Case {
            kind,
            arbitrary_cuts,
            riders,
            threads: [1, 2, 3, 4, 8, 16][rng.gen_range(0..6usize)],
            reducers: [1, 3, 8][rng.gen_range(0..3usize)],
            bps: [1, 3.min(n).max(1), n.max(1), n + 7][rng.gen_range(0..4usize)],
            adaptive: rng.gen_bool(0.5).then(|| AdaptiveConfig {
                enabled: true,
                target_cadence: Duration::from_micros(50),
                min_blocks_per_segment: 1,
                max_blocks_per_segment: rng.gen_range(1..10),
            }),
            scan: [
                ScanLoop::Cooperative,
                ScanLoop::Resilient(FtConfig::resilient().deadline_floor),
                ScanLoop::Resilient(Duration::from_millis(1)),
            ][rng.gen_range(0..3usize)],
            store,
            faults: None,
            overload: None,
        };
        if rng.gen_bool(0.25) {
            // Fates count fixed segments.
            case.adaptive = None;
            case.faults = Some(FaultPlan::generate(rng.gen(), &case.envelope(None)));
        }
        if rng.gen_bool(0.25) {
            case.overload = Some(Overload {
                other: case.store.clone(),
                other_faults: case.faults.clone(),
                routes: draw_routes(rng, count),
            });
        }
        case
    }

    /// The pinned case `s3chaos` sweeps in `mode` for `seed`: the 96 KiB
    /// Zipf corpus in 2 KiB blocks (8 KiB under `Assist`: with 2 KiB blocks
    /// one eager worker can drain a segment's claim cursor before its
    /// rivals wake, and the assisted-block check would judge dispatch
    /// luck), or two 48 KiB tenants under `Service`; 4 blocks per segment
    /// and 3 threads; riders from the shared generator, led by a
    /// token-identity prefix rider as the benchmark's; the cooperative loop
    /// on even seeds of `Engine` and `Service` and the resilient one (3 ms
    /// floor) otherwise; and `FaultPlan::generate(seed)` over the case's
    /// own envelope.
    pub fn chaos(mode: Chaos, seed: u64) -> Case {
        let zipf = |seed, kib: usize| {
            TextGen::paper_like().generate(&mut SimRng::seed_from_u64(seed), kib << 10)
        };
        let service = mode == Chaos::Service;
        let text = zipf(7, if service { 48 } else { 96 });
        let block = if mode == Chaos::Assist {
            8 << 10
        } else {
            2 << 10
        };
        let mut rng = SmallRng::seed_from_u64(seed ^ RIDER_SALT);
        let count = if service {
            rng.gen_range(18..34)
        } else {
            [1, 8, 70][rng.gen_range(0..3usize)]
        };
        let mut riders = draw_riders(&mut rng, text.as_bytes(), count);
        let word = text
            .split_whitespace()
            .nth(rng.gen_range(0..64))
            .unwrap_or("a");
        riders[0] = Rider::new(
            Pattern::Prefix(word.bytes().take(2).collect()),
            Shape::Arena,
        );
        let cooperative = matches!(mode, Chaos::Engine | Chaos::Service) && seed.is_multiple_of(2);
        let mut case = Case {
            kind: Bytes::Zipf,
            arbitrary_cuts: false,
            store: BlockStore::from_text(&text, block),
            riders,
            threads: 3,
            reducers: 3,
            bps: 4,
            adaptive: (mode == Chaos::Adaptive).then(|| AdaptiveConfig {
                enabled: true,
                target_cadence: Duration::from_millis(2),
                min_blocks_per_segment: 1,
                max_blocks_per_segment: 8,
            }),
            scan: if cooperative {
                ScanLoop::Cooperative
            } else {
                ScanLoop::Resilient(Duration::from_millis(3))
            },
            faults: None,
            overload: None,
        };
        case.faults = Some(FaultPlan::generate(seed, &case.envelope(Some(mode))));
        if service {
            let other = BlockStore::from_text(&zipf(11, 48), block);
            let mut envelope = case.envelope(Some(mode));
            envelope.horizon_iters = other.num_blocks().div_ceil(case.bps) as u64;
            case.overload = Some(Overload {
                other,
                other_faults: Some(FaultPlan::generate(seed ^ TENANT_SALT, &envelope)),
                routes: draw_routes(&mut rng, count),
            });
        }
        case
    }

    /// Segments in one revolution at the initial size.
    pub fn segments(&self) -> u64 {
        self.store.num_blocks().div_ceil(self.bps).max(1) as u64
    }

    /// The fault envelope sized from the case (workers and shards =
    /// threads, jobs = riders, horizon = one revolution's segments), with
    /// what each sweep leaves out.
    fn envelope(&self, mode: Option<Chaos>) -> EngineChaosConfig {
        let mut env = EngineChaosConfig {
            num_workers: self.threads,
            num_jobs: self.riders.len() as u64,
            horizon_iters: self.segments(),
            num_shards: self.threads,
            ..EngineChaosConfig::default()
        };
        match mode {
            // A drawn store may hold thousands of blocks: a straggler's
            // whole delay stays near 10 ms. A kill in one plan of four
            // lets the drawn cases reach the aborted fate too.
            None => {
                env.slow_delay_us = (10, 10 + 20_000 / self.store.num_blocks().max(1) as u64);
                env.coordinator_kill_prob = 0.25;
            }
            Some(Chaos::Engine) => {}
            // Adaptive sizing moves where iteration-indexed faults land, so
            // map panics and the coordinator kill would make fates
            // guesswork; the straggler perturbs the measured scan cost.
            Some(Chaos::Adaptive) => {
                env.min_slow = 1;
                env.max_map_panics = 0;
                env.coordinator_kill_prob = 0.0;
            }
            // The straggler leaves a real uncommitted tail to assist, and
            // no early abort starves the assisted-block check.
            Some(Chaos::Assist) => {
                env.min_slow = 1;
                env.coordinator_kill_prob = 0.0;
            }
            Some(Chaos::Service) => env.coordinator_kill_prob = 0.0,
        }
        env
    }

    /// Run every front and return every broken check.
    pub fn check(&self) -> Report {
        let mut report = Report::default();
        let v = &mut report.violations;
        let refs: Vec<&Rider> = self.riders.iter().collect();
        let want = reference(&self.riders, &self.store);
        let cfg = ExecConfig {
            num_threads: self.threads,
            num_reducers: self.reducers,
        };
        for (i, out) in run_merged(&refs, &self.store, &cfg).iter().enumerate() {
            self.judge(v, "run_merged", i, Ok(out), &want[i], Fate::Ok);
        }
        let last = refs.len() - 1;
        let one = &run_merged(&[refs[last]], &self.store, &cfg)[0];
        self.judge(v, "run_merged of one", last, Ok(one), &want[last], Fate::Ok);
        for (i, rider) in refs.iter().enumerate().take(5) {
            let out = run_job(*rider, &self.store, &cfg);
            self.judge(v, "run_job", i, Ok(&out), &want[i], Fate::Ok);
        }
        self.serve(&want, &mut report);
        self.service(&want, &mut report.violations);
        report
    }

    fn server_config(&self, faults: Option<FaultPlan>) -> ServerConfig {
        let mut cfg = ServerConfig::new(self.bps, self.threads);
        cfg.obs = Obs::new();
        cfg.ft = match self.scan {
            ScanLoop::Cooperative => FtConfig::default(),
            ScanLoop::Resilient(deadline_floor) => FtConfig {
                deadline_floor,
                ..FtConfig::resilient()
            },
        };
        if let Some(adaptive) = &self.adaptive {
            cfg.adaptive = adaptive.clone();
        }
        cfg.faults = faults;
        cfg
    }

    /// The riders on a live server. A faulted case gang-submits them;
    /// otherwise each is submitted once the scan has run its arrival's
    /// segments (or 2 ms later, if the scan went idle), so that later
    /// riders join mid-revolution and wrap.
    fn serve(&self, want: &[Output], report: &mut Report) {
        let v = &mut report.violations;
        let cfg = self.server_config(self.faults.clone());
        let obs = cfg.obs.clone();
        let server = SharedScanServer::with_config(self.store.clone(), cfg);
        let handles = if self.faults.is_some() {
            server
                .submit_all(self.riders.clone())
                .into_iter()
                .enumerate()
                .collect()
        } else {
            let mut order: Vec<usize> = (0..self.riders.len()).collect();
            order.sort_by_key(|&i| self.riders[i].arrival);
            let mut waited = 0;
            order
                .into_iter()
                .map(|i| {
                    let arrival = self.riders[i].arrival;
                    if arrival > waited {
                        waited = arrival;
                        let t0 = Instant::now();
                        while server.iterations() < arrival
                            && t0.elapsed() < Duration::from_millis(2)
                        {
                            std::thread::yield_now();
                        }
                    }
                    (i, server.submit(self.riders[i].clone()))
                })
                .collect()
        };
        let Some(mut outs) = wait_all("server", handles, &obs, v) else {
            return std::mem::forget(server);
        };
        server.shutdown();
        let fates = fates(self.faults.as_ref(), self.riders.len(), self.segments());
        outs.sort_by_key(|(i, _)| *i);
        for (i, got) in &outs {
            self.judge(v, "server", *i, got.as_ref(), &want[*i], fates[*i]);
            report.outcomes.push(match got {
                Ok(out) => format!("ok:{:?}", out.records),
                Err(e) => format!("{e}"),
            });
        }
        (report.resizes, report.assisted) = self.check_runtime("server", &obs, Some(&fates), v);
    }

    /// The riders through a service: one tenant whose queues hold them all,
    /// each rider's fate exact as on the server (every tenant job rides a
    /// whole revolution of fixed segments, so a map panic always lands);
    /// or, under overload, each rider on its route to one of two tenants
    /// behind small admission bounds: per-class queues of 4, 12 queued
    /// service-wide, 3 jobs in flight per tenant with `Low` admitted only
    /// below width 1.
    fn service(&self, want: &[Output], v: &mut Vec<String>) {
        let n = self.riders.len();
        let plain = vec![(0, QosClass::Normal, None); n];
        let (mut tenants, mut routes, mut qos) = (
            vec![(&self.store, &self.faults)],
            &plain,
            QosConfig {
                queue_cap: n,
                max_queued_total: n,
                ..QosConfig::default()
            },
        );
        let mut wants = vec![want.to_vec()];
        if let Some(o) = &self.overload {
            tenants.push((&o.other, &o.other_faults));
            routes = &o.routes;
            qos = QosConfig {
                queue_cap: 4,
                max_inflight: 3,
                low_priority_width_cap: 1,
                max_queued_total: 12,
                default_deadline: None,
            };
            wants.push(reference(&self.riders, &o.other));
        }
        let plan = self.faults.as_ref().map(without_kill);
        let fates = fates(plan.as_ref(), n, self.segments());
        let files: Vec<FileSpec> = tenants
            .iter()
            .enumerate()
            .map(|(t, (store, plan))| FileSpec {
                name: format!("tenant {t}"),
                store: (*store).clone(),
                server: self.server_config(plan.as_ref().map(without_kill)),
            })
            .collect();
        let tenant_obs: Vec<Obs> = files.iter().map(|f| f.server.obs.clone()).collect();
        let obs = Obs::new();
        let service = ScanService::new(
            files,
            ServiceConfig {
                qos,
                obs: obs.clone(),
            },
        );
        // submitted, completed, quarantined, rejected, expired, aborted
        let mut tally = [n as u64, 0, 0, 0, 0, 0];
        let mut handles = Vec::new();
        for (i, (rider, &(tenant, class, deadline))) in self.riders.iter().zip(routes).enumerate() {
            let file = service
                .file_id(&format!("tenant {tenant}"))
                .expect("registered");
            match service.submit_with_deadline(file, class, rider.clone(), deadline) {
                Ok(handle) => handles.push((i, handle)),
                Err(JobError::Rejected { .. }) if self.overload.is_some() => tally[3] += 1,
                Err(e) => v.push(format!("service: rider {i} failed at submit with {e}")),
            }
        }
        let Some(outs) = wait_all("service", handles, &tenant_obs[0], v) else {
            return std::mem::forget(service);
        };
        for (i, got) in &outs {
            let (tenant, _, deadline) = routes[*i];
            let fate = match self.overload {
                None => fates[*i],
                Some(_) => Fate::Any {
                    deadline: deadline.is_some(),
                },
            };
            self.judge(v, "service", *i, got.as_ref(), &wants[tenant][*i], fate);
            tally[match got {
                Ok(_) => 1,
                Err(JobError::Panicked(_)) => 2,
                Err(JobError::DeadlineExpired) => 4,
                Err(_) => 5,
            }] += 1;
        }
        let s = service.stats();
        let counted = [
            s.submitted,
            s.completed,
            s.quarantined,
            s.rejected,
            s.expired,
            s.aborted,
        ];
        if !s.identity_holds() || counted != tally {
            v.push(format!(
                "service: it counted (submitted, completed, quarantined, rejected, expired, \
                 aborted) = {counted:?}, the client {tally:?}"
            ));
        }
        service.shutdown();
        self.check_runtime("service", &obs, None, v);
        let exact = self.overload.is_none().then_some(&fates[..]);
        for (t, obs) in tenant_obs.iter().enumerate() {
            self.check_runtime(&format!("tenant {t}"), obs, exact, v);
        }
    }

    /// Whether `got` is what `fate` promises, `want` being the reference.
    fn judge(
        &self,
        v: &mut Vec<String>,
        front: &str,
        i: usize,
        got: Result<&Output, &JobError>,
        want: &Output,
        fate: Fate,
    ) {
        let any = matches!(fate, Fate::Any { .. });
        let fits = match got {
            Ok(out) => (any || fate == Fate::Ok) && out == want,
            Err(JobError::Panicked(_)) => any || fate == Fate::Panicked,
            Err(JobError::Aborted) => any || fate == Fate::Aborted,
            Err(JobError::DeadlineExpired) => fate == Fate::Any { deadline: true },
            Err(_) => false,
        };
        if !fits {
            v.push(format!(
                "{front}: rider {i} ({}) should be {fate:?}:\n got {got:?}\nwant {want:?}",
                self.riders[i]
            ));
        }
    }

    /// Drain a runtime's trace and check it: nothing dropped, the engine's
    /// and the journal's invariants, every resize inside the clamp. Then
    /// its metrics: with `fates`, every submitted job in exactly one
    /// terminal bucket and the buckets equal to the fates; always, assisted
    /// blocks within tail attempts and the assist ratio within [0, 10 000]
    /// basis points. Returns the resizes and the assisted blocks.
    fn check_runtime(
        &self,
        front: &str,
        obs: &Obs,
        fates: Option<&[Fate]>,
        v: &mut Vec<String>,
    ) -> (usize, u64) {
        let core = obs.core().expect("obs is on");
        let events = core.tracer.drain();
        if core.tracer.dropped() > 0 {
            v.push(format!(
                "{front}: the trace dropped {} events",
                core.tracer.dropped()
            ));
        }
        v.extend(
            check_engine_events(&events)
                .into_iter()
                .map(|e| format!("{front}: {e}")),
        );
        if let Err(e) = JobJournal::from_events(&events).validate() {
            v.push(format!("{front} journal: {e}"));
        }
        let clamp = self.adaptive.as_ref().map_or(0..=0, |a| {
            a.min_blocks_per_segment as u64..=a.max_blocks_per_segment as u64
        });
        let resizes: Vec<u64> = events
            .iter()
            .filter(|e| e.name == "segment_resized")
            .map(|e| e.ids.seg)
            .collect();
        for size in resizes.iter().filter(|s| !clamp.contains(s)) {
            v.push(format!("{front}: resized to {size} outside {clamp:?}"));
        }
        let snap = obs.snapshot().expect("obs is on");
        if let Some(fates) = fates {
            let [sub, done, quar, abort] = ["submitted", "completed", "quarantined", "aborted"]
                .map(|c| snap.counter(&format!("engine.jobs_{c}")));
            let count = |fate| fates.iter().filter(|f| **f == fate).count() as u64;
            let oracle = (count(Fate::Ok), count(Fate::Panicked), count(Fate::Aborted));
            if sub != done + quar + abort || (done, quar, abort) != oracle {
                v.push(format!(
                    "{front} metrics: {sub} submitted, (completed, quarantined, aborted) = \
                     ({done}, {quar}, {abort}), the fates say {oracle:?}"
                ));
            }
        }
        let attempts = snap.counter("engine.tasks_speculated");
        let assisted = snap.counter("engine.blocks_assisted");
        if assisted > attempts {
            v.push(format!(
                "{front}: {assisted} assisted blocks exceed {attempts} tail attempts"
            ));
        }
        let ratio = snap.gauge("engine.assist_ratio");
        if !(0..=10_000).contains(&ratio) {
            v.push(format!(
                "{front}: assist_ratio {ratio} escapes [0, 10000] basis points"
            ));
        }
        (resizes.len(), assisted)
    }
}

/// Wait for every handle, all within one [`WATCHDOG`]. `None`, with a
/// violation carrying the journal, if one does not resolve: the caller then
/// leaks its runtime rather than join threads that may be the stuck ones.
fn wait_all(
    front: &str,
    handles: Vec<(usize, JobHandle<String, i64>)>,
    obs: &Obs,
    v: &mut Vec<String>,
) -> Option<Results> {
    let deadline = Instant::now() + WATCHDOG;
    let mut outs = Vec::new();
    for (i, handle) in handles {
        match handle.wait_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(out) => outs.push((i, out)),
            Err(_) => {
                let events = obs.core().expect("obs is on").tracer.drain();
                let journal = JobJournal::from_events(&events);
                v.push(format!(
                    "{front}: rider {i} unresolved after {WATCHDOG:?}; journal {journal:?}"
                ));
                return None;
            }
        }
    }
    Some(outs)
}

/// The sequential reference for each rider; riders that read raw bytes are
/// judged, on a corpus with high bytes, by a count over the raw tokens.
fn reference(riders: &[Rider], store: &BlockStore) -> Vec<Output> {
    let refs: Vec<&Rider> = riders.iter().collect();
    let high = store.iter().flatten().any(|&b| b >= 0x80);
    run_merged_legacy(&refs, store)
        .into_iter()
        .zip(riders)
        .map(|(legacy, r)| {
            if high && r.reads_raw() {
                raw_count(r, store)
            } else {
                legacy
            }
        })
        .collect()
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
        let clamp = self.adaptive.as_ref().map(|a| a.max_blocks_per_segment);
        writeln!(
            f,
            "{} threads, {} reducers, {} blocks/segment, adaptive clamp {clamp:?}, {:?}",
            self.threads, self.reducers, self.bps, self.scan
        )?;
        if let Some(plan) = &self.faults {
            write!(f, "fault plan:\n{}", plan.describe())?;
        }
        if let Some(o) = &self.overload {
            writeln!(
                f,
                "overload routes (tenant, class, deadline): {:?}",
                o.routes
            )?;
            if let Some(plan) = &o.other_faults {
                write!(f, "tenant 1 fault plan:\n{}", plan.describe())?;
            }
        }
        let riders: Vec<String> = self.riders.iter().map(Rider::to_string).collect();
        write!(f, "{} riders: {}", riders.len(), riders.join(", "))
    }
}
