//! Job families, their seeded work sets, and the [`Target`]s that put them
//! on a `SharedScanServer` or a `ScanService`.

use crate::driver::Target;
use crate::gen::{self, Rng, BLOCK_BYTES};
use crate::oracle::{self, Digest, Value};
use crate::sched::Arrival;
use s3_engine::{
    BlockStore, FileId, FileSpec, JobHandle, JobResult, MapReduceJob, Obs, ScanService,
    ServerConfig, ServiceConfig, SharedScanServer,
};
use s3_workloads::jobs::{PatternWordCount, SelectionJob};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// A kind of job over a kind of corpus: a fixed pool of distinct jobs and
/// the reference result of each.
pub trait Family {
    type Job: MapReduceJob<K = String, Out: Value> + Clone + 'static;
    const CORPUS: &'static str;
    fn corpus(seed: u64, bytes: usize) -> Vec<u8>;
    fn pool() -> Vec<Self::Job>;
    fn expected(corpus: &[u8]) -> Vec<Digest>;
}

/// The paper's pattern wordcount over Zipf text; jobs differ by prefix.
pub struct Wordcount;

/// Sixteen prefixes, from the one holding the most frequent word (about a
/// tenth of all tokens) down to light ones.
fn prefixes() -> Vec<String> {
    (1..=16).map(gen::prefix).collect()
}

impl Family for Wordcount {
    type Job = PatternWordCount;
    const CORPUS: &'static str = "text";

    fn corpus(seed: u64, bytes: usize) -> Vec<u8> {
        gen::text(seed, bytes)
    }

    fn pool() -> Vec<PatternWordCount> {
        prefixes().into_iter().map(PatternWordCount::prefix).collect()
    }

    fn expected(corpus: &[u8]) -> Vec<Digest> {
        oracle::wordcount(corpus, &prefixes())
    }
}

/// The paper's `lineitem` selection; jobs differ by quantity threshold.
pub struct Selection;

/// 90 %, 70 %, 50 %, 30 % and 10 % selectivity.
const THRESHOLDS: [u32; 5] = [5, 15, 25, 35, 45];

impl Family for Selection {
    type Job = SelectionJob;
    const CORPUS: &'static str = "lineitem";

    fn corpus(seed: u64, bytes: usize) -> Vec<u8> {
        gen::lineitem(seed, bytes)
    }

    fn pool() -> Vec<SelectionJob> {
        THRESHOLDS.iter().map(|&quantity_threshold| SelectionJob { quantity_threshold }).collect()
    }

    fn expected(corpus: &[u8]) -> Vec<Digest> {
        oracle::selection(corpus, &THRESHOLDS)
    }
}

/// One corpus with its job pool, the references, and the seeded order the
/// pool is cycled in. Every seed runs every pool job equally often, so the
/// seed moves which jobs ride together, not how much work a round holds.
pub struct Workset<F: Family> {
    pub corpus: Vec<u8>,
    pub jobs: Vec<F::Job>,
    pub expect: Vec<Digest>,
    order: Vec<usize>,
    pub gen_s: f64,
    oracle_s: f64,
}

impl<F: Family> Workset<F> {
    /// `stream` separates the corpora of one seed (the service's tenants).
    pub fn new(seed: u64, stream: u64, bytes: usize) -> Self {
        let t0 = Instant::now();
        let corpus = F::corpus(Rng::stream(seed, 16 + stream).next_u64(), bytes);
        let gen_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let expect = F::expected(&corpus);
        let oracle_s = t0.elapsed().as_secs_f64();
        let jobs = F::pool();
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        Rng::stream(seed, 32 + stream).shuffle(&mut order);
        Workset { corpus, jobs, expect, order, gen_s, oracle_s }
    }

    pub fn pick(&self, seq: usize) -> (F::Job, Digest) {
        let i = self.order[seq % self.order.len()];
        (self.jobs[i].clone(), self.expect[i])
    }

    pub fn store(&self) -> BlockStore {
        BlockStore::from_bytes(&self.corpus, BLOCK_BYTES)
    }

    pub fn describe(&self) -> String {
        format!(
            "corpus {}: fnv1a64 {:#018x}, {} bytes, {} lines; {} jobs in the pool; \
             generated in {:.3} s, reference results in {:.3} s",
            F::CORPUS,
            gen::fnv1a64(&self.corpus),
            self.corpus.len(),
            self.corpus.iter().filter(|&&b| b == b'\n').count(),
            self.jobs.len(),
            self.gen_s,
            self.oracle_s,
        )
    }
}

/// How one scan server is built: its scan threads and its segment size.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    pub threads: usize,
    pub blocks_per_segment: usize,
}

/// Telemetry stays at `ServerConfig::new`'s default, off, unless `obs` is given.
pub fn server_config(e: Engine, obs: Option<&Obs>) -> ServerConfig {
    let mut cfg = ServerConfig::new(e.blocks_per_segment, e.threads);
    if let Some(obs) = obs {
        cfg.obs = obs.clone();
    }
    cfg
}

/// Checks results and keeps the time the driver thread spent doing it.
pub struct Checker {
    corrupt_seq: Option<usize>,
    verify: Cell<Duration>,
}

impl Checker {
    /// `corrupt_seq` is the self-test: damage that job's output before comparing.
    pub fn new(corrupt_seq: Option<usize>) -> Self {
        Checker { corrupt_seq, verify: Cell::default() }
    }

    fn check<V: Value>(&self, result: JobResult<String, V>, expect: Digest, seq: usize) -> bool {
        let t0 = Instant::now();
        let ok = oracle::verify(result, expect, self.corrupt_seq == Some(seq));
        self.verify.set(self.verify.get() + t0.elapsed());
        ok
    }

    pub fn verify_ms(&self) -> f64 {
        self.verify.get().as_secs_f64() * 1e3
    }
}

pub struct Ticket<V> {
    handle: JobHandle<String, V>,
    expect: Digest,
    seq: usize,
}

impl<V: Value> Ticket<V> {
    /// Block up to `timeout` (`None`: not at all); `Some(correct)` once resolved.
    fn resolved(&self, checker: &Checker, timeout: Option<Duration>) -> Option<bool> {
        let result = match timeout {
            Some(t) => self.handle.wait_timeout(t).ok()?,
            None => self.handle.try_take()?,
        };
        Some(checker.check(result, self.expect, self.seq))
    }
}

/// Jobs of one work set on one shared-scan server.
pub struct ServerTarget<'a, F: Family> {
    pub server: &'a SharedScanServer<F::Job>,
    pub set: &'a Workset<F>,
    pub checker: &'a Checker,
}

impl<F: Family> Target for ServerTarget<'_, F> {
    type Ticket = Ticket<<F::Job as MapReduceJob>::Out>;

    fn submit(&self, seq: usize) -> Option<Self::Ticket> {
        let (job, expect) = self.set.pick(seq);
        Some(Ticket { handle: self.server.submit(job), expect, seq })
    }

    fn wait(&self, t: &Self::Ticket, timeout: Duration) -> Option<bool> {
        t.resolved(self.checker, Some(timeout))
    }

    fn poll(&self, t: &Self::Ticket) -> Option<bool> {
        t.resolved(self.checker, None)
    }
}

/// Wordcount jobs on a multi-tenant service, routed by the arrival plan.
pub struct ServiceTarget<'a> {
    pub service: &'a ScanService<PatternWordCount>,
    pub files: Vec<FileId>,
    pub sets: &'a [Workset<Wordcount>],
    pub plan: &'a [Arrival],
    pub checker: &'a Checker,
}

impl Target for ServiceTarget<'_> {
    type Ticket = Ticket<i64>;

    fn submit(&self, seq: usize) -> Option<Self::Ticket> {
        let a = self.plan[seq];
        let (job, expect) = self.sets[a.tenant].pick(seq);
        let handle = self.service.submit(self.files[a.tenant], a.class, job).ok()?;
        Some(Ticket { handle, expect, seq })
    }

    fn wait(&self, t: &Self::Ticket, timeout: Duration) -> Option<bool> {
        t.resolved(self.checker, Some(timeout))
    }

    fn poll(&self, t: &Self::Ticket) -> Option<bool> {
        t.resolved(self.checker, None)
    }
}

/// The service's tenants: name, share of the traffic in percent.
pub const TENANTS: [(&str, usize); 2] = [("logs", 70), ("events", 30)];

/// Each tenant gets its own server built as `e` says, with its telemetry
/// on when `tenant_obs` is given; the service itself runs on its defaults.
pub fn start_service(
    sets: &[Workset<Wordcount>],
    e: Engine,
    tenant_obs: Option<&[Obs]>,
) -> (ScanService<PatternWordCount>, Vec<FileId>) {
    let files = TENANTS
        .iter()
        .zip(sets)
        .enumerate()
        .map(|(t, ((name, _), set))| {
            let mut spec = FileSpec::new(*name, set.store(), e.blocks_per_segment, e.threads);
            if let Some(obs) = tenant_obs {
                spec.server.obs = obs[t].clone();
            }
            spec
        })
        .collect();
    let service = ScanService::new(files, ServiceConfig::default());
    let ids = TENANTS
        .iter()
        .map(|(name, _)| service.file_id(name).expect("tenant was registered"))
        .collect();
    (service, ids)
}

/// One cold start of a server: build the store, start the server, take the
/// first job's verified result, shut down. Always pool job 0, so the cost
/// does not depend on the seed's job order.
pub fn cold_start_server<F: Family>(set: &Workset<F>, e: Engine) -> (Duration, bool) {
    let t0 = Instant::now();
    let server = SharedScanServer::with_config(set.store(), server_config(e, None));
    let ok = oracle::verify(server.submit(set.jobs[0].clone()).wait(), set.expect[0], false);
    server.shutdown();
    (t0.elapsed(), ok)
}

/// [`cold_start_server`] for the service: both stores, the service, the
/// first job on the first tenant.
pub fn cold_start_service(sets: &[Workset<Wordcount>], e: Engine) -> (Duration, bool) {
    let t0 = Instant::now();
    let (service, files) = start_service(sets, e, None);
    let result = service
        .submit(files[0], s3_engine::QosClass::Normal, sets[0].jobs[0].clone())
        .map(JobHandle::wait);
    let ok = result.is_ok_and(|r| oracle::verify(r, sets[0].expect[0], false));
    service.shutdown();
    (t0.elapsed(), ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_reorders_the_pool_but_every_job_runs_equally_often() {
        let a = Workset::<Wordcount>::new(31, 0, 100_000);
        let b = Workset::<Wordcount>::new(32, 0, 100_000);
        assert_ne!(gen::fnv1a64(&a.corpus), gen::fnv1a64(&b.corpus));
        assert_ne!(a.order, b.order);
        let mut seen = vec![0; a.jobs.len()];
        for seq in 0..a.jobs.len() * 3 {
            let (_, d) = a.pick(seq);
            seen[a.expect.iter().position(|e| *e == d).unwrap()] += 1;
        }
        assert!(seen.iter().all(|&n| n == 3), "{seen:?}");
        // Eight riders in flight hold eight different jobs.
        let mut riders: Vec<u64> = (40..48).map(|s| a.pick(s).1.hash).collect();
        riders.sort_unstable();
        riders.dedup();
        assert_eq!(riders.len(), 8);
    }

    #[test]
    fn a_cold_start_verifies_its_first_job_on_both_shapes() {
        let rows = Workset::<Selection>::new(31, 0, 300_000);
        let e = Engine { threads: 2, blocks_per_segment: 2 };
        assert!(cold_start_server(&rows, e).1);
        let sets =
            [Workset::<Wordcount>::new(31, 0, 200_000), Workset::<Wordcount>::new(31, 1, 200_000)];
        assert_ne!(gen::fnv1a64(&sets[0].corpus), gen::fnv1a64(&sets[1].corpus));
        assert!(cold_start_service(&sets, Engine { threads: 1, ..e }).1);
    }
}
