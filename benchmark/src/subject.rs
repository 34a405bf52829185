//! What a workload runs on — one shared-scan server under a closed loop, or
//! a two-tenant service under an open loop — behind one interface, so that
//! one flow in `main.rs` measures both.

use crate::driver::{closed_loop, open_loop, Closed, Open, Run, WallClock};
use crate::oracle::{self, Tally};
use crate::probes::{self, ScanCounters, ServerProbe};
use crate::report::{Metrics, Round};
use crate::sched::{self, Arrival};
use crate::sys;
use crate::workloads::{
    self, Checker, Engine, Family, ServerTarget, ServiceTarget, Wordcount, Workset, TENANTS,
};
use crate::ROUNDS;
use s3_engine::{Obs, QosClass, ServiceStats, SharedScanServer};
use s3_obs::MetricsSnapshot;
use std::cell::Cell;
use std::time::{Duration, Instant};

/// The open loop's fixed rate, set once on the commit that added the
/// benchmark: about half of the two cores, nothing shed.
pub const SERVICE_RATE: usize = 60;
/// Share of arrivals that are High, Normal, Low, in percent.
pub const CLASS_SHARE: [usize; 3] = [20, 60, 20];

pub struct PassPlan {
    /// Switch the engine's `Obs` on.
    pub traced: bool,
    pub round_len: Duration,
    /// The self-test: damage the output of the loop's first job.
    pub corrupt: bool,
}

/// One warmed server or service driven through [`ROUNDS`] rounds.
pub struct Pass {
    pub run: Run,
    /// Driver-thread time spent checking results.
    pub verify_ms: f64,
    /// Engine telemetry of a traced pass (the busier tenant's on the service).
    pub snapshot: Option<MetricsSnapshot>,
    /// Scan counters over the pass. A service does not expose its servers'.
    pub counters: Option<ScanCounters>,
    pub service: Option<ServiceFacts>,
}

/// What only a live service can say about a pass.
pub struct ServiceFacts {
    pub plan: Vec<Arrival>,
    pub start_ms: f64,
    pub stats: ServiceStats,
    /// Jobs queued, not yet admitted, when the last round ended.
    pub backlog_end: usize,
}

pub trait Subject {
    fn describe(&self);
    fn corpora(&self) -> Vec<&[u8]>;
    fn gen_s(&self) -> f64;
    /// Build the store(s), start, take the first job's verified result, shut down.
    fn cold_start(&self) -> (Duration, bool);
    fn pass(&self, plan: &PassPlan, tally: &mut Tally) -> Pass;
    fn probes(&self, reps: usize, m: &mut Metrics, checked: &mut Tally) -> ServerProbe;
    /// What telemetry cost, in percent, from an untraced and a traced pass.
    fn overhead_pct(&self, plain: &Round, traced: &Round) -> f64;
}

/// Every job of a loop was checked: count them, refusals as failures.
fn add_run(tally: &mut Tally, run: &Run) {
    tally.attempted += run.samples.len() + run.refused;
    tally.failed += run.samples.iter().filter(|s| !s.ok).count() + run.refused;
}

pub struct ServerSubject<F: Family> {
    pub set: Workset<F>,
    pub engine: Engine,
    /// Riders in flight.
    pub width: usize,
}

impl<F: Family> Subject for ServerSubject<F> {
    fn describe(&self) {
        println!("{}", self.set.describe());
    }

    fn corpora(&self) -> Vec<&[u8]> {
        vec![&self.set.corpus]
    }

    fn gen_s(&self) -> f64 {
        self.set.gen_s
    }

    fn cold_start(&self) -> (Duration, bool) {
        workloads::cold_start_server(&self.set, self.engine)
    }

    /// A first job alone gives the revolution the stagger is cut from; then
    /// the riders ride, and the first completions are warm-up.
    fn pass(&self, plan: &PassPlan, tally: &mut Tally) -> Pass {
        let set = &self.set;
        let obs = plan.traced.then(Obs::new);
        let checker = Checker::new(plan.corrupt.then_some(0));
        let store = set.store();
        let blocks = store.num_blocks() as u64;
        let server = SharedScanServer::with_config(
            store,
            workloads::server_config(self.engine, obs.as_ref()),
        );
        let t0 = Instant::now();
        let first = server.submit(set.jobs[0].clone()).wait();
        let revolution = t0.elapsed();
        tally.note(oracle::verify(first, set.expect[0], false));
        let closed = Closed {
            width: self.width,
            stagger: revolution / self.width as u32,
            warmup_jobs: (3 * self.width).max(5),
            round_len: plan.round_len,
            rounds: ROUNDS,
        };
        let target = ServerTarget { server: &server, set, checker: &checker };
        let run = closed_loop(&target, &WallClock::start(), &sys::cpu_ms, &closed);
        add_run(tally, &run);
        let jobs = run.samples.len() as u64 + 1;
        let counters = ScanCounters::read(&server, jobs, blocks);
        server.shutdown();
        Pass {
            run,
            verify_ms: checker.verify_ms(),
            snapshot: obs.and_then(|o| o.snapshot()),
            counters: Some(counters),
            service: None,
        }
    }

    fn probes(&self, reps: usize, m: &mut Metrics, checked: &mut Tally) -> ServerProbe {
        probes::kernel_probes(&self.set.corpus, self.engine.threads, reps, m);
        let run_job_ms = probes::exec_probes(&self.set, self.engine.threads, reps, m, checked);
        probes::server_probes(&self.set, self.engine, reps, run_job_ms, m, checked)
    }

    fn overhead_pct(&self, plain: &Round, traced: &Round) -> f64 {
        (plain.jobs_per_s() - traced.jobs_per_s()) / plain.jobs_per_s() * 100.0
    }
}

pub struct ServiceSubject {
    /// One corpus per tenant, in [`TENANTS`] order.
    pub sets: Vec<Workset<Wordcount>>,
    pub engine: Engine,
    pub seed: u64,
    /// Arrivals before the first round starts.
    pub warmup: Duration,
}

impl Subject for ServiceSubject {
    fn describe(&self) {
        for (set, (name, share)) in self.sets.iter().zip(TENANTS) {
            println!("tenant {name} ({share} % of arrivals): {}", set.describe());
        }
        println!(
            "open loop: {SERVICE_RATE} jobs/s, classes high/normal/low {CLASS_SHARE:?} %, \
             limit {} ms at p90",
            crate::LATENCY_LIMIT_MS
        );
    }

    fn corpora(&self) -> Vec<&[u8]> {
        self.sets.iter().map(|s| s.corpus.as_slice()).collect()
    }

    fn gen_s(&self) -> f64 {
        self.sets.iter().map(|s| s.gen_s).sum()
    }

    fn cold_start(&self) -> (Duration, bool) {
        workloads::cold_start_service(&self.sets, self.engine)
    }

    /// One job alone on each tenant first, as on a server; then the schedule.
    fn pass(&self, plan: &PassPlan, tally: &mut Tally) -> Pass {
        let sets = &self.sets;
        let marks: Vec<Duration> =
            (0..=ROUNDS as u32).map(|k| self.warmup + plan.round_len * k).collect();
        let due = sched::poisson_given_count(self.seed, SERVICE_RATE as f64, marks[ROUNDS]);
        let shares: Vec<usize> = TENANTS.iter().map(|t| t.1).collect();
        let arrivals = sched::arrivals(self.seed, due.len(), &shares, CLASS_SHARE);
        let tenant_obs = plan.traced.then(|| [Obs::new(), Obs::new()]);
        let checker = Checker::new(plan.corrupt.then_some(0));
        let t0 = Instant::now();
        let (service, files) =
            workloads::start_service(sets, self.engine, tenant_obs.as_ref().map(|o| o.as_slice()));
        let start_ms = t0.elapsed().as_secs_f64() * 1e3;
        for (file, set) in files.iter().zip(sets) {
            let first =
                service.submit(*file, QosClass::Normal, set.jobs[0].clone()).map(|h| h.wait());
            tally.note(first.is_ok_and(|r| oracle::verify(r, set.expect[0], false)));
        }
        // Every mark reads the CPU clock; the last one leaves the backlog behind.
        let backlog = Cell::new(0);
        let at_mark = || {
            backlog.set(service.queued());
            sys::cpu_ms()
        };
        let target =
            ServiceTarget { service: &service, files, sets, plan: &arrivals, checker: &checker };
        let schedule = Open { due: &due, marks: &marks };
        let run = open_loop(&target, &WallClock::start(), &at_mark, &schedule);
        let stats = service.stats();
        service.shutdown();
        add_run(tally, &run);
        Pass {
            run,
            verify_ms: checker.verify_ms(),
            snapshot: tenant_obs.and_then(|o| o[0].snapshot()),
            counters: None,
            service: Some(ServiceFacts {
                plan: arrivals,
                start_ms,
                stats,
                backlog_end: backlog.get(),
            }),
        }
    }

    /// On the busier tenant's corpus, at its one scan thread.
    fn probes(&self, reps: usize, m: &mut Metrics, checked: &mut Tally) -> ServerProbe {
        let set = &self.sets[0];
        probes::kernel_probes(&set.corpus, self.engine.threads, reps, m);
        let run_job_ms = probes::exec_probes(set, self.engine.threads, reps, m, checked);
        probes::server_probes(set, self.engine, reps, run_job_ms, m, checked)
    }

    /// The schedule fixes jobs/s in an open loop; telemetry shows as CPU per job.
    fn overhead_pct(&self, plain: &Round, traced: &Round) -> f64 {
        (traced.cpu_ms_per_job() - plain.cpu_ms_per_job()) / plain.cpu_ms_per_job() * 100.0
    }
}
