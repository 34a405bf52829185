//! Multi-tenant `ScanService` under overload, through the public API:
//! typed load-shedding, QoS-class admission order, deadline expiry,
//! shutdown draining, and trace-level admission invariants
//! ([`check_engine_events`](s3_mapreduce::check_engine_events)) on a
//! fully observed service.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use s3_bench::retry::RetryPolicy;
use s3_engine::{
    FileSpec, JobError, MapReduceJob, Obs, QosClass, QosConfig, RejectReason,
    ScanService, ServerConfig, ServiceConfig, WaitTimeout,
};
use s3_engine::BlockStore;
use s3_mapreduce::check_engine_events;
use s3_workloads::ClassMix;

/// A word counter whose map can be held at a gate: while the gate is
/// closed the first mapped line spins, pinning the job (and the width
/// slot it occupies) in flight so queues can be observed deterministically.
struct HoldableCount {
    gate: Option<Arc<AtomicBool>>,
}

impl HoldableCount {
    fn free() -> Self {
        HoldableCount { gate: None }
    }

    fn held(gate: &Arc<AtomicBool>) -> Self {
        HoldableCount { gate: Some(Arc::clone(gate)) }
    }
}

impl MapReduceJob for HoldableCount {
    type K = String;
    type V = i64;
    type Out = i64;

    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        if let Some(g) = &self.gate {
            while !g.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        for w in line.split_whitespace() {
            emit(w.to_string(), 1);
        }
    }

    fn reduce(&self, _key: &String, values: &[i64]) -> Option<i64> {
        Some(values.iter().sum())
    }
}

fn corpus(words: usize) -> String {
    let mut s = String::new();
    for i in 0..words {
        s.push_str(&format!("w{:03}", i % 7));
        s.push(if i % 8 == 7 { '\n' } else { ' ' });
    }
    s
}

fn service_with(qos: QosConfig) -> ScanService<HoldableCount> {
    let files = ["logs", "events"]
        .iter()
        .map(|name| {
            let store = BlockStore::from_text(&corpus(256), 256);
            let server = ServerConfig::new(2, 1);
            FileSpec { name: (*name).to_string(), store, server }
        })
        .collect();
    ScanService::new(files, ServiceConfig { qos, obs: Obs::off() })
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Opens the gate when dropped, so a failed assertion unwinds cleanly:
/// without this, dropping the service joins threads stuck behind the
/// gate and the panic turns into a hang.
struct OpenOnDrop(Arc<AtomicBool>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn sheds_are_typed_with_reason_and_class() {
    let svc = service_with(
        QosConfig {
            queue_cap: 1,
            max_inflight: 1,
            max_queued_total: 2,
            ..QosConfig::default()
        },
    );
    let logs = svc.file_id("logs").expect("registered");
    let gate = Arc::new(AtomicBool::new(false));
    let _open = OpenOnDrop(Arc::clone(&gate));

    // Fill the single width slot, then the Normal queue slot.
    let pinned = svc.submit(logs, QosClass::Normal, HoldableCount::held(&gate)).unwrap();
    wait_until("the pinned job to occupy the width", || svc.inflight(logs) == 1);
    let queued = svc.submit(logs, QosClass::Normal, HoldableCount::free()).unwrap();

    // The next submission of the same class sheds synchronously, and the
    // error names both the reason and the class the caller used.
    let err = svc.submit(logs, QosClass::Normal, HoldableCount::free()).unwrap_err();
    assert_eq!(
        err,
        JobError::Rejected { reason: RejectReason::QueueFull, class: QosClass::Normal }
    );

    // High still has queue room, so it is accepted — and fills the
    // service-wide bound (2 queued), which is checked before any
    // per-class cap: the next High sheds as Overloaded, not QueueFull.
    let queued_high = svc.submit(logs, QosClass::High, HoldableCount::free()).unwrap();
    let err = svc.submit(logs, QosClass::High, HoldableCount::free()).unwrap_err();
    assert_eq!(
        err,
        JobError::Rejected { reason: RejectReason::Overloaded, class: QosClass::High }
    );

    // An unregistered name sheds with UnknownFile without touching queues.
    let err = svc
        .submit_named("no-such-file", QosClass::Low, HoldableCount::free())
        .unwrap_err();
    assert_eq!(
        err,
        JobError::Rejected { reason: RejectReason::UnknownFile, class: QosClass::Low }
    );

    gate.store(true, Ordering::SeqCst);
    pinned.wait().expect("pinned job completes");
    queued_high.wait().expect("queued high job admits and completes");
    queued.wait().expect("queued normal job admits and completes");
    let stats = svc.stats();
    assert_eq!(stats.submitted, 6);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.rejected, 3);
    assert!(stats.identity_holds(), "{stats:?}");
    svc.shutdown();
}

#[test]
fn high_jumps_the_queue_while_low_defers_at_the_width_cap() {
    let svc = service_with(
        QosConfig {
            queue_cap: 4,
            max_inflight: 2,
            low_priority_width_cap: 1,
            ..QosConfig::default()
        },
    );
    let logs = svc.file_id("logs").expect("registered");
    let gate = Arc::new(AtomicBool::new(false));
    let _open = OpenOnDrop(Arc::clone(&gate));

    let pinned = svc.submit(logs, QosClass::Normal, HoldableCount::held(&gate)).unwrap();
    wait_until("the pinned job to occupy the width", || svc.inflight(logs) == 1);

    // Width (1) is at the low cap: Low waits, and is counted deferred.
    let low = svc.submit(logs, QosClass::Low, HoldableCount::free()).unwrap();
    wait_until("the low job to be width-cap deferred", || svc.stats().deferred >= 1);
    assert_eq!(low.wait_timeout(Duration::from_millis(20)), Err(WaitTimeout));

    // High submitted later is admitted into the remaining slot first.
    let high = svc.submit(logs, QosClass::High, HoldableCount::free()).unwrap();
    wait_until("the high job to be admitted", || svc.inflight(logs) == 2);
    assert_eq!(svc.queued(), 1, "the low job is still queued behind the cap");

    gate.store(true, Ordering::SeqCst);
    pinned.wait().expect("pinned completes");
    high.wait_timeout(Duration::from_secs(10))
        .expect("high resolves")
        .expect("high completes");
    low.wait_timeout(Duration::from_secs(10))
        .expect("low resolves once width drops below the cap")
        .expect("low completes");
    let stats = svc.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.deferred, 1, "the deferral is counted once, not per poll");
    assert!(stats.identity_holds(), "{stats:?}");
    svc.shutdown();
}

#[test]
fn a_queued_deadline_expires_and_is_counted_exactly_once() {
    let svc = service_with(
        QosConfig { max_inflight: 1, ..QosConfig::default() });
    let logs = svc.file_id("logs").expect("registered");
    let gate = Arc::new(AtomicBool::new(false));
    let _open = OpenOnDrop(Arc::clone(&gate));

    let pinned = svc.submit(logs, QosClass::High, HoldableCount::held(&gate)).unwrap();
    wait_until("the pinned job to occupy the width", || svc.inflight(logs) == 1);

    // Queued behind a pinned revolution with a deadline far shorter than
    // the pin: the dispatcher expires it in the queue, server untouched.
    let doomed = svc
        .submit_with_deadline(
            logs,
            QosClass::Normal,
            HoldableCount::free(),
            Some(Duration::from_millis(5)),
        )
        .unwrap();
    assert_eq!(
        doomed.wait_timeout(Duration::from_secs(10)).expect("expiry resolves the handle"),
        Err(JobError::DeadlineExpired)
    );
    // The expiry is counted exactly once, and stays counted once even
    // after the pinned revolution later drains normally.
    assert_eq!(svc.stats().expired, 1);

    gate.store(true, Ordering::SeqCst);
    pinned.wait().expect("pinned completes");
    let stats = svc.stats();
    assert_eq!(stats.expired, 1);
    assert!(stats.identity_holds(), "{stats:?}");
    svc.shutdown();
}

#[test]
fn a_mixed_burst_with_retries_accounts_exactly_and_never_hangs() {
    // Fully observed: the service emits svc_* admission events and each
    // tenant emits engine events; both traces must pass the checker.
    // Obs handles are Arc-backed, so the clones kept here keep reading
    // after the service is consumed by shutdown.
    let svc_obs = Obs::new();
    let mut tenant_obs = Vec::new();
    let files: Vec<FileSpec> = ["logs", "events"]
        .iter()
        .map(|name| {
            let mut server = ServerConfig::new(2, 1);
            server.obs = Obs::new();
            tenant_obs.push(server.obs.clone());
            FileSpec {
                name: (*name).to_string(),
                store: BlockStore::from_text(&corpus(256), 256),
                server,
            }
        })
        .collect();
    let svc = ScanService::new(
        files,
        ServiceConfig {
            qos: QosConfig {
                queue_cap: 2,
                max_inflight: 2,
                low_priority_width_cap: 1,
                max_queued_total: 4,
                ..QosConfig::default()
            },
            obs: svc_obs.clone(),
        },
    );
    let files = [
        svc.file_id("logs").expect("registered"),
        svc.file_id("events").expect("registered"),
    ];
    let retry = RetryPolicy {
        max_retries: 2,
        base: Duration::from_micros(300),
        ..RetryPolicy::default()
    };
    let classes = ClassMix::default().assign(30, 9);
    let mut handles = Vec::new();
    let mut client_rejected = 0u64;
    let mut attempts = 0u64;
    for (i, &class) in classes.iter().enumerate() {
        let file = files[i % files.len()];
        // A third of the burst carries deadlines tight enough that some
        // expire while queued under the overload.
        let deadline = (i % 3 == 0).then(|| Duration::from_micros(400 + 300 * i as u64));
        let res = retry.run(i as u64, |_| {
            attempts += 1;
            svc.submit_with_deadline(file, class, HoldableCount::free(), deadline)
        });
        match res {
            Ok(h) => handles.push(h),
            Err(JobError::Rejected { .. }) => client_rejected += 1,
            Err(e) => panic!("burst submit failed with non-rejection error {e}"),
        }
    }

    // Every accepted handle must resolve within the bound — a hang here
    // is the failure this suite exists to catch.
    let mut client_done = 0u64;
    let mut client_expired = 0u64;
    for h in handles {
        match h.wait_timeout(Duration::from_secs(30)).expect("no handle hangs") {
            Ok(_) => client_done += 1,
            Err(JobError::DeadlineExpired) => client_expired += 1,
            Err(e) => panic!("burst job failed: {e}"),
        }
    }

    let stats = svc.stats();
    assert!(stats.identity_holds(), "{stats:?}");
    // Every retry resubmits, so the service counts attempts, not jobs.
    assert_eq!(stats.submitted, attempts);
    assert_eq!(stats.completed, client_done);
    assert_eq!(stats.expired, client_expired);
    // Client-side rejections count every shed *submission*, the service
    // counts every shed *attempt* (retries resubmit), so service-side
    // rejections can only be larger.
    assert!(
        stats.rejected >= client_rejected,
        "service saw {} rejects, client kept {client_rejected}",
        stats.rejected
    );

    svc.shutdown();

    // Drain traces through the engine-event checker: admission outcomes,
    // typed sheds, per-queue FIFO on the service trace; scheduling
    // invariants on each tenant's trace.
    let svc_core = svc_obs.core().expect("service observed");
    assert_eq!(svc_core.tracer.dropped(), 0, "service trace dropped events");
    let violations = check_engine_events(&svc_core.tracer.drain());
    assert!(violations.is_empty(), "service trace: {violations:?}");
    for obs in tenant_obs {
        let core = obs.core().expect("tenant observed");
        assert_eq!(core.tracer.dropped(), 0, "tenant trace dropped events");
        let violations = check_engine_events(&core.tracer.drain());
        assert!(violations.is_empty(), "tenant trace: {violations:?}");
    }
}
