//! The batch front's panic contract. `run_job` / `run_merged` run the code
//! the server wraps in `catch_unwind`, but quarantine nothing themselves: a
//! panic in any rider's own code re-raises on the caller with the payload it
//! was raised with, whichever thread and phase it happened in, and the pool
//! handed to `run_merged_observed` serves the next batch as if nothing had
//! happened.
//!
//! The job's shape at its edges: every [`JobShape`] a job can write runs on
//! the trait's defaults or fails with a typed [`JobError`] — on the batch
//! front as the payload, on server and service handles as the result — and
//! the engine asks for the shape once per submission.

use s3_engine::{
    run_job, run_merged, run_merged_legacy, run_merged_observed, BlockStore, ExecConfig, FileSpec,
    FtConfig, JobError, JobShape, MapReduceJob, Obs, QosClass, ScanService, ServerConfig,
    ServiceConfig, SharedScanServer, WorkerPool,
};
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Where in a rider's code the bomb sits.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Site {
    Map,
    MapTokenBytes,
    Combine,
    CombineFold,
    TokenKey,
    Reduce,
}

/// The panic payload: not a string, so that receiving it proves the caller
/// got the original and not a rendering of it.
#[derive(Debug, PartialEq)]
struct Boom(Site);

/// How a rider rides, which decides which of its functions the engine calls.
#[derive(Clone, Copy)]
enum Shape {
    /// Whole lines, no fold combiner: `map`, then `combine` and `reduce`.
    Line,
    /// Per token with a fold combiner: `map_token`, `combine_fold`.
    Token,
    /// Token identity: the arena, then `token_key` at the flush.
    Identity,
}

/// Word count that goes off at `bomb` when it meets the word `gamma`.
struct Rider {
    shape: Shape,
    bomb: Option<Site>,
}

impl Rider {
    fn healthy(shape: Shape) -> Self {
        Rider { shape, bomb: None }
    }

    /// A rider of the shape whose path runs through `site`.
    fn armed(site: Site) -> Self {
        let shape = match site {
            Site::Map | Site::Combine => Shape::Line,
            Site::MapTokenBytes | Site::CombineFold => Shape::Token,
            Site::TokenKey | Site::Reduce => Shape::Identity,
        };
        Rider { shape, bomb: Some(site) }
    }

    fn trip(&self, site: Site, word: &[u8]) {
        if self.bomb == Some(site) && word == b"gamma" {
            panic_any(Boom(site));
        }
    }
}

impl MapReduceJob for Rider {
    type K = String;
    /// A count, and the word's first byte — every word of the corpus has
    /// its own — so that `combine_fold`, which sees no key, knows the word.
    type V = (u8, i64);
    type Out = i64;

    fn map(&self, line: &str, emit: &mut dyn FnMut(String, (u8, i64))) {
        for w in line.split_whitespace() {
            self.trip(Site::Map, w.as_bytes());
            self.map_token(w.as_bytes(), emit);
        }
    }
    fn combine(&self, k: &String, v: Vec<(u8, i64)>) -> Vec<(u8, i64)> {
        self.trip(Site::Combine, k.as_bytes());
        vec![(k.as_bytes()[0], v.iter().map(|v| v.1).sum())]
    }
    fn reduce(&self, k: &String, v: &[(u8, i64)]) -> Option<i64> {
        self.trip(Site::Reduce, k.as_bytes());
        Some(v.iter().map(|v| v.1).sum())
    }
    fn shape(&self) -> JobShape<'_> {
        match self.shape {
            Shape::Line => JobShape::Line,
            Shape::Token => JobShape::TokenFold { prefix: b"" },
            Shape::Identity => JobShape::TokenIdentity { prefix: b"" },
        }
    }
    fn combine_fold(&self, acc: &mut (u8, i64), next: (u8, i64)) -> Option<(u8, i64)> {
        if acc.0 == b'g' {
            self.trip(Site::CombineFold, b"gamma");
        }
        acc.1 += next.1;
        None
    }
    fn map_token(&self, token: &[u8], emit: &mut dyn FnMut(String, (u8, i64))) {
        self.trip(Site::MapTokenBytes, token);
        emit(String::from_utf8_lossy(token).into_owned(), (token[0], 1));
    }
    fn token_value(&self, token: &[u8]) -> Option<(u8, i64)> {
        Some((token[0], 1))
    }
    fn token_key(&self, token: &[u8]) -> Option<String> {
        self.trip(Site::TokenKey, token);
        Some(String::from_utf8_lossy(token).into_owned())
    }
}

/// Twelve blocks; `gamma` first shows up in the fifth, so every bomb goes
/// off mid-batch, with blocks mapped before it and after it.
fn store() -> BlockStore {
    let calm = "alpha beta alpha delta\nbeta delta alpha\n".repeat(4);
    let text = calm.repeat(4) + &"epsilon gamma beta gamma delta\ngamma alpha\n".repeat(32);
    BlockStore::from_text(&text, 160)
}

/// The payload `f` unwinds with.
fn payload_of<T>(f: impl FnOnce() -> T) -> Box<dyn std::any::Any + Send> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(_) => panic!("the armed rider did not go off"),
        Err(payload) => payload,
    }
}

fn check(site: Site) {
    let store = store();
    assert!(store.num_blocks() >= 12);
    for threads in [1, 3] {
        let cfg = ExecConfig { num_threads: threads, num_reducers: 3 };
        let mode = format!("{site:?}, {threads} threads");
        let pool = WorkerPool::new(threads);
        let riders = [Rider::healthy(Shape::Identity), Rider::armed(site), Rider::healthy(Shape::Line)];
        let refs: Vec<&Rider> = riders.iter().collect();
        let payload = payload_of(|| run_merged_observed(&pool, &refs, &store, &cfg, &Obs::off()));
        assert_eq!(payload.downcast_ref::<Boom>(), Some(&Boom(site)), "run_merged: {mode}");
        let payload = payload_of(|| run_job(&riders[1], &store, &cfg));
        assert_eq!(payload.downcast_ref::<Boom>(), Some(&Boom(site)), "run_job: {mode}");

        // The pool that carried the panic runs the next batch whole.
        let riders = [Rider::healthy(Shape::Token), Rider::healthy(Shape::Line), Rider::healthy(Shape::Identity)];
        let refs: Vec<&Rider> = riders.iter().collect();
        let after = run_merged_observed(&pool, &refs, &store, &cfg, &Obs::off());
        assert_eq!(after, run_merged_legacy(&refs, &store), "after the panic: {mode}");
        assert_eq!(pool.threads_spawned(), threads as u64);
    }
}

#[test]
fn a_panic_in_map_reaches_the_caller() {
    check(Site::Map);
}

#[test]
fn a_panic_in_map_token_bytes_reaches_the_caller() {
    check(Site::MapTokenBytes);
}

#[test]
fn a_panic_in_combine_reaches_the_caller() {
    check(Site::Combine);
}

#[test]
fn a_panic_in_combine_fold_reaches_the_caller() {
    check(Site::CombineFold);
}

#[test]
fn a_panic_in_token_key_reaches_the_caller() {
    check(Site::TokenKey);
}

#[test]
fn a_panic_in_reduce_reaches_the_caller() {
    check(Site::Reduce);
}

/// Debug builds run a rider that declares a prefix on the tokens the index
/// kept from it; one that emits for such a token is a liar, and the batch
/// front says so to the caller instead of dropping the records.
#[cfg(debug_assertions)]
#[test]
fn a_lying_token_prefix_reaches_the_caller() {
    /// Counts every word, declares it only counts words starting with `al`.
    struct Liar {
        lies: bool,
    }
    impl MapReduceJob for Liar {
        type K = String;
        type V = i64;
        type Out = i64;
        fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
            line.split_whitespace().for_each(|w| self.map_token(w.as_bytes(), emit));
        }
        fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
            Some(v.iter().sum())
        }
        fn shape(&self) -> JobShape<'_> {
            JobShape::Token { prefix: if self.lies { b"al" } else { b"" } }
        }
        fn map_token(&self, token: &[u8], emit: &mut dyn FnMut(String, i64)) {
            emit(String::from_utf8_lossy(token).into_owned(), 1);
        }
    }
    let store = store();
    let cfg = ExecConfig { num_threads: 2, num_reducers: 3 };
    let pool = WorkerPool::new(2);
    let riders = [Liar { lies: false }, Liar { lies: true }, Liar { lies: false }];
    let refs: Vec<&Liar> = riders.iter().collect();
    let payload = payload_of(|| run_merged_observed(&pool, &refs, &store, &cfg, &Obs::off()));
    let msg = payload.downcast_ref::<String>().expect("an assert! message");
    assert!(msg.contains("token_prefix") && msg.contains("\"al\""), "{msg}");
    let honest = [&riders[0], &riders[2]];
    assert_eq!(
        run_merged_observed(&pool, &honest, &store, &cfg, &Obs::off()),
        run_merged_legacy(&honest, &store)
    );
}

/// A word count that declares `.0` and writes nothing else its shape could
/// call for: `map_token`, `token_value`, `token_key` and `combine_fold` are
/// the trait's defaults.
struct Declared(JobShape<'static>);

impl MapReduceJob for Declared {
    type K = String;
    type V = i64;
    type Out = i64;
    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        line.split_whitespace().for_each(|w| emit(w.to_string(), 1));
    }
    fn combine(&self, _k: &String, v: Vec<i64>) -> Vec<i64> {
        vec![v.iter().sum()]
    }
    fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
        Some(v.iter().sum())
    }
    fn shape(&self) -> JobShape<'_> {
        self.0
    }
}

/// A shape is one of five variants, so the combinations the engine once had
/// to reject (a token-identity job that maps by line, an identity flag
/// without a fold) cannot be written. Each of the five runs on the defaults:
/// the non-fold shapes compute the reference; a fold shape's default
/// `combine_fold` hands the value back, and the job fails with
/// [`JobError::FoldRefused`] — the batch caller's payload, the server's and
/// the service's handle result — never with a panic of the engine's. The
/// pool, the server and the service go on serving.
#[test]
fn every_writable_shape_runs_on_defaults_or_fails_typed() {
    let store = store();
    let cfg = ExecConfig { num_threads: 3, num_reducers: 3 };
    let pool = WorkerPool::new(3);
    let healthy = [Rider::healthy(Shape::Identity), Rider::healthy(Shape::Token)];
    let healthy: Vec<&Rider> = healthy.iter().collect();
    let line = run_merged_legacy(&[&Declared(JobShape::Line)], &store).remove(0);
    for shape in [
        JobShape::Line,
        JobShape::LineFold,
        JobShape::Token { prefix: b"" },
        JobShape::TokenFold { prefix: b"" },
        JobShape::TokenIdentity { prefix: b"" },
    ] {
        let job = Declared(shape);
        let want = match shape {
            JobShape::Line | JobShape::Token { .. } => Ok(run_merged_legacy(&[&job], &store).remove(0)),
            _ => Err(JobError::FoldRefused),
        };
        let batch = catch_unwind(AssertUnwindSafe(|| {
            run_merged_observed(&pool, &[&job], &store, &cfg, &Obs::off()).remove(0)
        }));
        let batch = batch.map_err(|p| *p.downcast::<JobError>().expect("a typed payload"));
        assert_eq!(batch, want, "run_merged_observed, {shape:?}");
        let after = run_merged_observed(&pool, &healthy, &store, &cfg, &Obs::off());
        assert_eq!(after, run_merged_legacy(&healthy, &store), "after {shape:?}");

        for ft in [FtConfig::default(), FtConfig::resilient()] {
            let server = SharedScanServer::with_config(store.clone(), ServerConfig { ft, ..ServerConfig::new(2, 3) });
            let handle = server.submit(Declared(shape));
            assert_eq!(handle.wait(), want, "server, {shape:?}");
            assert_eq!(server.submit(Declared(JobShape::Line)).wait(), Ok(line.clone()));
            server.shutdown();
        }

        let service = ScanService::new(vec![FileSpec::new("t", store.clone(), 2, 3)], ServiceConfig::default());
        let file = service.file_id("t").expect("registered");
        let handle = service.submit(file, QosClass::Normal, Declared(shape)).expect("admitted");
        assert_eq!(handle.wait(), want, "service, {shape:?}");
        let after = service.submit(file, QosClass::Normal, Declared(JobShape::Line)).expect("admitted");
        assert_eq!(after.wait(), Ok(line.clone()));
        service.shutdown();
    }
}

/// A word count of the words starting with `a` that counts how often it is
/// asked for its shape.
struct Counted(Arc<AtomicUsize>);

impl MapReduceJob for Counted {
    type K = String;
    type V = i64;
    type Out = i64;
    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        for w in line.split_whitespace().filter(|w| w.starts_with('a')) {
            emit(w.to_string(), 1);
        }
    }
    fn reduce(&self, _k: &String, v: &[i64]) -> Option<i64> {
        Some(v.iter().sum())
    }
    fn shape(&self) -> JobShape<'_> {
        self.0.fetch_add(1, Ordering::Relaxed);
        JobShape::TokenIdentity { prefix: b"a" }
    }
    fn combine_fold(&self, acc: &mut i64, next: i64) -> Option<i64> {
        *acc += next;
        None
    }
}

/// The engine asks for a job's shape once per submission, on every front,
/// however many segments its revolution takes.
#[test]
fn shape_is_asked_once_per_submission() {
    let store = store();
    let calls = Arc::new(AtomicUsize::new(0));
    let job = || Counted(Arc::clone(&calls));
    let asked = || calls.swap(0, Ordering::Relaxed);
    let cfg = ExecConfig { num_threads: 2, num_reducers: 2 };
    let want = run_merged_legacy(&[&job()], &store).remove(0);
    assert_eq!(asked(), 0, "the reference never asks");

    assert_eq!(run_job(&job(), &store, &cfg), want);
    assert_eq!(asked(), 1, "run_job");
    let jobs = [job(), job(), job()];
    let merged = run_merged(&jobs.iter().collect::<Vec<_>>(), &store, &cfg);
    assert!(merged.iter().all(|out| *out == want));
    assert_eq!(asked(), 3, "run_merged of three");

    for (scan, ft) in [("cooperative", FtConfig::default()), ("resilient", FtConfig::resilient())] {
        let server = SharedScanServer::with_config(store.clone(), ServerConfig { ft, ..ServerConfig::new(2, 2) });
        let handles = server.submit_all(vec![job(), job()]);
        for handle in handles {
            assert_eq!(handle.wait().expect("job completes"), want);
        }
        assert!(server.iterations() >= 4, "{} segments", server.iterations());
        server.shutdown();
        assert_eq!(asked(), 2, "a {scan} server revolution");
    }

    let service = ScanService::new(vec![FileSpec::new("t", store.clone(), 2, 2)], ServiceConfig::default());
    let file = service.file_id("t").expect("registered");
    let handle = service.submit(file, QosClass::High, job()).expect("admitted");
    assert_eq!(handle.wait().expect("job completes"), want);
    service.shutdown();
    assert_eq!(asked(), 1, "a one-tenant service");
}
