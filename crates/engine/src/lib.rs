#![warn(missing_docs)]

//! # s3-engine — a real multi-threaded in-process MapReduce engine
//!
//! While `s3-mapreduce` *models* a cluster to study scheduling at the
//! paper's 40-node scale, this crate actually **executes** MapReduce jobs
//! over real in-memory data on the local machine's threads. It exists for
//! two reasons:
//!
//! 1. **Semantic grounding.** The S³/MRShare claim that a merged shared
//!    scan computes exactly what independent jobs compute is a correctness
//!    property. [`run_merged`] runs many jobs over a single scan of the
//!    block store, [`run_job`] is the same scan with one rider, and the
//!    test suite proves both — and every [`SharedScanServer`] revolution —
//!    equal to [`run_job_legacy`], a sequential reference that shares no
//!    code with them.
//! 2. **Cost grounding.** The real engine measures how shared scanning
//!    trades one pass of I/O + parsing against per-job map function work —
//!    the same structure the simulator's `CostModel` (in `s3-mapreduce`)
//!    encodes.
//!
//! The execution shape mirrors Hadoop: map workers pull blocks, route
//! their output to reduce shards by key hash (the only partitioner;
//! [`PartitionMode`] keeps one variant), a fold combiner (if the job
//! declares one) folds map-side, and reduce workers process the shards,
//! all in memory.
//! One map core and one reduce core serve the batch front and the server
//! alike (DESIGN.md, "One map core, one reduce core").
//!
//! ## Observability
//!
//! Telemetry is an [`Obs`] handle (from the `s3-obs` crate, re-exported
//! here) given to [`run_merged_observed`], [`ServerConfig::obs`] or
//! [`WorkerPool::new_observed`](pool::WorkerPool::new_observed). They
//! record `engine.*` counters/gauges/histograms into the handle's metrics
//! registry and spans/instants into its trace recorder, exportable as a
//! Perfetto-loadable Chrome trace. [`Obs::off`] — what [`run_job`],
//! [`run_merged`] and [`ServerConfig::new`] use — costs one branch per
//! site.
//!
//! ## Fault tolerance
//!
//! The shared-scan server quarantines panicking jobs (each failure is
//! individual — see [`JobError`]), optionally runs segments as retryable
//! per-block tasks scheduled by a **work-assisting claim loop** — fresh
//! claims come off one packed [`WorkProgress`](pool::WorkProgress) atomic
//! and idle workers immediately re-execute the slow tail, while claim
//! deadlines charge the misses that drive slow-worker exclusion
//! ([`FtConfig::resilient`]) — and accepts a
//! seeded [`FaultPlan`] that injects delays, drops, panics, and
//! coordinator death deterministically — the engine-level mirror of the
//! simulator's `s3-cluster` chaos harness.
//!
//! ## Adaptive segments
//!
//! With [`AdaptiveConfig::enabled`] the server ports the paper's *dynamic
//! sub-job adjustment* to the live engine: segment boundaries are
//! recomputed at runtime from an EWMA of measured scan cost and the
//! current non-excluded worker count, so one segment keeps filling one
//! map wave as conditions drift — without ever changing job outputs
//! (resized revolutions stay byte-identical to solo runs).

pub mod arena;
pub mod exec;
pub(crate) mod fanout;
pub mod fault;
pub(crate) mod partition;
pub mod pool;
pub(crate) mod reduce;
pub mod scan_server;
pub mod service;
pub mod store;
pub mod types;

pub use arena::TokenMap;
pub use exec::{
    run_job, run_job_legacy, run_merged, run_merged_legacy, run_merged_observed, ExecConfig,
    JobOutput, ScanStats,
};
pub use fault::{EngineChaosConfig, EngineFault, FaultPlan, FtConfig};
pub use pool::{WorkProgress, WorkerPool};
pub use s3_obs::Obs;
pub use scan_server::{
    AdaptiveConfig, JobHandle, ServerConfig, SharedScanServer, WaitTimeout,
};
pub use service::{FileSpec, QosConfig, ScanService, ServiceConfig, ServiceStats};
pub use store::{BlockStore, FileId, UnknownFile};
pub use types::{
    ConfigError, JobError, JobResult, JobShape, MapReduceJob, PartitionMode, QosClass, RejectReason,
};
