#![warn(missing_docs)]

//! # s3-core — the S³ shared scan scheduler and its baselines
//!
//! This crate implements the contribution of *"S³: An Efficient Shared Scan
//! Scheduler on MapReduce Framework"* (Shi, Li, Tan; ICPP 2011) against the
//! engine model in `s3-mapreduce`:
//!
//! - [`S3Scheduler`] — the paper's scheduler: files are organized into
//!   segments scanned in a circular order; jobs are split into sub-jobs
//!   aligned at segment boundaries; the Job Queue Manager merges all
//!   sub-jobs that touch the next segment into one batch per iteration
//!   (Algorithm 1); partial job initialization submits one merged sub-job
//!   at a time, with periodic slot checking and dynamic sub-job adjustment.
//!   The segment arithmetic — cursor, per-job countdown, alignment — is
//!   `s3_obs::revolution` under its `Shorten` rule, the module the live
//!   engine's `SharedScanServer` runs under its `Clip` rule.
//! - [`FifoScheduler`] — Hadoop's default no-sharing FIFO baseline.
//! - [`MRShareScheduler`] — the file-based shared-scan baseline adapted
//!   from MRShare: jobs are grouped into batches up front and each batch is
//!   processed as one merged job.
//! - [`FairScheduler`] / [`CapacityScheduler`] — the *partial utilization*
//!   schedulers of Section II-B (Facebook's fair scheduler, Yahoo!'s
//!   capacity scheduler), provided as additional no-sharing baselines.
//! - [`analytic`] — closed-form TET/ART for the idealized two-job worked
//!   examples of Section III (Examples 1–3).

pub mod analytic;
pub mod capacity;
pub mod fair;
pub mod fifo;
pub mod mrshare;
pub mod optimizer;
pub mod s3;

pub use capacity::CapacityScheduler;
pub use fair::FairScheduler;
pub use fifo::FifoScheduler;
pub use mrshare::{BatchPolicy, MRShareScheduler};
pub use optimizer::{group_cost, optimize_grouping, Grouping};
pub use s3::{PriorityPolicy, S3Config, S3Scheduler, SubJobSizing};
// The job priority the policy keys on, so `PriorityPolicy` is usable
// without a direct `s3_mapreduce` dependency. The live engine's
// `s3_engine::QosClass` mirrors these levels for admission control.
pub use s3_mapreduce::Priority;
