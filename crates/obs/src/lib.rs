#![warn(missing_docs)]

//! # s3-obs — unified engine telemetry
//!
//! The real multithreaded runtime in `s3-engine` (worker pools, the
//! shared-scan server, the external shuffle) needs the same visibility the
//! simulator has always had through `s3-mapreduce::trace`: per-operation
//! timing, load accounting, and a timeline a human can open. This crate
//! provides the three layers, engine-agnostic:
//!
//! 1. **[`metrics`]** — a lock-free registry of named instruments
//!    (counters, gauges, fixed-bucket histograms). Counter and histogram
//!    cells are sharded per worker thread and aggregated on read; the hot
//!    path is one relaxed atomic RMW on a cache-line-padded shard, with
//!    zero allocation.
//! 2. **[`trace`]** — a structured runtime trace recorder: fixed-capacity
//!    ring buffers (sharded per thread) of span/instant events carrying
//!    thread + job + segment ids. Recording is gated on one relaxed atomic
//!    load, so a disabled recorder costs a branch.
//! 3. **[`chrome`]** — the shared export schema: both engine traces and
//!    simulator traces (`s3-mapreduce::Trace`) convert into
//!    [`chrome::ChromeEvent`]s and serialize through one writer into the
//!    Chrome trace-event JSON format, which loads directly in Perfetto
//!    (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Three SLO-facing layers build on those:
//!
//! 4. **[`hdr`]** — HDR-style log-linear histograms with a bounded
//!    relative error, mergeable snapshots, and a sliding-window view —
//!    the percentile substrate for open-loop runs (p50/p95/p99/p999 over
//!    time rather than since-process-start).
//! 5. **[`journal`]** — the per-job flight recorder:
//!    [`journal::JobJournal`] stitches a drained trace into causal per-job
//!    timelines (queue → scan → reduce, with recovery annotations),
//!    exportable as JSON and as per-job Perfetto tracks.
//! 6. **[`prom`]** — a dependency-free Prometheus text-format exporter on
//!    a plain `TcpListener`, plus the scrape/parse helpers the `s3top`
//!    dashboard polls through.
//!
//! Beside the telemetry sits the one piece of scheduling both sides share:
//! [`revolution`], the circular scan's segment arithmetic (Algorithm 1),
//! which the engine's coordinator and the simulator's S³ scheduler both
//! run. It has no clock, no threads and no job types.
//!
//! The [`Obs`] handle bundles a registry and a recorder behind an
//! `Option<Arc<_>>`: [`Obs::off()`] is a `None` that instrumented code
//! checks with one branch, which is what keeps the instrumented-but-off
//! hot path within noise of uninstrumented code.
//!
//! ```
//! use s3_obs::Obs;
//!
//! let obs = Obs::new();
//! if let Some(core) = obs.core() {
//!     let scans = core.metrics.counter("engine.blocks_scanned");
//!     scans.add(17);
//!     let t0 = core.tracer.now_us();
//!     // ... do the work ...
//!     core.tracer.span("segment", t0, s3_obs::trace::Ids::seg(3).jobs(2));
//!     assert_eq!(core.metrics.counter("engine.blocks_scanned").get(), 17);
//!     assert_eq!(core.tracer.drain().len(), 1);
//! }
//! ```

pub mod chrome;
pub mod hdr;
pub mod journal;
pub mod metrics;
pub mod prom;
pub mod revolution;
#[cfg(test)]
mod segment;
pub mod trace;

pub use chrome::{validate_chrome_trace, write_chrome_trace, ChromeEvent};
pub use hdr::{HdrHistogram, HdrSnapshot, HdrSummary, WindowedHdr};
pub use journal::{JobJournal, JobRecord, JOURNAL_SCHEMA};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use prom::{render_prometheus, PromServer};
pub use trace::{Event, Ids, Phase, TraceRecorder};

use std::sync::Arc;

/// One server's (or one run's) telemetry: a metrics registry plus a trace
/// recorder, created together and drained together.
pub struct ObsCore {
    /// Named instruments; aggregate with [`Registry::snapshot`].
    pub metrics: Registry,
    /// Span/instant recorder; export with [`TraceRecorder::drain`] +
    /// [`chrome::write_chrome_trace`].
    pub tracer: TraceRecorder,
}

/// A cheap, cloneable handle to one [`ObsCore`] — or to nothing.
///
/// Instrumented code holds an `Obs` and branches on [`Obs::core`]; the
/// disabled handle ([`Obs::off`], also `Default`) makes every
/// instrumentation site a single `Option` check.
#[derive(Clone, Default)]
pub struct Obs {
    core: Option<Arc<ObsCore>>,
}

impl Obs {
    /// Telemetry on: fresh registry, recorder enabled, default ring
    /// capacity (64k events per shard).
    pub fn new() -> Self {
        Obs::with_trace_capacity(trace::DEFAULT_SHARD_CAPACITY)
    }

    /// Telemetry on with an explicit per-shard ring capacity (number of
    /// retained events ≈ `capacity × shards`; oldest events are overwritten
    /// and counted as dropped once a shard ring fills).
    pub fn with_trace_capacity(per_shard: usize) -> Self {
        Obs {
            core: Some(Arc::new(ObsCore {
                metrics: Registry::new(),
                tracer: TraceRecorder::new(per_shard),
            })),
        }
    }

    /// Telemetry off: `core()` returns `None`, every instrumentation site
    /// reduces to a branch.
    pub fn off() -> Self {
        Obs { core: None }
    }

    /// Whether this handle carries telemetry.
    pub fn is_on(&self) -> bool {
        self.core.is_some()
    }

    /// The telemetry core, if on.
    pub fn core(&self) -> Option<&ObsCore> {
        self.core.as_deref()
    }

    /// Snapshot the metrics registry (`None` when off).
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.core().map(|c| c.metrics.snapshot())
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_on() { "Obs(on)" } else { "Obs(off)" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_inert() {
        let obs = Obs::off();
        assert!(!obs.is_on());
        assert!(obs.core().is_none());
        assert!(obs.snapshot().is_none());
    }

    #[test]
    fn on_handle_shares_one_core_across_clones() {
        let obs = Obs::new();
        let clone = obs.clone();
        obs.core().unwrap().metrics.counter("x").add(2);
        clone.core().unwrap().metrics.counter("x").add(3);
        assert_eq!(obs.snapshot().unwrap().counters["x"], 5);
    }
}
