#![warn(missing_docs)]

//! # s3-bench — the experiment harness
//!
//! One entry point per table/figure of the paper's evaluation (Section V),
//! all runnable through the `repro` binary:
//!
//! | Paper artifact | Harness function | `repro` subcommand |
//! |---|---|---|
//! | Table I (workload details) | [`experiments::run_table1`] | `table1` |
//! | Figure 3 (cost of combined jobs) | [`experiments::run_fig3`] | `fig3` |
//! | Figure 4(a) sparse/normal/64MB | [`experiments::run_fig4`] | `fig4a` |
//! | Figure 4(b) dense/normal/64MB | [`experiments::run_fig4`] | `fig4b` |
//! | Figure 4(c) sparse/heavy/64MB | [`experiments::run_fig4`] | `fig4c` |
//! | Figure 4(d) sparse/normal/128MB | [`experiments::run_fig4`] | `fig4d` |
//! | Figure 4(e) sparse/normal/32MB | [`experiments::run_fig4`] | `fig4e` |
//! | Figure 4(f) selection/400GB | [`experiments::run_fig4`] | `fig4f` |
//! | Examples 1–3 (Section III) | [`experiments::run_examples`] | `examples` |
//!
//! Results print as aligned text tables and can be dumped as JSON for
//! downstream tooling.

pub mod ablations;
pub mod differential;
pub mod scenario;
pub mod experiments;
pub mod report;
pub mod retry;

pub use experiments::{
    run_examples, run_fig3, run_fig4, run_table1, Fig3Result, Fig4Result, Fig4Variant,
    SchedulerResult,
};
