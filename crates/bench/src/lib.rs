//! # crowder-bench
//!
//! The experiment harness of the CrowdER reproduction. Every table and
//! figure of the paper's evaluation (§7) has a module under
//! [`experiments`] whose `run()` regenerates the corresponding
//! rows/series against the calibrated synthetic datasets, printing paper
//! values next to measured ones. One binary per experiment
//! (`cargo run --release -p crowder-bench --bin fig12`), plus
//! `all_experiments`, which runs the full battery in order.
//!
//! [`gates`] holds the same-run timing gates (churn, WAL and recorder
//! overhead ratios); `cargo run --release -p crowder-bench --bin
//! bench_gates` measures them and exits non-zero on a breach.
//! End-to-end workloads are measured by the separate `perfbench/`
//! package; its `--trace 1` mode times the join, HIT generation and
//! Dawid–Skene per call.

pub mod experiments;
pub mod gates;
pub mod harness;
