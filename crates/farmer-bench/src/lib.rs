//! # farmer-bench — the experiment harness
//!
//! The paper's tables and figures are functions in [`experiments`]; the
//! `repro` binary prints them all, or one with `--only <name>`, next to
//! the paper's reference values ([`paper`]). The evaluation
//! reference-model matrix ([`evalmatrix`], checked against the recorded
//! `BENCH_eval.json` by [`refmodel`]) serves its online and failure cells
//! through the one [`lockstep`] driver. Those are the crate's two
//! binaries, `repro` and `eval_matrix`; speed is measured by one harness
//! elsewhere (`benchmark/`'s `farmer_pipeline`), not here.
//!
//! Both binaries parse their command line through [`format::BenchArgs`]:
//! an optional positional **scale factor** applied to the trace event
//! counts (default 1.0; e.g. `0.2` for a fast smoke run), `--quick`,
//! `--check`, `--obs`, `--only <name>` (`repro`); an unknown flag exits 2:
//!
//! ```text
//! cargo run --release -p farmer-bench --bin repro                      # everything
//! cargo run --release -p farmer-bench --bin repro -- 0.2 --only fig7   # one figure
//! cargo run --release -p farmer-bench --bin eval_matrix -- --check     # vs BENCH_eval.json
//! ```

// This crate is unsafe-free by policy (lint rule R2 guards the rest).
#![forbid(unsafe_code)]

pub mod evalmatrix;
pub mod experiments;
pub mod faults;
pub mod format;
pub mod lockstep;
pub mod paper;
pub mod refmodel;
