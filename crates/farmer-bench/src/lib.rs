//! # farmer-bench — the experiment harness
//!
//! The paper's sweeps and worked examples are functions in
//! [`experiments`]; the `repro` binary prints them all, or one with
//! `--only <name>`, next to the paper's reference values ([`paper`]). One
//! of them is the paper's named future work (§7), the attribute
//! regression in [`regression`]. The evaluation reference-model matrix
//! ([`evalmatrix`], checked against the recorded `BENCH_eval.json` by
//! [`refmodel`]) serves its online and failure cells through the one
//! [`lockstep`] driver, and holds the paper's comparison grid
//! ([`evalmatrix::paper_cells`]: LRU, Nexus and FARMER on the four trace
//! presets) that `repro`'s Figure 7, Table 3, Figure 8 and Table 4 print
//! from and [`refmodel::paper_shapes`] judges. Those are the crate's two
//! binaries, `repro` and `eval_matrix`; speed is measured by one harness
//! elsewhere (`benchmark/`'s `farmer_pipeline`), not here.
//!
//! Both binaries parse their command line through [`format::BenchArgs`]:
//! an optional positional **scale factor** applied to the trace event
//! counts (default 1.0; e.g. `0.2` for a fast smoke run), `--quick`,
//! `--check`, `--obs` (`eval_matrix`; `repro` exits 2 on either),
//! `--only <name>` (`repro`); an unknown flag exits 2:
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
pub mod regression;
