//! # farmer-bench — the experiment harness
//!
//! The evaluation reference-model matrix ([`evalmatrix`], checked against
//! the recorded `BENCH_eval.json` by [`refmodel`]) serves every cell
//! through the one [`lockstep`] driver — one predictor, queried once per
//! demand, whose answers both evaluation legs consume — and holds the
//! paper's cells ([`evalmatrix::paper_cells`]: the comparison grid and the
//! parameter study's sweeps) that [`refmodel::paper_shapes`] judges. The
//! `repro` binary prints them, and the rows that are not configuration
//! sweeps ([`experiments`]; the §7 attribute regression is in
//! [`regression`]), next to the paper's reference values ([`paper`]): all
//! sections, or one with `--only <name>`. `eval_matrix` is the crate's
//! other binary; speed is measured by one harness elsewhere
//! (`benchmark/`'s `farmer_pipeline`), not here.
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

// This crate is unsafe-free by policy.
#![forbid(unsafe_code)]

pub mod evalmatrix;
pub mod experiments;
pub mod faults;
pub mod format;
pub mod lockstep;
pub mod paper;
pub mod refmodel;
pub mod regression;
