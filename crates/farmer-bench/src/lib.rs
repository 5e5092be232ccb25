//! # farmer-bench — the experiment harness
//!
//! The evaluation reference-model matrix ([`evalmatrix`], checked against
//! the recorded `BENCH_eval.json` by [`refmodel`]) serves every cell
//! through the one [`lockstep`] driver — one predictor, queried once per
//! demand, whose answers both evaluation legs consume — and holds the
//! paper's cells ([`evalmatrix::paper_cells`]: the comparison grid, the
//! parameter study's sweeps, and keyed entries for the rows that are no
//! served run — Fig. 1, Table 2, the §4.1 cluster, the §4.2 layout, the
//! p = 0 agreement and the §7 attribute regression ([`regression`])),
//! which [`refmodel`] pins and [`refmodel::paper_shapes`] judges. The
//! `repro` binary prints exactly those cells next to the paper's
//! reference values ([`paper`]): all sections, or one with `--only
//! <name>`. `eval_matrix` is the crate's other binary; speed is measured
//! by one harness elsewhere (`benchmark/`'s `farmer_pipeline`), not here.
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
pub mod faults;
pub mod format;
pub mod lockstep;
pub mod paper;
pub mod refmodel;
pub mod regression;
