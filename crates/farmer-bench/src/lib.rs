//! # farmer-bench — the experiment harness
//!
//! The paper's tables and figures are functions in [`experiments`]; the
//! `repro` binary prints them all, or one with `--only <name>`, next to
//! the paper's reference values ([`paper`]). The evaluation
//! reference-model matrix ([`evalmatrix`], bands in [`refmodel`]) serves
//! its online and failure cells through the one [`lockstep`] driver. The
//! throughput binaries (`mine_`, `stream_`, `query_`, `serve_throughput`)
//! emit the `BENCH_*.json` records.
//!
//! `repro`, `cluster_scaling` and `regression_analysis` accept an optional
//! positional **scale factor** applied to the trace event counts (default
//! 1.0; e.g. `0.2` for a fast smoke run):
//!
//! ```text
//! cargo run --release -p farmer-bench --bin repro                      # everything
//! cargo run --release -p farmer-bench --bin repro -- 0.2 --only fig7   # one figure
//! ```
//!
//! Criterion micro-benchmarks for the kernels (similarity, miner update,
//! cache ops, B+-tree ops, trace generation) live in `benches/`.

// This crate is unsafe-free by policy (lint rule R2 guards the rest).
#![forbid(unsafe_code)]

pub mod evalmatrix;
pub mod experiments;
pub mod faults;
pub mod format;
pub mod lockstep;
pub mod paper;
pub mod refmodel;
pub mod serve;

/// Parse the scale factor from `argv[1]` (default 1.0).
pub fn scale_from_args() -> f64 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn scale_default_is_one() {
        // argv[1] in the test harness is not a number.
        assert_eq!(super::scale_from_args(), 1.0);
    }
}
