//! The guard against this standalone package rotting outside the root
//! workspace's tier-1: run every workload at 1/20 size, untraced and
//! traced, and require every metric `BENCHMARK.json` names to come back
//! present, finite and with its unit.

// The binary's own reader; the test uses a part of it.
#[allow(dead_code)]
#[path = "../src/bin/farmer_pipeline/json.rs"]
mod json;

use std::path::Path;
use std::process::Command;

use json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_farmer_pipeline");
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

fn names(manifest: &Json, list: &str) -> Vec<(String, String)> {
    manifest
        .get(list)
        .expect("list present in BENCHMARK.json")
        .as_arr()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

/// Run `all --smoke` (traced or not) and return its record.
fn smoke(traced: bool) -> Json {
    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("smoke-test-{}-{traced}.json", std::process::id()));
    let mut cmd = Command::new(BIN);
    cmd.args(["all", "--seed", "1", "--smoke", "--out"])
        .arg(&out);
    if traced {
        cmd.arg("--trace");
    }
    let status = cmd.status().expect("run farmer_pipeline");
    assert!(status.success(), "all --smoke (traced: {traced}) failed");
    let record = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let _ = std::fs::remove_file(out);
    record
}

fn assert_reported(record: &Json, wanted: &[(String, String)], workloads: usize) {
    let rows = record.get("workloads").unwrap().as_arr();
    assert_eq!(rows.len(), workloads);
    for row in rows {
        let workload = row.get("name").and_then(Json::as_str).unwrap();
        let metrics = row.get("metrics").unwrap().as_arr();
        for (name, unit) in wanted {
            let m = metrics
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("{workload}: metric {name} not reported"));
            let median = m.get("median").and_then(Json::as_f64);
            assert!(
                median.is_some_and(f64::is_finite),
                "{workload}: metric {name} is not finite: {median:?}"
            );
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{workload}: metric {name} lost its unit"
            );
        }
    }
}

#[test]
fn manifest_is_generated_from_the_tables() {
    let out = Command::new(BIN).arg("manifest").output().unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        MANIFEST,
        "BENCHMARK.json is stale: regenerate it with `farmer_pipeline manifest`"
    );
}

#[test]
fn smoke_reports_every_named_metric() {
    let manifest = Json::parse(MANIFEST).unwrap();
    let workloads = manifest.get("workloads").unwrap().as_arr().len();
    assert_reported(&smoke(false), &names(&manifest, "end_to_end"), workloads);
    assert_reported(&smoke(true), &names(&manifest, "per_layer"), workloads);
}

#[test]
fn a_broken_check_fails_the_run() {
    let status = Command::new(BIN)
        .args(["--workload", "serve_fits", "--seed", "1", "--seconds", "10"])
        .args(["--trace", "0", "--smoke", "--sabotage"])
        .status()
        .unwrap();
    assert!(!status.success(), "a sabotaged reference must fail the run");
}
