//! The reference model: the checked-in `BENCH_eval.json`, and the bands
//! derived from it.
//!
//! Every cell of [`crate::evalmatrix`] is recorded in `BENCH_eval.json`
//! (full scale, compiled in here). The whole pipeline — synthetic
//! generators, miner, query layer, cache and MDS simulators — is
//! deterministic for a fixed scale, so a fresh run is expected to land
//! *on* the recorded values; [`check`] allows each banded metric the
//! margin of its rule (the [`Band`] constructors, one per rule) — tight
//! by design: the bands exist to catch *regressions in model quality or
//! simulator behaviour*, not to absorb noise. Wall-clock fields
//! (`events_per_sec`, `recovery_ms`) are machine-dependent and never
//! compared.
//!
//! **Recalibrating** (after an intentional change to generators, miner or
//! predictors): `eval_matrix > BENCH_eval.json`, review the `git diff` of
//! the record, commit. [`check`] also reports — without failing — every
//! cell whose deterministic fields no longer equal the record as printed,
//! so a stale record does not go unnoticed inside its own bands.

use crate::evalmatrix::Cell;
use farmer_obs::Json;

/// Version of the `BENCH_eval.json` record layout. Bump on any field
/// addition, removal or rename so downstream tooling can dispatch. CI greps
/// it against the checked-in `BENCH_eval.json` and a tier-1 test compares
/// it with the compiled-in copy, so a schema bump without a regenerated
/// record fails fast.
///
/// v2 added the online/frozen/capped miner modes, v3 the service-time
/// quantiles and the top-level `obs` dump, v4 the `failure` scenario
/// family (`recoveries` … `wal_bytes`, `failure_modes`, `obs_recovery`),
/// v5 checkpoint-anchored recovery (`ckpt`, `recovered_events`,
/// `replay_fraction`). v6: the record *is* the reference model — the
/// derived per-cell `band` / `failure_band` objects and the top-level
/// `profile` are gone ([`check`] derives every band).
pub const SCHEMA_VERSION: u32 = 6;

/// An inclusive expected range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl Band {
    /// Does `v` fall inside the band?
    pub fn contains(self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// `[lo, hi]` rounded outward to the third decimal.
    fn outward(lo: f64, hi: f64) -> Band {
        Band {
            lo: (lo * 1000.0).floor() / 1000.0,
            hi: (hi * 1000.0).ceil() / 1000.0,
        }
    }

    /// `v ± max(rel·|v|, abs)`, clamped to `[min, max]`.
    fn around(v: f64, rel: f64, abs: f64, (min, max): (f64, f64)) -> Band {
        let margin = (rel * v.abs()).max(abs);
        Band::outward((v - margin).max(min), (v + margin).min(max))
    }

    /// Hit ratio and prefetch accuracy: ±max(25 %, 0.05) within [0, 1].
    pub fn around_ratio(v: f64) -> Band {
        Band::around(v, 0.25, 0.05, (0.0, 1.0))
    }

    /// Mean response time (ms): −40 % / +60 %.
    pub fn around_response(ms: f64) -> Band {
        Band::outward(ms * 0.6, ms * 1.6)
    }

    /// Resident memory (bytes): a ceiling of 2×, no floor.
    pub fn memory_ceiling(bytes: f64) -> Band {
        Band {
            lo: 0.0,
            hi: 2.0 * bytes,
        }
    }

    /// Replayed WAL events across a failure cell's recoveries: ±25 %,
    /// in whole events.
    pub fn around_recovery_events(events: f64) -> Band {
        Band {
            lo: (events * 0.75).floor(),
            hi: (events * 1.25).ceil(),
        }
    }

    /// Replayed share of the recovered state: ±max(10 %, 0.02) within
    /// [0, 1] — a ratio of two deterministic counts, pinned near 1.0 for
    /// genesis replay and well below it for checkpoint-anchored recovery
    /// (the band that asserts the O(log) → O(suffix) collapse).
    pub fn around_fraction(v: f64) -> Band {
        Band::around(v, 0.10, 0.02, (0.0, 1.0))
    }

    /// Worst per-kill hit-ratio dip: ±max(25 %, 0.05) within [−1, 1] — a
    /// dip can legitimately be negative when the post-kill window lands
    /// on an easier stretch.
    pub fn around_dip(v: f64) -> Band {
        Band::around(v, 0.25, 0.05, (-1.0, 1.0))
    }
}

/// Cell fields that time the host rather than the model: never banded,
/// never compared with the record.
const WALL_CLOCK_FIELDS: [&str; 2] = ["events_per_sec", "recovery_ms"];

/// The numeric cell fields [`check`] reads from the record.
const BANDED_FIELDS: [&str; 8] = [
    "hit_ratio",
    "prefetch_accuracy",
    "avg_response_ms",
    "memory_bytes",
    "recoveries",
    "recovery_events",
    "replay_fraction",
    "hit_ratio_dip",
];

/// A parsed `BENCH_eval.json`: what a run is checked against.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The record's `schema_version`.
    pub schema_version: u64,
    /// The scale the record was measured at; its values only hold there.
    pub scale: f64,
    cells: Vec<Json>,
}

/// `(scenario, miner_mode, predictor)` of a recorded cell.
fn key(record: &Json) -> Option<(&str, &str, &str)> {
    let text = |k: &str| record.get(k).and_then(Json::as_str);
    Some((text("scenario")?, text("miner_mode")?, text("predictor")?))
}

impl Reference {
    /// The checked-in record, compiled into the binary.
    pub fn checked_in() -> Result<Reference, String> {
        Reference::parse(include_str!("../../../BENCH_eval.json"))
    }

    /// Read a record: malformed JSON, and a cell without its key or one
    /// of the banded numeric fields, are errors.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let root = Json::parse(text).map_err(|e| e.to_string())?;
        let top = |k: &str| root.get(k).ok_or(format!("record has no `{k}`"));
        let schema_version = top("schema_version")?
            .as_u64()
            .ok_or("`schema_version` is not an unsigned integer")?;
        let scale = top("scale")?.as_f64().ok_or("`scale` is not a number")?;
        let cells = top("cells")?.as_array().ok_or("`cells` is not an array")?;
        for (i, cell) in cells.iter().enumerate() {
            if key(cell).is_none() {
                return Err(format!("cell {i} lacks scenario/miner_mode/predictor"));
            }
            for field in BANDED_FIELDS {
                if cell.get(field).and_then(Json::as_f64).is_none() {
                    return Err(format!("cell {i} has no numeric `{field}`"));
                }
            }
        }
        Ok(Reference {
            schema_version,
            scale,
            cells: cells.to_vec(),
        })
    }

    /// `(scenario, miner_mode, predictor)` of every recorded cell, in
    /// record order.
    pub fn keys(&self) -> impl Iterator<Item = (&str, &str, &str)> {
        self.cells.iter().filter_map(key)
    }
}

/// What [`check`] found.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Failures: a metric outside its band, a measured cell the record
    /// lacks, a recorded cell the run did not produce.
    pub violations: Vec<String>,
    /// Cells whose deterministic fields differ from the record as
    /// printed: the record is stale and should be regenerated. Reported,
    /// not failed — the bands decide pass/fail.
    pub stale: Vec<String>,
}

/// Check every measured cell against the record, in both directions (so
/// the record cannot silently rot as the matrix evolves).
pub fn check(cells: &[Cell], reference: &Reference) -> CheckReport {
    let mut report = CheckReport::default();
    let measured_key = |c: &Cell| Some((c.scenario, c.mode, c.predictor));
    for c in cells {
        let name = format!("{}/{}/{}", c.scenario, c.mode, c.predictor);
        let Some(r) = reference.cells.iter().find(|r| key(r) == measured_key(c)) else {
            report.violations.push(format!(
                "{name}: no reference cell in BENCH_eval.json (regenerate it: eval_matrix > BENCH_eval.json)"
            ));
            continue;
        };
        // `Reference::parse` guarantees the fields; NaN (in no band) is
        // the fallback that keeps this total.
        let recorded = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let failure = c.scenario == "failure";
        if failure && c.recoveries as f64 != recorded("recoveries") {
            report.violations.push(format!(
                "{name}: recoveries = {} but the kill plan expects exactly {}",
                c.recoveries,
                recorded("recoveries")
            ));
        }
        let mut banded = |metric: &str, v: f64, around: fn(f64) -> Band| {
            let band = around(recorded(metric));
            if !band.contains(v) {
                report.violations.push(format!(
                    "{name}: {metric} = {v:.4} outside [{:.4}, {:.4}]",
                    band.lo, band.hi
                ));
            }
        };
        banded("hit_ratio", c.hit_ratio, Band::around_ratio);
        banded("prefetch_accuracy", c.prefetch_accuracy, Band::around_ratio);
        banded("avg_response_ms", c.avg_response_ms, Band::around_response);
        banded("memory_bytes", c.memory_bytes as f64, Band::memory_ceiling);
        if failure {
            let events = c.recovery_events as f64;
            banded("recovery_events", events, Band::around_recovery_events);
            banded("replay_fraction", c.replay_fraction, Band::around_fraction);
            banded("hit_ratio_dip", c.hit_ratio_dip, Band::around_dip);
        }
        if let Json::Obj(fields) = c.to_json() {
            for (field, measured) in &fields {
                if !WALL_CLOCK_FIELDS.contains(&field.as_str()) && r.get(field) != Some(measured) {
                    report.stale.push(format!(
                        "{name}: {field} = {} but the record has {}",
                        one_line(measured),
                        r.get(field).map_or("no such field".into(), one_line)
                    ));
                }
            }
        }
    }
    for (scenario, mode, predictor) in reference.keys() {
        if !cells
            .iter()
            .any(|c| measured_key(c) == Some((scenario, mode, predictor)))
        {
            report.violations.push(format!(
                "{scenario}/{mode}/{predictor}: reference cell no run produced (stale record, or the matrix lost a cell)"
            ));
        }
    }
    report
}

/// `value` rendered without the emitter's line breaks.
fn one_line(value: &Json) -> String {
    value.render().split_whitespace().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell() -> Cell {
        Cell {
            scenario: "base",
            mode: "batch",
            predictor: "FARMER",
            hit_ratio: 0.6,
            prefetch_accuracy: 0.5,
            avg_response_ms: 1.2,
            events_per_sec: 1e6,
            memory_bytes: 1024,
            ..Cell::default()
        }
    }

    fn failure_cell() -> Cell {
        let mut c = sample_cell();
        c.scenario = "failure";
        c.mode = "kill50";
        c.recoveries = 1;
        c.recovery_events = 1000;
        c.recovered_events = 1000;
        c.replay_fraction = 1.0;
        c.hit_ratio_dip = 0.2;
        c
    }

    /// A record holding exactly `cells`.
    fn reference_of(cells: &[Cell]) -> Reference {
        let record = Json::obj()
            .field("schema_version", Json::UInt(u64::from(SCHEMA_VERSION)))
            .field("scale", Json::F64(1.0))
            .field(
                "cells",
                Json::Arr(cells.iter().map(Cell::to_json).collect()),
            );
        Reference::parse(&record.render()).expect("synthetic record parses")
    }

    /// `band` is `[lo, hi]` up to the outward millesimal rounding.
    fn near(band: Band, lo: f64, hi: f64) -> bool {
        (band.lo - lo).abs() < 1.5e-3 && (band.hi - hi).abs() < 1.5e-3
    }

    #[test]
    fn band_containment_is_inclusive() {
        let b = Band { lo: 0.5, hi: 0.7 };
        assert!(b.contains(0.5) && b.contains(0.7) && b.contains(0.6));
        assert!(!b.contains(0.49) && !b.contains(0.71) && !b.contains(f64::NAN));
    }

    #[test]
    fn cell_bands_apply_the_standard_margins() {
        // Ratios: ±25 %, floor ±0.05, inside [0, 1]; response −40 %/+60 %;
        // memory 2×.
        assert!(near(Band::around_ratio(0.6), 0.45, 0.75));
        assert!(near(Band::around_ratio(0.02), 0.0, 0.07));
        assert!(near(Band::around_ratio(0.9), 0.675, 1.0));
        assert!(near(Band::around_response(1.2), 0.72, 1.92));
        assert_eq!(Band::memory_ceiling(1024.0).hi, 2048.0);
        // Outward: the band never shrinks below the exact margin.
        let hit = Band::around_ratio(0.7935);
        assert!(
            hit.lo <= 0.7935 * 0.75 && hit.hi >= 0.7935 * 1.25,
            "{hit:?}"
        );
    }

    #[test]
    fn failure_bands_apply_the_durability_margins() {
        // Events ±25 % in whole events; fraction ±max(10 %, 0.02) inside
        // [0, 1]; dip ±max(25 %, 0.05) inside [−1, 1].
        let events = Band::around_recovery_events(1000.0);
        assert_eq!((events.lo, events.hi), (750.0, 1250.0));
        assert!(near(Band::around_fraction(1.0), 0.9, 1.0));
        assert!(near(Band::around_dip(0.2), 0.15, 0.25));
        // A checkpoint-anchored cell keeps the fraction band well away
        // from 1.0.
        let events = Band::around_recovery_events(250.0);
        assert_eq!((events.lo, events.hi), (187.0, 313.0));
        assert!(near(Band::around_fraction(0.25), 0.225, 0.275));
        // A dip may be negative; its margin follows its size.
        assert!(near(Band::around_dip(-0.4), -0.5, -0.3));
        assert!(near(Band::around_dip(0.0), -0.05, 0.05));
    }

    #[test]
    fn check_enforces_durability_bands_on_failure_cells() {
        let reference = reference_of(&[failure_cell()]);
        assert!(check(&[failure_cell()], &reference).violations.is_empty());
        let mut c = failure_cell();
        c.recoveries = 2; // the record says 1
        c.recovery_events = 0;
        c.replay_fraction = 0.5;
        let found = check(&[c], &reference).violations;
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(
            found[0].contains("kill50/FARMER: recoveries = 2 but the kill plan expects exactly 1")
        );
        assert!(found[1].contains("recovery_events = 0.0000 outside [750.0000, 1250.0000]"));
        assert!(found[2].contains("replay_fraction = 0.5000 outside [0.9"));
        // The durability rules are the failure family's alone.
        let mut plain = sample_cell();
        plain.recoveries = 7;
        let found = check(&[plain], &reference_of(&[sample_cell()]));
        assert!(found.violations.is_empty(), "{found:?}");
    }

    #[test]
    fn check_flags_missing_band_and_out_of_band() {
        let recorded = [sample_cell(), failure_cell()];
        let reference = reference_of(&recorded);
        let clean = check(&recorded, &reference);
        assert!(
            clean.violations.is_empty() && clean.stale.is_empty(),
            "{clean:?}"
        );

        // In band but no longer the recorded value: stale, not failed.
        // Wall-clock fields are never compared.
        let mut drifted = sample_cell();
        drifted.hit_ratio = 0.61;
        drifted.memory_bytes = 1040;
        drifted.events_per_sec = 5.0;
        drifted.hit_ratio_dip = 0.000_04; // prints as the record's 0.0000
        let found = check(&[drifted, failure_cell()], &reference);
        assert!(found.violations.is_empty(), "{found:?}");
        assert_eq!(
            found.stale,
            [
                "base/batch/FARMER: hit_ratio = 0.6100 but the record has 0.6000",
                "base/batch/FARMER: memory_bytes = 1040 but the record has 1024",
            ]
        );

        // +40 % on the hit ratio leaves the band; so do a slow response
        // and a doubled footprint.
        let mut bad = sample_cell();
        bad.hit_ratio = 0.84;
        bad.avg_response_ms = 2.0;
        bad.memory_bytes = 2049;
        let found = check(&[bad, failure_cell()], &reference).violations;
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(found[0].starts_with("base/batch/FARMER: hit_ratio = 0.8400 outside [0.4"));
        assert!(found[1].contains("avg_response_ms = 2.0000 outside [0.7200, 1.9200]"));
        assert!(found[2].contains("memory_bytes = 2049.0000 outside [0.0000, 2048.0000]"));

        // A measured cell the record lacks and a recorded cell the run
        // lacks are each named.
        let mut surplus = sample_cell();
        surplus.mode = "sharded9";
        let found = check(&[sample_cell(), surplus], &reference).violations;
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].starts_with("base/sharded9/FARMER: no reference cell"));
        assert!(found[1].starts_with("failure/kill50/FARMER: reference cell no run produced"));
    }

    #[test]
    fn malformed_records_are_errors() {
        let no_memory = format!(
            r#"{{"schema_version": 6, "scale": 1, "cells": [{}]}}"#,
            sample_cell()
                .to_json()
                .render()
                .replace("\"memory_bytes\": 1024,", "")
        );
        for (text, why) in [
            ("{", "invalid JSON"),
            (r#"{"scale": 1, "cells": []}"#, "no `schema_version`"),
            (
                r#"{"schema_version": 6, "scale": 1, "cells": [{}]}"#,
                "cell 0 lacks scenario",
            ),
            (&no_memory, "cell 0 has no numeric `memory_bytes`"),
        ] {
            let err = Reference::parse(text).expect_err(text);
            assert!(err.contains(why), "{text}: {err}");
        }
    }
}
