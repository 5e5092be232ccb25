//! The reference model: the checked-in `BENCH_eval.json`, and the one rule
//! a run is checked against it by.
//!
//! Every cell of [`crate::evalmatrix`] is recorded in `BENCH_eval.json`
//! (full scale, compiled in here). The whole pipeline — synthetic
//! generators, miner, query layer, cache and MDS simulators — is
//! deterministic for a fixed scale, so [`check`] requires a fresh run to
//! land *on* the record: every field of [`Cell::to_json`] must equal its
//! recorded value at the printed precision. Each difference is a
//! violation that reads `<cell>: <field> was <recorded> → is <measured>`.
//! Wall-clock fields (`events_per_sec`, `recovery_ms`) time the host, not
//! the model, and are never compared.
//!
//! **Regenerating** (after an intentional change to generators, miner,
//! predictors or simulators): `eval_matrix > BENCH_eval.json`, review the
//! `git diff` of the record, commit. The `was → is` lines of the failing
//! check are that diff, field by field.
//!
//! The paper's cells ([`crate::evalmatrix::paper_cells`]: the comparison
//! grid, the parameter study's sweeps and the keyed entries of the rows
//! that are no served run) are recorded and pinned like every other cell;
//! an entry's record holds its key and only the fields it measures. The
//! pins catch regressions; the meaning is carried by the orderings the
//! paper states over those cells, and [`check`] fails on an inversion of
//! any of them ([`paper_shapes`]).

use crate::evalmatrix::{cluster_mode, paper_cell, Cell, CLUSTER_SERVERS, PAPER_PREDICTORS};
use crate::paper::FIG8_FAMILIES;
use farmer_mds::Partition;
use farmer_obs::Json;
use farmer_trace::TraceFamily;
use std::collections::HashSet;

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
/// `profile` are gone. v7: keyed entries — the paper rows that are no
/// served run (Fig. 1, Table 2, the §4.1 cluster, the §4.2 layout, the
/// p = 0 agreement, the §7 regression) carry their key and only the fields
/// they measure.
pub const SCHEMA_VERSION: u32 = 7;

/// The `Table 5:` rule's allowance: HP's full attribute combination may
/// trail `{Process}` alone by this much hit ratio ([`paper_shapes`]).
pub const TABLE5_ALLOWANCE: f64 = 0.01;

/// The `p = 0:` rule's bound: FARMER at p = 0 agrees with Nexus's top
/// successor on more than this share of sampled files ([`paper_shapes`]).
const P0_AGREEMENT_BOUND: f64 = 0.8;

/// The traces the `Fig. 1:` rule is stated on. On LLNL the per-process
/// substreams are less predictable than the raw stream (`pid` below `none`
/// at every scale measured), so the paper's "lowest in every trace" does
/// not hold there.
pub const FIG1_RULE_FAMILIES: [TraceFamily; 3] =
    [TraceFamily::Ins, TraceFamily::Res, TraceFamily::Hp];

/// Cell fields that time the host rather than the model: never compared
/// with the record.
const WALL_CLOCK_FIELDS: [&str; 2] = ["events_per_sec", "recovery_ms"];

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

    /// Read a record: malformed JSON, a record without its top-level
    /// fields, a cell without its key and two cells sharing a key are
    /// errors. A cell's other fields are [`check`]'s business: a missing
    /// one is a violation.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let root = Json::parse(text).map_err(|e| e.to_string())?;
        let top = |k: &str| root.get(k).ok_or(format!("record has no `{k}`"));
        let schema_version = top("schema_version")?
            .as_u64()
            .ok_or("`schema_version` is not an unsigned integer")?;
        let scale = top("scale")?.as_f64().ok_or("`scale` is not a number")?;
        let cells = top("cells")?.as_array().ok_or("`cells` is not an array")?;
        let mut seen = HashSet::new();
        for (i, cell) in cells.iter().enumerate() {
            let k = key(cell).ok_or(format!("cell {i} lacks scenario/miner_mode/predictor"))?;
            if !seen.insert(k) {
                return Err(format!("cell {i} repeats the key {}/{}/{}", k.0, k.1, k.2));
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

/// Check every measured cell against the record (`check_cell`), name
/// every key two measured cells share (each would be compared with the
/// one recorded cell) and every recorded cell the run did not produce (so
/// the record cannot silently rot as the matrix evolves), and add the
/// paper's shape inversions ([`paper_shapes`]). Empty means the run is
/// the record.
pub fn check(cells: &[Cell], reference: &Reference) -> Vec<String> {
    let mut violations: Vec<String> = cells
        .iter()
        .flat_map(|c| check_cell(c, reference))
        .collect();
    let mut measured = HashSet::new();
    for c in cells {
        if !measured.insert((c.scenario, c.mode.as_str(), c.predictor)) {
            let (s, m, p) = (c.scenario, &c.mode, c.predictor);
            violations.push(format!("{s}/{m}/{p}: two measured cells share this key"));
        }
    }
    for k @ (scenario, mode, predictor) in reference.keys() {
        if !measured.contains(&k) {
            violations.push(format!(
                "{scenario}/{mode}/{predictor}: reference cell no run produced (stale record, or the matrix lost a cell)"
            ));
        }
    }
    violations.extend(paper_shapes(cells));
    violations
}

/// One measured cell against its recorded counterpart: a violation if the
/// record lacks the cell, else one `<cell>: <field> was <recorded> → is
/// <measured>` per field of [`Cell::to_json`] whose printed value differs
/// from the record's (a field the record lacks was `missing`), and one per
/// recorded field the run no longer emits (it is `missing`). Wall-clock
/// fields are skipped.
pub(crate) fn check_cell(cell: &Cell, reference: &Reference) -> Vec<String> {
    let name = format!("{}/{}/{}", cell.scenario, cell.mode, cell.predictor);
    let measured_key = Some((cell.scenario, cell.mode.as_str(), cell.predictor));
    let Some(recorded) = reference.cells.iter().find(|r| key(r) == measured_key) else {
        return vec![format!(
            "{name}: no reference cell in BENCH_eval.json (regenerate it: eval_matrix > BENCH_eval.json)"
        )];
    };
    let (Json::Obj(measured), Json::Obj(recorded_fields)) = (cell.to_json(), recorded) else {
        unreachable!("a cell and a keyed record are objects")
    };
    let compared = |(field, _): &&(String, Json)| !WALL_CLOCK_FIELDS.contains(&field.as_str());
    let moved = (measured.iter().filter(compared))
        .filter(|(field, value)| recorded.get(field) != Some(value))
        .map(|(field, value)| {
            let was = recorded.get(field).map_or("missing".into(), one_line);
            format!("{name}: {field} was {was} → is {}", one_line(value))
        });
    let lost = (recorded_fields.iter().filter(compared))
        .filter(|(field, _)| measured.iter().all(|(f, _)| f != field))
        .map(|(field, value)| format!("{name}: {field} was {} → is missing", one_line(value)));
    moved.chain(lost).collect()
}

/// The filters of a Fig. 1 entry whose successor probability is not above
/// `none`'s, with `none`'s: the filters the paper says `none` is below.
pub fn fig1_not_above_none(entry: &Cell) -> (f64, Vec<(&'static str, f64)>) {
    let none = entry.value("none").unwrap_or(0.0);
    let rows = entry
        .entry
        .iter()
        .flatten()
        .filter(|(filter, _)| *filter != "none");
    let probabilities = rows.filter_map(|(filter, p)| Some((*filter, p.as_f64()?)));
    (none, probabilities.filter(|&(_, p)| p <= none).collect())
}

/// The orderings the paper states over its cells, one message per
/// inversion, each led by its rule:
///
/// * `Fig. 7:` FARMER's hit ratio beats Nexus's and LRU's on every trace;
/// * `Fig. 7 gap:` the FARMER−Nexus hit-ratio gap on HP exceeds INS's and
///   RES's (§5.3 compares HP with those two; LLNL also carries paths);
/// * `Table 3:` on HP, FARMER's prefetch accuracy exceeds 1.2 × Nexus's;
/// * `Fig. 8:` FARMER's mean response is the lowest on LLNL, RES and HP;
/// * `Table 4:` LLNL's, HP's and RES's FARMER models each outgrow INS's;
/// * `Nexus vs LRU:` Nexus's hit ratio is no lower than LRU's on every
///   trace, and its Figure 8 response no higher;
///
/// and over HP's sweep cells, against the default: `Fig. 3:` p = 0.7
/// beats p = 0 and p = 1 on hit ratio at `max_strength` 0.4; `Fig. 6:` the
/// response at `max_strength` 1.0 exceeds 1.1 × the default's; `Table 5:`
/// the full combination's hit ratio is ≥ `{Process}`'s − 0.01; `IPA vs
/// DPA:` IPA's hit ratio is ≥ DPA's;
///
/// and over the entries: `Fig. 1:` on each of [`FIG1_RULE_FAMILIES`],
/// `none` has a lower successor probability than every attribute filter;
/// `§4.1:` LRU's response falls at each doubling of HP's servers under
/// both partitions, and under Dev FARMER's is below LRU's at every server
/// count; `§4.2:` HP's grouped layout makes fewer seeks than the scattered
/// one; `p = 0:` FARMER at p = 0 agrees with Nexus's top successor on more
/// than `P0_AGREEMENT_BOUND` (0.8) of sampled files. A comparison is judged
/// only when its cells are there: a missing cell is already a [`check`]
/// violation.
pub fn paper_shapes(cells: &[Cell]) -> Vec<String> {
    let mut found = Vec::new();
    let mut require = |holds: bool, inversion: String| {
        if !holds {
            found.push(inversion);
        }
    };
    for name in FIG1_RULE_FAMILIES.map(|f| f.name()) {
        let rows = paper_cell(cells, (name, "fig1", "trace"));
        let (none, not_above) = rows.map_or((0.0, vec![]), fig1_not_above_none);
        for (filter, p) in not_above {
            let below = format!("Fig. 1: {name}: none {none:.4} is not below {filter} {p:.4}");
            require(p > none, below);
        }
    }
    let response = |servers, partition, predictor| {
        let key = ("HP", &*cluster_mode(servers, partition), predictor);
        paper_cell(cells, key)?.value("avg_response_ms")
    };
    for (partition, of) in [(Partition::Hash, "hash"), (Partition::Dev, "dev")] {
        for pair in CLUSTER_SERVERS.windows(2) {
            let [before, after] = [0, 1].map(|i| response(pair[i], partition, "LRU"));
            if let (Some(b), Some(a), [fewer, more]) = (before, after, pair) {
                let falls = format!("§4.1: HP {of}: LRU response {a:.3} ms at {more} servers does not fall below {b:.3} ms at {fewer}");
                require(a < b, falls);
            }
        }
    }
    for servers in CLUSTER_SERVERS {
        let dev = |p| response(servers, Partition::Dev, p);
        if let (Some(f), Some(l)) = (dev("FARMER"), dev("LRU")) {
            let below = format!("§4.1: HP dev: FARMER response {f:.3} ms at {servers} servers is not below LRU's {l:.3}");
            require(f < l, below);
        }
    }
    let layout = paper_cell(cells, ("HP", "layout", "FARMER"));
    let seeks = |f| layout.and_then(|c| c.value(f));
    if let (Some(s), Some(g)) = (seeks("scattered_seeks"), seeks("grouped_seeks")) {
        let fewer = format!(
            "§4.2: HP grouped layout makes {g} seeks, not fewer than the scattered layout's {s}"
        );
        require(g < s, fewer);
    }
    let p0 = paper_cell(cells, ("HP", "p=0 vs Nexus", "FARMER"));
    if let Some(a) = p0.and_then(|c| c.value("agreement")) {
        let agrees = format!("p = 0: HP FARMER at p = 0 agrees with Nexus's top successor on {a:.4} of sampled files, not more than {P0_AGREEMENT_BOUND}");
        require(a > P0_AGREEMENT_BOUND, agrees);
    }
    // HP's sweep cells, each against the default configuration.
    let of_hp = |mode| paper_cell(cells, ("HP", mode, "FARMER"));
    let with_default = |mode| of_hp("self").zip(of_hp(mode));
    if let (Some((d, p0)), Some((_, p1))) = (with_default("p=0"), with_default("p=1")) {
        let [d, h0, h1] = [d, p0, p1].map(|c| c.hit_ratio);
        let fig3 =
            format!("Fig. 3: HP: p=0.7 hit ratio {d:.4} does not beat p=0 {h0:.4} and p=1 {h1:.4}");
        require(d > h0 && d > h1, fig3);
    }
    if let Some((d, at_one)) = with_default("ms=1") {
        let (r, d) = (at_one.avg_response_ms, d.avg_response_ms);
        let fig6 = format!("Fig. 6: HP response {r:.3} ms at max_strength 1.0 is not above 1.1 x the default's {d:.3}");
        require(r > 1.1 * d, fig6);
    }
    if let Some((d, process)) = with_default("combo={Process}") {
        let (full, p) = (d.hit_ratio, process.hit_ratio);
        let table5 = format!(
            "Table 5: HP full combination hit ratio {full:.4} is below {{Process}}'s {p:.4} - {TABLE5_ALLOWANCE}"
        );
        require(full >= p - TABLE5_ALLOWANCE, table5);
    }
    if let Some((ipa, dpa)) = with_default("path=DPA") {
        let (ipa, dpa) = (ipa.hit_ratio, dpa.hit_ratio);
        let paths = format!("IPA vs DPA: HP IPA hit ratio {ipa:.4} is below DPA's {dpa:.4}");
        require(ipa >= dpa, paths);
    }
    let row = |family: TraceFamily| {
        let key = |p| (family.name(), "self", p);
        let [lru, nexus, farmer] = PAPER_PREDICTORS.map(|p| paper_cell(cells, key(p)));
        Some((family, [lru?, nexus?, farmer?]))
    };
    let [Some(llnl), Some(ins), Some(res), Some(hp)] = TraceFamily::ALL.map(row) else {
        return found;
    };
    for (family, row) in [llnl, ins, res, hp] {
        let name = family.name();
        let [l, n, f] = row.map(|c| c.hit_ratio);
        let fig7 = format!(
            "Fig. 7: {name}: FARMER hit ratio {f:.4} does not beat Nexus {n:.4} and LRU {l:.4}"
        );
        require(f > n && f > l, fig7);
        require(
            n >= l,
            format!("Nexus vs LRU: {name}: Nexus hit ratio {n:.4} is below LRU's {l:.4}"),
        );
        if FIG8_FAMILIES.contains(&family) {
            let [l, n, f] = row.map(|c| c.avg_response_ms);
            let fig8 = format!("Fig. 8: {name}: FARMER response {f:.3} ms is not below Nexus {n:.3} and LRU {l:.3}");
            require(f < n && f < l, fig8);
            require(
                n <= l,
                format!("Nexus vs LRU: {name}: Nexus response {n:.3} ms is above LRU's {l:.3}"),
            );
        }
    }
    // Figure 7's gap: FARMER's hit-ratio lead over Nexus.
    let [of_hp, of_ins, of_res] = [hp, ins, res].map(|(_, [_, n, f])| f.hit_ratio - n.hit_ratio);
    for (name, g) in [("INS", of_ins), ("RES", of_res)] {
        require(
            of_hp > g,
            format!("Fig. 7 gap: {name}'s FARMER-Nexus gap {g:.4} is not below HP's {of_hp:.4}"),
        );
    }
    let [_, n, f] = hp.1.map(|c| c.prefetch_accuracy);
    require(
        f > 1.2 * n,
        format!("Table 3: HP FARMER accuracy {f:.4} is not above 1.2 x Nexus's {n:.4}"),
    );
    let of_ins = ins.1[2].memory_bytes;
    for (family, [_, _, farmer]) in [llnl, hp, res] {
        let (bytes, name) = (farmer.memory_bytes, family.name());
        require(
            bytes > of_ins,
            format!("Table 4: {name}'s FARMER model {bytes} B is not above INS's {of_ins} B"),
        );
    }
    found
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
            mode: "batch".into(),
            predictor: "FARMER",
            hit_ratio: 0.6,
            prefetch_accuracy: 0.5,
            avg_response_ms: 1.2,
            events_per_sec: 1e6,
            memory_bytes: 1024,
            phase_hit_ratios: vec![0.6; 4],
            ..Cell::default()
        }
    }

    fn failure_cell() -> Cell {
        let mut c = sample_cell();
        c.scenario = "failure";
        c.mode = "kill50".into();
        c.recoveries = 1;
        c.recovery_events = 1000;
        c.recovered_events = 1000;
        c.replay_fraction = 1.0;
        c.hit_ratio_dip = 0.2;
        c
    }

    /// [`sample_cell`] with `edit` applied.
    fn edited(edit: fn(&mut Cell)) -> Cell {
        let mut c = sample_cell();
        edit(&mut c);
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

    #[test]
    fn check_pins_failure_cells_exactly() {
        let reference = reference_of(&[failure_cell()]);
        assert_eq!(check(&[failure_cell()], &reference), Vec::<String>::new());
        // The kill plan recovers once; a second recovery is a violation
        // of its own, and so is each other moved durability field.
        let mut c = failure_cell();
        c.recoveries = 2;
        assert_eq!(
            check(&[c], &reference),
            ["failure/kill50/FARMER: recoveries was 1 → is 2"]
        );
        let mut c = failure_cell();
        c.recovery_events = 999;
        c.replay_fraction = 0.5;
        assert_eq!(
            check(&[c], &reference),
            [
                "failure/kill50/FARMER: recovery_events was 1000 → is 999",
                "failure/kill50/FARMER: replay_fraction was 1.0000 → is 0.5000",
            ]
        );
        // Recovery wall-clock times the host: never compared.
        let mut c = failure_cell();
        c.recovery_ms = 1e4;
        assert_eq!(check(&[c], &reference), Vec::<String>::new());
    }

    #[test]
    fn check_flags_missing_cells_and_moved_fields() {
        let recorded = [sample_cell(), failure_cell()];
        let reference = reference_of(&recorded);
        assert_eq!(check(&recorded, &reference), Vec::<String>::new());

        // Any deterministic field that moves at its printed precision is
        // exactly one violation.
        for (cell, expected) in [
            (
                edited(|c| c.hit_ratio += 1e-4),
                "base/batch/FARMER: hit_ratio was 0.6000 → is 0.6001",
            ),
            (
                edited(|c| c.memory_bytes += 1),
                "base/batch/FARMER: memory_bytes was 1024 → is 1025",
            ),
            (
                edited(|c| c.phase_hit_ratios[2] = 0.7),
                "base/batch/FARMER: phase_hit_ratios was [0.6000,0.6000,0.6000,0.6000] \
                 → is [0.6000,0.6000,0.7000,0.6000]",
            ),
        ] {
            assert_eq!(check(&[cell, failure_cell()], &reference), [expected]);
        }
        // Below the printed precision nothing moved; wall-clock fields
        // are never compared.
        let same = edited(|c| {
            c.hit_ratio += 1e-6;
            c.events_per_sec = 5.0;
        });
        assert_eq!(
            check(&[same, failure_cell()], &reference),
            Vec::<String>::new()
        );

        // A measured cell the record lacks and a recorded cell the run
        // lacks are each named.
        let mut surplus = sample_cell();
        surplus.mode = "sharded9".into();
        let found = check(&[sample_cell(), surplus], &reference);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].starts_with("base/sharded9/FARMER: no reference cell"));
        assert!(found[1].starts_with("failure/kill50/FARMER: reference cell no run produced"));

        // A field the record lacks is a violation of its own, not a parse
        // error.
        let text = format!(
            r#"{{"schema_version": 6, "scale": 1, "cells": [{}]}}"#,
            sample_cell()
                .to_json()
                .render()
                .replace("\"memory_bytes\": 1024,", "")
        );
        let reference = Reference::parse(&text).expect("a cell's fields are check's business");
        assert_eq!(
            check(&[sample_cell()], &reference),
            ["base/batch/FARMER: memory_bytes was missing → is 1024"]
        );
    }

    /// The comparison goes both ways: a recorded field the run no longer
    /// emits is a violation, on a served cell and on an entry alike.
    #[test]
    fn check_flags_a_recorded_field_the_run_lacks() {
        let seeks = [("scattered_seeks", 10.0), ("grouped_seeks", 9.0)];
        let layout = entry_cell("HP", "layout", "FARMER", &seeks);
        for cell in [sample_cell(), layout] {
            let rendered = cell.to_json().render();
            let extra = rendered.replacen('{', "{\"extra\": 1,", 1);
            let text = format!(r#"{{"schema_version": 7, "scale": 1, "cells": [{extra}]}}"#);
            let reference = Reference::parse(&text).expect("a record with one extra field");
            let name = format!("{}/{}/{}", cell.scenario, cell.mode, cell.predictor);
            assert_eq!(
                check(&[cell], &reference),
                [format!("{name}: extra was 1 → is missing")]
            );
        }
    }

    /// An entry carrying `fields` (at four decimals).
    fn entry_cell(
        scenario: &'static str,
        mode: &str,
        predictor: &'static str,
        fields: &[(&'static str, f64)],
    ) -> Cell {
        let fields = fields.iter().map(|&(f, v)| (f, Json::Fixed(v, 4)));
        Cell {
            scenario,
            mode: mode.into(),
            predictor,
            entry: Some(fields.collect()),
            ..Cell::default()
        }
    }

    /// Set entry field `name` of `cell` to `v`.
    fn set(cell: &mut Cell, name: &str, v: f64) {
        let fields = cell.entry.as_mut().expect("an entry");
        let field = fields
            .iter_mut()
            .find(|(f, _)| *f == name)
            .expect("the field");
        field.1 = Json::Fixed(v, 4);
    }

    /// The paper's cells as every shape rule accepts them: per trace, hit
    /// ratio and mean response of (LRU, Nexus, FARMER), and FARMER's model
    /// bytes; then the HP sweep cells the sweep rules read; then the
    /// entries the entry rules read (LLNL's `pid` below `none`, and
    /// FARMER above LRU at 8 Hash servers, as measured: neither is judged).
    fn paper_grid() -> Vec<Cell> {
        use TraceFamily::*;
        let mut cells = Vec::new();
        for (family, hit, response, bytes) in [
            (Llnl, [0.44, 0.53, 0.69], [1.09, 0.90, 0.60], 17_000_000),
            (Ins, [0.76, 0.86, 0.90], [0.50, 0.45, 0.40], 1_000_000),
            (Res, [0.13, 0.25, 0.33], [1.60, 1.40, 1.20], 8_600_000),
            (Hp, [0.50, 0.58, 0.75], [1.20, 1.00, 0.60], 9_600_000),
        ] {
            for (i, predictor) in PAPER_PREDICTORS.into_iter().enumerate() {
                cells.push(Cell {
                    scenario: family.name(),
                    mode: "self".into(),
                    predictor,
                    hit_ratio: hit[i],
                    prefetch_accuracy: [0.0, 0.30, 0.45][i],
                    avg_response_ms: response[i],
                    memory_bytes: if predictor == "FARMER" { bytes } else { 4096 },
                    ..Cell::default()
                });
            }
        }
        for (mode, hit, response) in [
            ("p=0", 0.50, 1.00),
            ("p=1", 0.73, 0.65),
            ("ms=1", 0.50, 1.25),
            ("combo={Process}", 0.755, 0.60),
            ("path=DPA", 0.74, 0.62),
        ] {
            cells.push(Cell {
                scenario: "HP",
                mode: mode.into(),
                predictor: "FARMER",
                hit_ratio: hit,
                avg_response_ms: response,
                ..Cell::default()
            });
        }
        for (family, [none, uid, pid, host, fifth]) in [
            (Llnl, [0.0095, 0.05, 0.0048, 0.2, 0.5]),
            (Ins, [0.05, 0.5, 0.28, 0.45, 0.2]),
            (Res, [0.0089, 0.16, 0.0099, 0.087, 0.084]),
            (Hp, [0.022, 0.53, 0.25, 0.35, 0.58]),
        ] {
            let fifth_filter = if family.has_paths() { "path" } else { "dev" };
            let fields = [
                ("none", none),
                ("uid", uid),
                ("pid", pid),
                ("host", host),
                (fifth_filter, fifth),
            ];
            cells.push(entry_cell(family.name(), "fig1", "trace", &fields));
        }
        for (partition, lru, farmer) in [
            ("hash", [0.77, 0.50, 0.33], [0.56, 0.48, 0.336]),
            ("dev", [0.82, 0.53, 0.34], [0.39, 0.27, 0.19]),
        ] {
            for (i, servers) in [2, 4, 8].into_iter().enumerate() {
                let mode = format!("servers={servers} partition={partition}");
                for (predictor, response) in [("LRU", lru[i]), ("FARMER", farmer[i])] {
                    let fields = [("avg_response_ms", response)];
                    cells.push(entry_cell("HP", &mode, predictor, &fields));
                }
            }
        }
        for (predictor, response) in [("LRU", 1.86), ("FARMER", 1.27)] {
            let fields = [("avg_response_ms", response)];
            cells.push(entry_cell("HP", "servers=1", predictor, &fields));
        }
        let seeks = [("scattered_seeks", 100.0), ("grouped_seeks", 90.0)];
        cells.push(entry_cell("HP", "layout", "FARMER", &seeks));
        let agreement = [("agreement", 0.85)];
        cells.push(entry_cell("HP", "p=0 vs Nexus", "FARMER", &agreement));
        cells
    }

    /// [`paper_grid`] with the cell of `(family, mode, predictor)` edited.
    fn doctored(
        family: TraceFamily,
        mode: &str,
        predictor: &str,
        edit: fn(&mut Cell),
    ) -> Vec<Cell> {
        let mut cells = paper_grid();
        let c = cells
            .iter_mut()
            .find(|c| {
                (c.scenario, c.mode.as_str(), c.predictor) == (family.name(), mode, predictor)
            })
            .expect("grid cell");
        edit(c);
        cells
    }

    #[test]
    fn paper_shapes_accept_the_paper_grid() {
        use TraceFamily::*;
        assert_eq!(paper_shapes(&paper_grid()), Vec::<String>::new());
        // INS is not among Figure 8's traces: its response is not judged.
        let slow_ins = doctored(Ins, "self", "FARMER", |c| c.avg_response_ms = 5.0);
        assert_eq!(paper_shapes(&slow_ins), Vec::<String>::new());
        // An incomplete grid is not judged; `check` names the missing cell.
        let mut partial = doctored(Hp, "self", "Nexus", |c| c.hit_ratio = 0.99);
        partial.retain(|c| !(c.scenario == "LLNL" && c.predictor == "LRU"));
        assert_eq!(paper_shapes(&partial), Vec::<String>::new());
        // Nor is a sweep rule whose cell is missing.
        let mut partial = doctored(Hp, "p=0", "FARMER", |c| c.hit_ratio = 0.99);
        partial.retain(|c| c.mode != "p=1");
        assert_eq!(paper_shapes(&partial), Vec::<String>::new());
    }

    /// Negative controls: each rule, and only that rule, fires on a grid
    /// doctored to invert it.
    #[test]
    fn each_paper_shape_fails_on_its_inversion() {
        use TraceFamily::*;
        let cases: [(Vec<Cell>, &str); 16] = [
            (
                doctored(Llnl, "self", "FARMER", |c| c.hit_ratio = 0.50),
                "Fig. 7: LLNL: FARMER hit ratio 0.5000 does not beat Nexus 0.5300 and LRU 0.4400",
            ),
            (
                doctored(Res, "self", "FARMER", |c| c.hit_ratio = 0.45),
                "Fig. 7 gap: RES's FARMER-Nexus gap 0.2000 is not below HP's 0.1700",
            ),
            (
                doctored(Hp, "self", "FARMER", |c| c.prefetch_accuracy = 0.35),
                "Table 3: HP FARMER accuracy 0.3500 is not above 1.2 x Nexus's 0.3000",
            ),
            (
                doctored(Hp, "self", "FARMER", |c| c.avg_response_ms = 1.1),
                "Fig. 8: HP: FARMER response 1.100 ms is not below Nexus 1.000 and LRU 1.200",
            ),
            (
                doctored(Res, "self", "FARMER", |c| c.memory_bytes = 1_000_000),
                "Table 4: RES's FARMER model 1000000 B is not above INS's 1000000 B",
            ),
            (
                doctored(Llnl, "self", "Nexus", |c| c.hit_ratio = 0.40),
                "Nexus vs LRU: LLNL: Nexus hit ratio 0.4000 is below LRU's 0.4400",
            ),
            (
                doctored(Res, "self", "Nexus", |c| c.avg_response_ms = 1.7),
                "Nexus vs LRU: RES: Nexus response 1.700 ms is above LRU's 1.600",
            ),
            (
                doctored(Hp, "p=1", "FARMER", |c| c.hit_ratio = 0.76),
                "Fig. 3: HP: p=0.7 hit ratio 0.7500 does not beat p=0 0.5000 and p=1 0.7600",
            ),
            (
                doctored(Hp, "ms=1", "FARMER", |c| c.avg_response_ms = 0.65),
                "Fig. 6: HP response 0.650 ms at max_strength 1.0 is not above 1.1 x the default's 0.600",
            ),
            (
                doctored(Hp, "combo={Process}", "FARMER", |c| c.hit_ratio = 0.77),
                "Table 5: HP full combination hit ratio 0.7500 is below {Process}'s 0.7700 - 0.01",
            ),
            (
                doctored(Hp, "path=DPA", "FARMER", |c| c.hit_ratio = 0.76),
                "IPA vs DPA: HP IPA hit ratio 0.7500 is below DPA's 0.7600",
            ),
            (
                doctored(Ins, "fig1", "trace", |c| set(c, "pid", 0.01)),
                "Fig. 1: INS: none 0.0500 is not below pid 0.0100",
            ),
            (
                doctored(Hp, "servers=4 partition=hash", "LRU", |c| {
                    set(c, "avg_response_ms", 0.9)
                }),
                "§4.1: HP hash: LRU response 0.900 ms at 4 servers does not fall below 0.770 ms at 2",
            ),
            (
                doctored(Hp, "servers=2 partition=dev", "FARMER", |c| {
                    set(c, "avg_response_ms", 0.82)
                }),
                "§4.1: HP dev: FARMER response 0.820 ms at 2 servers is not below LRU's 0.820",
            ),
            (
                doctored(Hp, "layout", "FARMER", |c| set(c, "grouped_seeks", 100.0)),
                "§4.2: HP grouped layout makes 100 seeks, not fewer than the scattered layout's 100",
            ),
            (
                doctored(Hp, "p=0 vs Nexus", "FARMER", |c| set(c, "agreement", 0.8)),
                "p = 0: HP FARMER at p = 0 agrees with Nexus's top successor on 0.8000 of sampled files, not more than 0.8",
            ),
        ];
        for (cells, expected) in cases {
            assert_eq!(paper_shapes(&cells), [expected]);
            // `check` fails on it even against a record that holds the
            // inversion itself (every field equals the record).
            let found = check(&cells, &reference_of(&cells));
            assert_eq!(found, [expected]);
        }
    }

    /// Two measured cells with one key would both be compared with the
    /// one recorded cell: `check` names the key instead.
    #[test]
    fn check_names_a_key_two_measured_cells_share() {
        let reference = reference_of(&[sample_cell()]);
        assert_eq!(
            check(&[sample_cell(), sample_cell()], &reference),
            ["base/batch/FARMER: two measured cells share this key"]
        );
    }

    /// A record that holds a key twice cannot say which cell a run is
    /// compared with: it does not parse.
    #[test]
    fn a_record_holding_a_key_twice_is_refused() {
        let cell = sample_cell().to_json().render();
        let text = format!(r#"{{"schema_version": 6, "scale": 1, "cells": [{cell}, {cell}]}}"#);
        let err = Reference::parse(&text).expect_err("a repeated key");
        assert_eq!(err, "cell 1 repeats the key base/batch/FARMER");
    }

    /// Hostile record input: every 97th-byte prefix of the checked-in
    /// record, and seeded single-byte replacements in it, parse to `Ok` or
    /// `Err` — never a panic.
    #[test]
    fn broken_records_are_refused_without_panicking() {
        let parse = |bytes: &[u8]| Reference::parse(&String::from_utf8_lossy(bytes)).is_ok();
        // The checked-in record goes through the parser whole and cut at
        // 15 evenly spaced points.
        let full = include_bytes!("../../../BENCH_eval.json");
        assert!(parse(full), "the checked-in record parses");
        let cut = (1..16)
            .map(|k| k * full.len() / 16)
            .find(|&n| parse(&full[..n]));
        assert_eq!(cut, None, "a cut of the checked-in record parsed");
        // The byte-level probes run over a valid record of fixed size, its
        // header and first four cells, so their cost does not grow with
        // the record.
        let Ok(Json::Obj(fields)) = Json::parse(&String::from_utf8_lossy(full)) else {
            panic!("the checked-in record is an object")
        };
        let small = fields.into_iter().map(|(k, v)| match (k.as_str(), v) {
            ("cells", Json::Arr(cells)) => (k, Json::Arr(cells.into_iter().take(4).collect())),
            (_, v) => (k, v),
        });
        let record = Json::Obj(small.collect()).render();
        let record = record.as_bytes();
        assert!(parse(record), "the four-cell record parses");
        let prefixes = (0..record.len())
            .step_by(97)
            .filter(|&n| parse(&record[..n]));
        assert_eq!(prefixes.count(), 0, "a truncated record parsed");
        let mut parsed = 0;
        let mut state = 0x5eed_u64;
        for _ in 0..600 {
            // SplitMix64: one position and one replacement byte a draw.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut h = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            h ^= h >> 31;
            let mut bytes = record.to_vec();
            bytes[(h % record.len() as u64) as usize] = (h >> 56) as u8;
            parsed += usize::from(parse(&bytes));
        }
        // Most replacements land in a number or a string and still parse.
        assert!(parsed > 0, "no replacement parsed");
    }

    #[test]
    fn malformed_records_are_errors() {
        for (text, why) in [
            ("{", "invalid JSON"),
            (r#"{"scale": 1, "cells": []}"#, "no `schema_version`"),
            (
                r#"{"schema_version": 6, "scale": 1, "cells": [{}]}"#,
                "cell 0 lacks scenario",
            ),
            (
                r#"{"schema_version": 6, "scale": 1, "cells": {}}"#,
                "`cells` is not an array",
            ),
        ] {
            let err = Reference::parse(text).expect_err(text);
            assert!(err.contains(why), "{text}: {err}");
        }
    }
}
