//! `all` — every workload, several reps each, one child process per
//! (workload, rep) — and `compare`, the before/after table built from two
//! of `all`'s records.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::layers::LAYER;
use crate::spec::{
    scoped_applies, Better, Metric, Workload, E2E, E2E_SCOPED, PUBLISH_EVERY, ROUNDS, RUN_SECONDS,
    WORKLOADS,
};
use crate::util::{cores, median_f64, rel_spread};

/// Reps per workload, in `WORKLOADS` order: more where a rep is cheap.
const REPS: [usize; 5] = [5, 5, 5, 3, 3];
/// Not gated, but printed beside the metrics they qualify.
const INFO: [&str; 8] = [
    "gen_late_p99_us",
    "gen_late_max_us",
    "gen_late_share",
    "op_p99_ns",
    "publish_lag_p95_ms",
    "evictions",
    "tracked_files",
    "check_s",
];

pub struct AllArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub sabotage: bool,
    pub out: Option<PathBuf>,
}

/// One child's parsed output.
struct Rep {
    ok: bool,
    metrics: Json,
    detail: Json,
}

fn run_child(w: &Workload, a: &AllArgs) -> Rep {
    let failed = |why: String| {
        eprintln!("{}: {why}", w.name);
        Rep {
            ok: false,
            metrics: Json::obj(),
            detail: Json::obj(),
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return failed(format!("cannot find this executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.traced { "1" } else { "0" }]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    if a.sabotage {
        cmd.arg("--sabotage");
    }
    // `output` waits for the child and collects its stdout; stderr (check
    // failures, panics) passes through to ours.
    let out = match cmd.stderr(std::process::Stdio::inherit()).output() {
        Ok(o) => o,
        Err(e) => return failed(format!("cannot start the child: {e}")),
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let result = text.lines().last().and_then(|l| Json::parse(l).ok());
    let detail = text
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .and_then(|l| Json::parse(l).ok())
        .unwrap_or(Json::obj());
    let Some(result) = result else {
        return failed(format!("no result line (exit {:?})", out.status.code()));
    };
    let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
    Rep {
        ok: out.status.success() && correct,
        metrics: result.get("metrics").cloned().unwrap_or(Json::obj()),
        detail,
    }
}

fn summarize(d: &Metric, values: &[f64]) -> Json {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |a, &x| {
            (a.0.min(x), a.1.max(x))
        });
    Json::obj()
        .field("name", d.name)
        .field("unit", d.unit)
        .field("better", d.better.word())
        .field("bound", d.bound)
        .field("median", median_f64(values))
        .field("min", lo)
        .field("max", hi)
        .field("spread", rel_spread(values))
        .field(
            "reps",
            values.iter().map(|&x| Json::from(x)).collect::<Vec<_>>(),
        )
}

fn fmt(x: f64) -> String {
    let a = x.abs();
    if !x.is_finite() {
        "-".to_string()
    } else if a >= 1e6 {
        format!("{:.3}M", x / 1e6)
    } else if a >= 100.0 || x.fract() == 0.0 {
        format!("{x:.0}")
    } else if a >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

pub fn all(a: &AllArgs) -> ExitCode {
    let max_reps = if a.traced || a.smoke {
        1
    } else {
        REPS.iter().copied().max().unwrap_or(1)
    };
    let reps_of = |i: usize| if a.traced || a.smoke { 1 } else { REPS[i] };
    // Round-robin: rep 1 of every workload, then rep 2 …, so host drift
    // lands on every workload alike.
    let mut reps: Vec<Vec<Rep>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for rep in 0..max_reps {
        for (i, w) in WORKLOADS.iter().enumerate() {
            if rep < reps_of(i) {
                eprintln!("[{}/{}] {}", rep + 1, reps_of(i), w.name);
                reps[i].push(run_child(w, a));
            }
        }
    }

    let defs: Vec<Metric> = if a.traced {
        LAYER.to_vec()
    } else {
        E2E.to_vec()
    };
    let mut ok = true;
    let mut rows: Vec<Json> = Vec::new();
    println!(
        "farmer_pipeline all  seed={} seconds={} cores={} {}{}",
        a.seed,
        a.seconds,
        cores(),
        if a.traced { "traced" } else { "untraced" },
        if a.smoke { " smoke" } else { "" }
    );
    for (w, runs) in WORKLOADS.iter().zip(&reps) {
        ok &= runs.iter().all(|r| r.ok);
        println!(
            "\n{} — {} rep(s){}",
            w.name,
            runs.len(),
            if runs.iter().all(|r| r.ok) {
                ""
            } else {
                "  ** FAILED **"
            }
        );
        println!(
            "  {:<34} {:>6} {:>7} {:>6}  {:>12} {:>12} {:>12} {:>8}  reps",
            "metric", "unit", "better", "bound", "median", "min", "max", "spread"
        );
        let mut metrics: Vec<Json> = Vec::new();
        let mut emit = |d: &Metric, values: Vec<f64>| {
            if values.len() != runs.len() || values.iter().any(|x| !x.is_finite()) {
                eprintln!("{}: metric {} is missing or not finite", w.name, d.name);
                ok = false;
            }
            let s = summarize(d, &values);
            let num = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "  {:<34} {:>6} {:>7} {:>6}  {:>12} {:>12} {:>12} {:>7.1}%  {}",
                d.name,
                d.unit,
                d.better.word(),
                if a.traced {
                    "-".to_string()
                } else {
                    format!("{}", d.bound)
                },
                fmt(num("median")),
                fmt(num("min")),
                fmt(num("max")),
                100.0 * num("spread"),
                values.iter().map(|&x| fmt(x)).collect::<Vec<_>>().join(" ")
            );
            metrics.push(s);
        };
        for d in &defs {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(d.name)?.get("value")?.as_f64())
                .collect();
            emit(d, values);
        }
        let mut info = Json::obj();
        if !a.traced {
            for (d, scope) in &E2E_SCOPED {
                if scoped_applies(scope, w.name) {
                    let values: Vec<f64> = runs
                        .iter()
                        .filter_map(|r| r.detail.get(d.name)?.as_f64())
                        .collect();
                    emit(d, values);
                }
            }
            for key in INFO {
                let values: Vec<Json> = runs
                    .iter()
                    .filter_map(|r| r.detail.get(key).cloned())
                    .collect();
                if !values.is_empty() {
                    info = info.field(key, values);
                }
            }
            // A stalled host is not a stalled tier: flag reps whose
            // generator itself ran behind its schedule.
            for (i, r) in runs.iter().enumerate() {
                if let Some(share) = r.detail.get("gen_late_share").and_then(Json::as_f64) {
                    let p99 = r.detail.get("gen_late_p99_us").and_then(Json::as_f64);
                    let max = r.detail.get("gen_late_max_us").and_then(Json::as_f64);
                    println!(
                        "  rep {}: generator late p99 {} us, max {} us, late starts {:.2}%{}",
                        i + 1,
                        fmt(p99.unwrap_or(f64::NAN)),
                        fmt(max.unwrap_or(f64::NAN)),
                        100.0 * share,
                        if share > 0.05 {
                            "  ** generator >5% late: host stall, not tier **"
                        } else {
                            ""
                        }
                    );
                }
            }
        }
        rows.push(
            Json::obj()
                .field("name", w.name)
                .field("why", w.why)
                .field("preset", w.preset.name())
                .field("loop", if w.pace.is_some() { "open" } else { "closed" })
                .field("rate", w.pace.unwrap_or(0))
                .field(
                    "feed_events_at_run_seconds",
                    ROUNDS * w.windows_per_round * w.window_pubs * PUBLISH_EVERY,
                )
                .field("read_queries_at_run_seconds", ROUNDS * w.queries_per_round)
                .field("reps", runs.len())
                .field("ok", runs.iter().all(|r| r.ok))
                .field("metrics", metrics)
                .field("info", info),
        );
    }

    let record = Json::obj()
        .field("bench", "farmer_pipeline")
        .field("seed", a.seed)
        .field("seconds", a.seconds)
        .field("run_seconds", RUN_SECONDS)
        .field("cores", cores())
        .field("traced", a.traced)
        .field("smoke", a.smoke)
        .field("ok", ok)
        .field("workloads", rows);
    let path = a.out.clone().unwrap_or_else(|| {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "all-seed{}{}{}.json",
                a.seed,
                if a.traced { "-trace" } else { "" },
                if a.smoke { "-smoke" } else { "" }
            ))
    });
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, record.pretty()) {
        Ok(()) => println!("\nrecord: {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        println!("all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("FAILED: a check failed or a metric is missing (see above)");
        ExitCode::FAILURE
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn numbers(j: Option<&Json>) -> Vec<f64> {
    j.map_or(Vec::new(), |a| {
        a.as_arr().iter().filter_map(Json::as_f64).collect()
    })
}

/// `ok`, `worse` or `unresolved` for one metric on one workload.
///
/// Worse: B's median is worse than A's by more than the bound. Where
/// either side's reps spread wider than the bound the medians cannot
/// carry that verdict, so the pair is unresolved — unless every rep of B
/// reads no worse than every rep of A.
fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> (&'static str, f64) {
    let (ma, mb) = (median_f64(a), median_f64(b));
    let delta = better.worsening(ma, mb);
    let b_never_worse = a
        .iter()
        .all(|&x| b.iter().all(|&y| better.worsening(x, y) <= 0.0));
    let noisy = rel_spread(a) > bound || rel_spread(b) > bound;
    let status = if b_never_worse {
        "ok"
    } else if noisy {
        "unresolved"
    } else if delta > bound {
        "worse"
    } else {
        "ok"
    };
    (status, delta)
}

pub fn compare(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("A = {path_a}\nB = {path_b}");
    // Per-layer metrics carry no bound: a traced record gets deltas only.
    let gated = a.get("traced").and_then(Json::as_bool) != Some(true);
    println!("delta = how much worse B's median is than A's, as a share of A's (negative: better)");
    let mut worse = 0usize;
    let mut unresolved = 0usize;
    let by_name = |j: &Json, name: &str| -> Option<Json> {
        j.as_arr()
            .iter()
            .find(|x| x.get("name").and_then(Json::as_str) == Some(name))
            .cloned()
    };
    for wa in a.get("workloads").map_or(&[][..], Json::as_arr) {
        let Some(name) = wa.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(wb) = b.get("workloads").and_then(|w| by_name(w, name)) else {
            println!("\n{name}: missing from B");
            unresolved += 1;
            continue;
        };
        println!("\n{name}");
        println!(
            "  {:<34} {:>6} {:>12} {:>12} {:>9} {:>6}  status",
            "metric", "unit", "A median", "B median", "delta", "bound"
        );
        for ma in wa.get("metrics").map_or(&[][..], Json::as_arr) {
            let Some(metric) = ma.get("name").and_then(Json::as_str) else {
                continue;
            };
            let unit = ma.get("unit").and_then(Json::as_str).unwrap_or("");
            let better = match ma.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let bound = ma.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let ra = numbers(ma.get("reps"));
            let rb = numbers(
                wb.get("metrics")
                    .and_then(|m| by_name(m, metric))
                    .as_ref()
                    .and_then(|m| m.get("reps")),
            );
            if ra.is_empty() || rb.is_empty() {
                println!("  {metric:<34} missing on one side: unresolved");
                unresolved += 1;
                continue;
            }
            let (status, delta) = verdict(better, bound, &ra, &rb);
            let status = if gated { status } else { "-" };
            worse += usize::from(status == "worse");
            unresolved += usize::from(status == "unresolved");
            println!(
                "  {:<34} {:>6} {:>12} {:>12} {:>+8.2}% {:>6}  {}",
                metric,
                unit,
                fmt(median_f64(&ra)),
                fmt(median_f64(&rb)),
                100.0 * delta,
                bound,
                status
            );
        }
    }
    println!("\n{worse} worse, {unresolved} unresolved");
    if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
