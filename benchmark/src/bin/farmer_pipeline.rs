//! `farmer_pipeline` — the repo's one benchmark.
//!
//! ```text
//! farmer_pipeline --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! farmer_pipeline all --seed <n> [--trace] [--smoke] [--out <file>]
//! farmer_pipeline compare <A.json> <B.json>
//! farmer_pipeline manifest
//! ```
//!
//! The first form is one run of one workload and is what `BENCHMARK.json`
//! names: its last stdout line is the result object. `all` re-executes
//! this binary once per (workload, rep) and reports medians; see
//! `benchmark/README.md`.

// The counting allocator is the only unsafe here; each operation carries
// its SAFETY: note and must mark its inner unsafe call explicitly.
#![deny(unsafe_op_in_unsafe_fn)]

#[path = "farmer_pipeline/e2e.rs"]
mod e2e;
#[path = "farmer_pipeline/json.rs"]
mod json;
#[path = "farmer_pipeline/layers.rs"]
mod layers;
#[path = "farmer_pipeline/report.rs"]
mod report;
#[path = "farmer_pipeline/spans.rs"]
mod spans;
#[path = "farmer_pipeline/spec.rs"]
mod spec;
#[path = "farmer_pipeline/util.rs"]
mod util;

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use json::Json;

/// Counts allocations while a traced probe has switched it on; otherwise a
/// pass-through whose only extra work is one load of a flag nobody writes.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note_alloc() {
    // ord: Relaxed — the flag and the counter are statistics; neither
    // publishes other data, and the probe reads the counter only after
    // joining or flushing the threads it counted.
    if COUNTING.load(Ordering::Relaxed) {
        // ord: Relaxed — a pure event count, see above.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: a pass-through to the System allocator plus a Relaxed counter
// bump; every GlobalAlloc obligation is met by System itself.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller upholds GlobalAlloc's contract; forwarded unchanged.
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the layout the caller vouched for.
        unsafe { System.alloc(l) }
    }
    // SAFETY: the caller upholds GlobalAlloc's contract; forwarded unchanged.
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: (p, l) came from this allocator, which is System.
        unsafe { System.dealloc(p, l) }
    }
    // SAFETY: the caller upholds GlobalAlloc's contract; forwarded unchanged.
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: (p, l) came from this allocator; the caller validated n.
        unsafe { System.realloc(p, l, n) }
    }
    // SAFETY: the caller upholds GlobalAlloc's contract; forwarded unchanged.
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the layout the caller vouched for.
        unsafe { System.alloc_zeroed(l) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations counted so far, by any thread.
pub fn allocs() -> u64 {
    // ord: Relaxed — a statistic read after the counted work has drained.
    ALLOCS.load(Ordering::Relaxed)
}

/// Switch allocation counting on or off.
pub fn count_allocs(on: bool) {
    // ord: Relaxed — only gates a statistic; a thread that sees the flip a
    // little late miscounts a handful of allocations out of millions.
    COUNTING.store(on, Ordering::Relaxed);
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: farmer_pipeline --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       farmer_pipeline all --seed <n> [--trace] [--smoke] [--out <file>]\n       farmer_pipeline compare <A.json> <B.json>\n       farmer_pipeline manifest",
        spec::WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

/// `--key value` pairs and bare flags after the optional subcommand.
struct Args {
    sub: Option<String>,
    rest: Vec<String>,
}

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        self.rest
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.rest.get(i + 1))
            .map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.rest.iter().any(|a| a == key)
    }
}

/// One run of one workload: the form the driver calls.
fn run_one(args: &Args) -> ExitCode {
    let Some(workload) = args.value("--workload").and_then(spec::workload) else {
        return usage();
    };
    let seed = args.value("--seed").and_then(|s| s.parse::<u64>().ok());
    let seconds = args.value("--seconds").and_then(|s| s.parse::<f64>().ok());
    let (Some(seed), Some(seconds)) = (seed, seconds) else {
        return usage();
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return usage();
    }
    let traced = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage(),
    };
    let run = e2e::RunArgs {
        workload,
        seed,
        seconds,
        smoke: args.flag("--smoke"),
        sabotage: args.flag("--sabotage"),
    };
    let outcome = if traced {
        layers::run(&run)
    } else {
        e2e::run(&run)
    };
    println!("detail {}", outcome.detail.compact());
    let metrics = outcome
        .metrics
        .iter()
        .fold(Json::obj(), |j, (name, value, unit)| {
            j.field(
                name,
                Json::obj().field("value", *value).field("unit", *unit),
            )
        });
    let correct = outcome.failed == 0;
    println!(
        "{}",
        Json::obj()
            .field("correct", correct)
            .field("attempted", outcome.attempted)
            .field("failed", outcome.failed)
            .field("metrics", metrics)
            .compact()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = match argv.first() {
        Some(a) if !a.starts_with('-') => Some(argv.remove(0)),
        _ => None,
    };
    let args = Args { sub, rest: argv };
    match args.sub.as_deref() {
        None => run_one(&args),
        Some("manifest") => {
            print!("{}", spec::manifest().pretty());
            ExitCode::SUCCESS
        }
        Some("all") => {
            let Some(seed) = args.value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
                return usage();
            };
            let seconds = match args.value("--seconds").map(str::parse::<f64>) {
                None => spec::RUN_SECONDS as f64,
                Some(Ok(s)) if s > 0.0 && s <= 600.0 => s,
                Some(_) => return usage(),
            };
            report::all(&report::AllArgs {
                seed,
                seconds,
                traced: args.flag("--trace"),
                smoke: args.flag("--smoke"),
                sabotage: args.flag("--sabotage"),
                out: args.value("--out").map(std::path::PathBuf::from),
            })
        }
        Some("compare") => match args.rest.as_slice() {
            [a, b] => report::compare(a, b),
            _ => usage(),
        },
        Some(_) => usage(),
    }
}
