//! Clock, order statistics and `/proc` readers shared by both runs.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process: one monotonic
/// origin, so span starts and ends from any thread share a time base.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The `q`-quantile (nearest rank) of `v`, which it reorders. `None` on
/// an empty sample.
pub fn quantile<T: Copy + PartialOrd>(v: &mut [T], q: f64) -> Option<T> {
    if v.is_empty() {
        return None;
    }
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1;
    let (_, x, _) = v.select_nth_unstable_by(rank, |a, b| {
        a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
    });
    Some(*x)
}

/// [`quantile`] of nanosecond (or count) samples as a float, NaN when empty.
pub fn quantile_f64(v: &mut [u64], q: f64) -> f64 {
    quantile(v, q).map_or(f64::NAN, |x| x as f64)
}

pub fn median_f64(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `(max − min) / median` of a sample: the rep-to-rep spread `all` prints.
pub fn rel_spread(v: &[f64]) -> f64 {
    let med = median_f64(v);
    let (lo, hi) = v.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |a, &x| {
        (a.0.min(x), a.1.max(x))
    });
    if v.is_empty() || med == 0.0 {
        0.0
    } else {
        (hi - lo) / med.abs()
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU nanoseconds (user + system) consumed so far by this process's
/// threads whose name starts with one of `prefixes`, from
/// `/proc/self/task/*/stat`. Clock ticks are 100 Hz on Linux.
pub fn thread_cpu_ns(prefixes: &[&str]) -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut ticks = 0u64;
    for t in tasks.flatten() {
        let Ok(stat) = std::fs::read_to_string(t.path().join("stat")) else {
            continue;
        };
        // `pid (comm) state …`: comm may hold spaces, so split at the
        // closing parenthesis; utime and stime are fields 14 and 15.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        let comm = &stat[open + 1..close];
        if !prefixes.iter().any(|p| comm.starts_with(p)) {
            continue;
        }
        let rest: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        let field = |i: usize| rest.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
        ticks += field(11) + field(12);
    }
    ticks * 10_000_000
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
