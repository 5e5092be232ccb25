//! `Wal::compact_before` holds one page of the log, however long the
//! log is.
//!
//! A counting `#[global_allocator]` tracks the live heap bytes of every
//! thread in this binary and their high-water mark, so the binary holds
//! exactly one test: a second one running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use farmer_store::wal::{record_kind, Wal};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct PeakAlloc;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is byte counting.
unsafe impl GlobalAlloc for PeakAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded unchanged.
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        grew(l.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(l) }
    }
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded unchanged.
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.fetch_sub(l.size(), Ordering::Relaxed);
        // SAFETY: (p, l) came from this allocator, i.e. from System.
        unsafe { System.dealloc(p, l) }
    }
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded unchanged.
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        LIVE.fetch_sub(l.size(), Ordering::Relaxed);
        grew(n);
        // SAFETY: (p, l) came from this allocator; n validated by caller.
        unsafe { System.realloc(p, l, n) }
    }
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded unchanged.
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        grew(l.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(l) }
    }
}

#[global_allocator]
static COUNTER: PeakAlloc = PeakAlloc;

const PAGE: usize = 4096;

/// Heap bytes `compact_before` held at its peak, over what was live when
/// it was called, on a log of `pages` data pages anchored near its end.
fn compaction_peak(pages: usize) -> usize {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("compact-memory-{}-{pages}.wal", std::process::id()));
    let mut wal = Wal::create_with_page_size(&path, PAGE).expect("create the log");
    // 40-byte payloads, as an ingest with a short path: 71 records a page.
    let per_page = PAGE / (17 + 40);
    let mut last = 0;
    for i in 0..pages * per_page {
        last = wal
            .append(record_kind::OP, &[(i % 251) as u8 + 1; 40])
            .expect("append");
        if i % 4096 == 0 {
            wal.sync().expect("sync");
        }
    }
    wal.sync().expect("sync");
    assert_eq!(wal.len_bytes().div_ceil(PAGE as u64), pages as u64 + 1);

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let report = wal
        .compact_before(last - 3 * per_page as u64)
        .expect("compact");
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert!(report.pages_dropped as usize >= pages - 5, "{report:?}");
    drop(wal);
    let _ = std::fs::remove_file(&path);
    peak
}

#[test]
fn compact_memory_is_independent_of_log_length() {
    let short = compaction_peak(200);
    let long = compaction_peak(2000);
    assert!(
        long.abs_diff(short) < 2 * PAGE,
        "compaction held {short} B on a 200-page log and {long} B on a 2 000-page one"
    );
    // Not just equal but small: a page buffer, two paths, an open file.
    assert!(long < 4 * PAGE, "compaction held {long} B");
}
