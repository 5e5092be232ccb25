//! Append-only, page-structured write-ahead log for the durable mining
//! tier.
//!
//! A live `ShardedMiner` that dies loses everything since its last
//! snapshot export; the WAL closes that gap. The mining tier logs its
//! logical operation stream (ingests and forgets) here *before* the
//! events mutate the correlation graph, so a crashed miner replays the
//! log and lands on its exact pre-crash state (the graph is a
//! deterministic function of the operation sequence).
//!
//! ## On-disk format
//!
//! The file is a sequence of fixed-size pages (default 4 KiB). Page 0 is
//! the header page: the 8-byte magic `FWAL0001`, the page size as a
//! little-endian `u32`, zero padding to the page boundary. Every later
//! page holds whole records — records never span pages. A record is
//!
//! ```text
//! [crc: u32][len: u32][lsn: u64][kind: u8][payload: len bytes]
//! ```
//!
//! with `crc` a CRC-32 (IEEE) over everything after itself (`len`, `lsn`,
//! `kind`, payload). When the remainder of a page cannot fit the next
//! record it is zero-filled and the record starts on the next page; an
//! all-zero record header therefore unambiguously means "padding, skip to
//! the next page" (empty payloads are rejected at append time to keep
//! zero distinguishable from data). LSNs are assigned by the log,
//! starting at 1 and incrementing by exactly 1 per record; any gap found
//! while scanning marks the tail torn.
//!
//! ## Durability contract
//!
//! A record passes through three states. [`Wal::append`] /
//! [`Wal::append_with`] encode it into a user-space buffer;
//! [`Wal::write`] hands the buffer to the operating system (`write_all`,
//! no flush — the bytes are in the file but a power cut can still lose
//! them); a **sync that started after the write** makes them durable.
//! [`Wal::sync`] does both halves on the caller's thread. The halves are
//! separable so that the flush can be *pipelined*: [`Wal::syncer`] is a
//! second handle on the same file whose only operation is the
//! `fdatasync`, for a committer thread to call while the appender keeps
//! encoding and writing the next records (group commit: one sync covers
//! everything written before it began — the mining tier's commit stage,
//! `farmer-stream::shard`). What a crash loses is therefore exactly what
//! no completed sync had covered; the highest LSN one did cover is the
//! `wal.durable_lsn` gauge. [`Wal::abandon`] simulates a crash at a write
//! boundary for tests and fault injection: it drops the appended-but-
//! unwritten buffer on the floor and leaves the file as the last
//! [`Wal::write`] made it (torn writes are the fault harness's job, it
//! injects them directly).
//!
//! ## Tail scan
//!
//! [`Wal::open`] and [`Wal::scan`] walk the pages from the front,
//! verifying checksum and LSN continuity, and stop at the first record
//! that is truncated, corrupt, or out of sequence. Everything before the
//! stop point is returned; [`Wal::open`] additionally truncates the file
//! back to the last valid record so subsequent appends continue cleanly.
//! The scan never panics on arbitrary bytes past the header page and
//! never returns a record whose checksum does not match.
//!
//! Checkpoint records ([`record_kind::CHECKPOINT`]) carry a reference —
//! sequence number, operation counts, length and checksum — to a
//! snapshot persisted in a sidecar file next to the log (see
//! `farmer-stream::durable`); the snapshot gives a recovered miner its
//! serving state instantly while the log replay rebuilds mining state.

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use farmer_obs::{Counter, Gauge, Histogram, Registry, Span};

use crate::codec::Writer;

/// Magic bytes opening every WAL file (format version 1).
pub const WAL_MAGIC: [u8; 8] = *b"FWAL0001";

/// Default page size: 4 KiB, the common filesystem block size.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Bytes of record framing before the payload: crc(4) + len(4) + lsn(8)
/// + kind(1).
pub const RECORD_HEADER: usize = 17;

/// Log sequence number: 1-based, dense, assigned by the log.
pub type Lsn = u64;

/// Record kinds understood by the mining tier.
pub mod record_kind {
    /// One logical mining operation (ingest or forget).
    pub const OP: u8 = 1;
    /// A checkpoint: references a persisted snapshot sidecar.
    pub const CHECKPOINT: u8 = 2;
}

/// Errors from WAL append/open paths. Scan-side corruption is *not* an
/// error — it is reported as a [`TailReport`] because a torn tail is the
/// expected crash outcome, not an exceptional one.
#[derive(Debug)]
pub enum WalError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The header page is missing, short, or not a WAL we understand.
    BadHeader(&'static str),
    /// A record (header + payload) must fit inside one page.
    PayloadTooLarge {
        /// Payload length requested.
        len: usize,
        /// Largest payload a page can hold.
        max: usize,
    },
    /// Empty payloads are forbidden (they would be ambiguous with page
    /// padding).
    EmptyPayload,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o: {e}"),
            WalError::BadHeader(why) => write!(f, "wal header: {why}"),
            WalError::PayloadTooLarge { len, max } => {
                write!(f, "wal payload {len} bytes exceeds page capacity {max}")
            }
            WalError::EmptyPayload => write!(f, "wal payloads must be non-empty"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// One decoded, checksum-verified record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// Record kind (see [`record_kind`]).
    pub kind: u8,
    /// The payload bytes.
    pub payload: Vec<u8>,
    /// Byte offset of the record header within the log file. Compaction
    /// uses this to find the page boundary a retained record lives on.
    pub offset: u64,
}

/// What [`Wal::compact_before`] reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalCompaction {
    /// Whole pages dropped from the front of the log (excluding the
    /// header page, which always survives).
    pub pages_dropped: u64,
    /// Bytes those pages occupied.
    pub bytes_dropped: u64,
    /// The LSN the compaction was anchored at (the oldest record the
    /// caller still needs). Zero when the call was a no-op.
    pub anchor_lsn: Lsn,
}

/// What the tail scan found: how much of the log was intact and whether
/// (and how) it ended early.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailReport {
    /// Checksum-verified records recovered.
    pub records: u64,
    /// File offset one past the last valid record.
    pub valid_bytes: u64,
    /// Bytes past the last valid record that were discarded.
    pub dropped_bytes: u64,
    /// True when the discarded bytes were non-zero data (a torn or
    /// corrupt record) rather than clean page padding.
    pub torn: bool,
}

/// Live observability for the log, under the `wal.*` scope.
#[derive(Debug, Default, Clone)]
pub struct WalMetrics {
    /// Records appended (`wal.append_records`).
    pub append_records: Counter,
    /// Payload + framing bytes appended, including page padding
    /// (`wal.append_bytes`).
    pub append_bytes: Counter,
    /// Completed syncs, through the log or a [`WalSyncer`]
    /// (`wal.syncs`). Under a pipelined committer one sync covers however
    /// many writes preceded it, so the count depends on timing.
    pub syncs: Counter,
    /// Wall-clock nanoseconds per `fdatasync` (`wal.fsync_ns`).
    pub fsync_ns: Histogram,
    /// Highest LSN a completed sync covered (`wal.durable_lsn`): every
    /// record up to it survives a power cut.
    pub durable_lsn: Gauge,
    /// Checkpoint records appended (`wal.checkpoints`).
    pub checkpoints: Counter,
    /// Completed (non-no-op) compactions (`wal.compactions`).
    pub compactions: Counter,
    /// Whole pages reclaimed by compaction (`wal.pages_dropped`).
    pub pages_dropped: Counter,
    /// The LSN the most recent compaction was anchored at
    /// (`wal.anchor_lsn`).
    pub anchor_lsn: Gauge,
}

impl WalMetrics {
    /// Register the log's metrics under `reg` (use a `wal`-scoped
    /// registry; see the workspace naming scheme in `farmer-obs`).
    pub fn new(reg: &Registry) -> WalMetrics {
        WalMetrics {
            append_records: reg.counter("append_records"),
            append_bytes: reg.counter("append_bytes"),
            syncs: reg.counter("syncs"),
            fsync_ns: reg.histogram("fsync_ns"),
            durable_lsn: reg.gauge("durable_lsn"),
            checkpoints: reg.counter("checkpoints"),
            compactions: reg.counter("compactions"),
            pages_dropped: reg.counter("pages_dropped"),
            anchor_lsn: reg.gauge("anchor_lsn"),
        }
    }
}

/// The append-only log. See the module docs for format and contract.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    page_size: usize,
    next_lsn: Lsn,
    /// Logical end of the log: where the next record lands once the
    /// buffer is written (file bytes + buffered bytes).
    write_pos: u64,
    /// Appended but not yet written.
    buf: Vec<u8>,
    /// Records currently sitting in `buf` (so a crash can roll the LSN
    /// counter back).
    buf_records: u64,
    obs: WalMetrics,
}

impl Wal {
    /// Create a fresh log at `path` (truncating any existing file) and
    /// durably write the header page.
    pub fn create(path: &Path) -> Result<Wal, WalError> {
        Wal::create_with_page_size(path, DEFAULT_PAGE_SIZE)
    }

    /// [`Wal::create`] with an explicit page size (min 64 bytes, so the
    /// header and at least a small record fit a page).
    pub fn create_with_page_size(path: &Path, page_size: usize) -> Result<Wal, WalError> {
        assert!(page_size >= 64, "wal page size must be at least 64 bytes");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut header = vec![0u8; page_size];
        header[..8].copy_from_slice(&WAL_MAGIC);
        header[8..12].copy_from_slice(&(page_size as u32).to_le_bytes());
        file.write_all(&header)?;
        file.sync_data()?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            page_size,
            next_lsn: 1,
            write_pos: page_size as u64,
            buf: Vec::new(),
            buf_records: 0,
            obs: WalMetrics::default(),
        })
    }

    /// Open an existing log: verify the header, scan the tail, truncate
    /// past the last valid record, and position for append. Returns the
    /// recovered records alongside the positioned log.
    pub fn open(path: &Path) -> Result<(Wal, Vec<WalEntry>, TailReport), WalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let (page_size, entries, report) = scan_bytes(&data)?;
        // Drop the torn tail so appends continue from a clean boundary.
        if report.dropped_bytes > 0 {
            file.set_len(report.valid_bytes)?;
            file.sync_data()?;
        }
        let next_lsn = entries.last().map_or(1, |e| e.lsn + 1);
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                page_size,
                next_lsn,
                write_pos: report.valid_bytes,
                buf: Vec::new(),
                buf_records: 0,
                obs: WalMetrics::default(),
            },
            entries,
            report,
        ))
    }

    /// Read-only scan of a log file: all checksum-verified records plus
    /// the tail report. Never modifies the file, never panics on
    /// arbitrary post-header bytes.
    pub fn scan(path: &Path) -> Result<(Vec<WalEntry>, TailReport), WalError> {
        let mut file = File::open(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let (_, entries, report) = scan_bytes(&data)?;
        Ok((entries, report))
    }

    /// Attach live observability (a no-op set is installed by default).
    pub fn instrument(&mut self, obs: WalMetrics) {
        self.obs = obs;
    }

    /// The file path this log writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The page size the log was created with.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The LSN the next append will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// Logical size of the log in bytes (including buffered appends).
    pub fn len_bytes(&self) -> u64 {
        self.write_pos
    }

    /// Largest payload one page can hold.
    pub fn max_payload(&self) -> usize {
        self.page_size - RECORD_HEADER
    }

    /// The LSN of the last record handed to the operating system (0
    /// before the first): everything up to it is in the file, and durable
    /// once a sync that starts now returns.
    pub fn written_lsn(&self) -> Lsn {
        self.next_lsn - 1 - self.buf_records
    }

    /// Append one record to the user-space buffer and return its LSN.
    /// Not durable until a sync covers it (see the module docs).
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> Result<Lsn, WalError> {
        self.append_with(kind, |w| {
            w.raw(payload);
        })
    }

    /// [`Wal::append`] for a payload that does not exist as bytes yet:
    /// `encode` writes it straight into the log buffer, behind the space
    /// reserved for the record header, and the checksum is taken over
    /// the bytes where they lie — no per-record allocation, no copy.
    pub fn append_with(
        &mut self,
        kind: u8,
        encode: impl FnOnce(&mut Writer),
    ) -> Result<Lsn, WalError> {
        let start = self.buf.len();
        self.buf.resize(start + RECORD_HEADER, 0);
        let mut w = Writer::from(std::mem::take(&mut self.buf));
        encode(&mut w);
        self.buf = w.finish();
        let need = self.buf.len() - start;
        let len = need - RECORD_HEADER;
        if len == 0 || need > self.page_size {
            self.buf.truncate(start);
            return Err(match len {
                0 => WalError::EmptyPayload,
                len => WalError::PayloadTooLarge {
                    len,
                    max: self.max_payload(),
                },
            });
        }
        let room = self.page_size - (self.write_pos % self.page_size as u64) as usize;
        let mut at = start;
        if room < need {
            // The record does not fit the rest of this page: it moves to
            // the next one and leaves zero padding behind.
            self.buf.resize(start + room + need, 0);
            self.buf.copy_within(start..start + need, start + room);
            self.buf[start..start + room].fill(0);
            at += room;
        }
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let record = &mut self.buf[at..];
        record[4..8].copy_from_slice(&(len as u32).to_le_bytes());
        record[8..16].copy_from_slice(&lsn.to_le_bytes());
        record[16] = kind;
        let crc = crc32(&record[4..]);
        record[..4].copy_from_slice(&crc.to_le_bytes());
        let written = (self.buf.len() - start) as u64;
        self.write_pos += written;
        self.buf_records += 1;
        self.obs.append_records.inc();
        self.obs.append_bytes.add(written);
        if kind == record_kind::CHECKPOINT {
            self.obs.checkpoints.inc();
        }
        Ok(lsn)
    }

    /// The write half of a commit: hand the buffered records to the
    /// operating system. They are in the file afterwards, and durable
    /// once a sync that starts after this returns has completed.
    pub fn write(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        // The cursor may be stale (open() reads to EOF then truncates);
        // always write at the logical end of the written prefix.
        self.file
            .seek(SeekFrom::Start(self.write_pos - self.buf.len() as u64))?;
        self.file.write_all(&self.buf)?;
        self.buf.clear();
        self.buf_records = 0;
        Ok(())
    }

    /// Write the buffered records and `fdatasync`. After this returns,
    /// every prior append survives a crash.
    pub fn sync(&mut self) -> io::Result<()> {
        self.write()?;
        sync_file(&self.file, &self.obs, self.written_lsn())
    }

    /// The sync half of a commit as a handle of its own, for a committer
    /// thread to flush the log while this one keeps appending and
    /// writing. It follows the file, not the path: after a compaction
    /// ([`Wal::compact_before`] renames a new file over the log) take a
    /// fresh one.
    pub fn syncer(&self) -> io::Result<WalSyncer> {
        Ok(WalSyncer {
            file: self.file.try_clone()?,
            obs: self.obs.clone(),
        })
    }

    /// Simulate a crash: discard the appended-but-unwritten buffer. The
    /// file is left exactly as the last [`Wal::write`] (or
    /// [`Wal::sync`]) made it.
    pub fn abandon(&mut self) {
        self.write_pos -= self.buf.len() as u64;
        self.next_lsn -= self.buf_records;
        self.buf.clear();
        self.buf_records = 0;
    }

    /// Drop every page that lies wholly before the record carrying
    /// `keep_lsn`, keeping the header page and everything from the page
    /// that record starts on. After compaction the log scans cleanly
    /// (LSN continuity is only enforced *between* records, so a first
    /// record at `keep_lsn - k` is fine) and appends continue with the
    /// same LSN sequence.
    ///
    /// The rewrite is crash-safe: the compacted image is written to a
    /// temporary file, synced, and renamed over the log, so a kill at
    /// any point leaves either the old or the new log — never a hybrid.
    /// It holds one page of the log in memory however long the log is:
    /// the anchor is found by the tail scan's page walk, and the kept
    /// suffix is copied file to file.
    ///
    /// No-ops (returning zero pages dropped) when `keep_lsn` is 0, is
    /// not present in the log, or its record already sits on the first
    /// data page.
    pub fn compact_before(&mut self, keep_lsn: Lsn) -> Result<WalCompaction, WalError> {
        // Write buffered appends so the file image is the whole log (the
        // rewrite's own sync is what makes them durable).
        self.write()?;
        if keep_lsn == 0 {
            return Ok(WalCompaction::default());
        }
        let Some(anchor) = self.offset_of(keep_lsn)? else {
            return Ok(WalCompaction::default());
        };
        // Keep the whole page the anchor record starts on.
        let page = self.page_size as u64;
        let cut = anchor - anchor % page;
        if cut <= page {
            return Ok(WalCompaction::default());
        }
        let dropped = cut - page;

        let tmp = self.path.with_extension("wal.compact-tmp");
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            // Header page, then [cut..EOF) — a torn tail past the anchor
            // included, exactly as it lies in the file.
            self.file.seek(SeekFrom::Start(0))?;
            io::copy(&mut (&self.file).take(page), &mut f)?;
            self.file.seek(SeekFrom::Start(cut))?;
            io::copy(&mut &self.file, &mut f)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // The rename replaced the directory entry; the old handle still
        // points at the orphaned inode, so reopen.
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.write_pos -= dropped;

        let report = WalCompaction {
            pages_dropped: dropped / page,
            bytes_dropped: dropped,
            anchor_lsn: keep_lsn,
        };
        self.obs.compactions.inc();
        self.obs.pages_dropped.add(report.pages_dropped);
        self.obs.anchor_lsn.set(keep_lsn as i64);
        Ok(report)
    }

    /// File offset of the record carrying `lsn`, if the intact part of
    /// the log holds one: the tail scan's walk, one page at a time.
    fn offset_of(&mut self, lsn: Lsn) -> Result<Option<u64>, WalError> {
        let mut page = Vec::with_capacity(self.page_size);
        let mut walk = PageWalk::new(self.page_size);
        let mut found = None;
        let mut base = self.page_size as u64;
        self.file.seek(SeekFrom::Start(base))?;
        loop {
            page.clear();
            (&self.file)
                .take(self.page_size as u64)
                .read_to_end(&mut page)?;
            let intact = walk.page(base, &page, |r| {
                if r.lsn == lsn {
                    found = Some(r.offset);
                }
            });
            // A short page is the end of the file.
            if found.is_some() || !intact || page.len() < self.page_size {
                return Ok(found);
            }
            base += page.len() as u64;
        }
    }
}

/// The sync half of a [`Wal`] ([`Wal::syncer`]): a second handle on the
/// log's file that can only flush it.
#[derive(Debug)]
pub struct WalSyncer {
    file: File,
    obs: WalMetrics,
}

impl WalSyncer {
    /// `fdatasync` the log. Everything written before the call is
    /// durable when it returns; `upto` is the caller's word for how far
    /// that is ([`Wal::written_lsn`], read *before* the call), recorded
    /// as `wal.durable_lsn`.
    pub fn sync(&self, upto: Lsn) -> io::Result<()> {
        sync_file(&self.file, &self.obs, upto)
    }
}

fn sync_file(file: &File, obs: &WalMetrics, upto: Lsn) -> io::Result<()> {
    let span = Span::start(&obs.fsync_ns);
    file.sync_data()?;
    span.finish();
    obs.syncs.inc();
    obs.durable_lsn.record_max(upto as i64);
    Ok(())
}

/// The first `N` bytes of `b`, for the `from_le_bytes` family.
fn head<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut a = [0; N];
    a.copy_from_slice(&b[..N]);
    a
}

/// Verify the header page of a log image and return its page size.
fn parse_header(data: &[u8]) -> Result<usize, WalError> {
    if data.len() < 12 {
        return Err(WalError::BadHeader("file shorter than header"));
    }
    if data[..8] != WAL_MAGIC {
        return Err(WalError::BadHeader("bad magic"));
    }
    let page_size = u32::from_le_bytes(head(&data[8..])) as usize;
    if page_size < 64 {
        return Err(WalError::BadHeader("page size too small"));
    }
    if data.len() < page_size {
        return Err(WalError::BadHeader("truncated header page"));
    }
    Ok(page_size)
}

/// One checksum-verified record, borrowed from the page it lies in.
struct RecordRef<'a> {
    lsn: Lsn,
    kind: u8,
    payload: &'a [u8],
    /// Byte offset of the record header within the log file.
    offset: u64,
}

/// The tail scan, one page at a time: every check that decides where the
/// intact log ends — checksum, length, LSN continuity, padding all zero —
/// lives in [`PageWalk::page`], so scanning an image ([`Wal::scan`],
/// [`Wal::open`]) and walking the file ([`Wal::compact_before`]) cannot
/// disagree about it.
struct PageWalk {
    page_size: usize,
    expect_lsn: Option<Lsn>,
    records: u64,
    /// File offset one past the last valid record.
    valid_end: u64,
    torn: bool,
}

impl PageWalk {
    fn new(page_size: usize) -> PageWalk {
        PageWalk {
            page_size,
            expect_lsn: None,
            records: 0,
            valid_end: page_size as u64,
            torn: false,
        }
    }

    /// Walk the records of the data page at file offset `base`, handing
    /// each verified one to `visit`. `page` is what the file holds of
    /// that page: shorter than a page only at the end of the file.
    /// Returns `false` once the tail is torn — the scan is over.
    fn page(&mut self, base: u64, page: &[u8], mut visit: impl FnMut(RecordRef<'_>)) -> bool {
        let mut pos = 0;
        while pos < page.len() {
            let rest = &page[pos..];
            let room = self.page_size - pos;
            if room < RECORD_HEADER
                || rest.len() < RECORD_HEADER
                || rest[..RECORD_HEADER].iter().all(|&b| b == 0)
            {
                // No room for a header (or the file ends inside one), or
                // a padding header: what is left of the page must be zero.
                self.torn = rest.iter().any(|&b| b != 0);
                return !self.torn;
            }
            let crc = u32::from_le_bytes(head(rest));
            let end = RECORD_HEADER + u32::from_le_bytes(head(&rest[4..])) as usize;
            let lsn = u64::from_le_bytes(head(&rest[8..]));
            // `rest` never reaches past the page, so a record that fits it
            // fits the page.
            if end == RECORD_HEADER
                || end > rest.len()
                || crc32(&rest[4..end]) != crc
                || self.expect_lsn.is_some_and(|expect| lsn != expect)
                // LSNs count up from 1: no record can follow the last one.
                || lsn == Lsn::MAX
            {
                self.torn = true;
                return false;
            }
            visit(RecordRef {
                lsn,
                kind: rest[16],
                payload: &rest[RECORD_HEADER..end],
                offset: base + pos as u64,
            });
            self.expect_lsn = Some(lsn + 1);
            self.records += 1;
            pos += end;
            self.valid_end = base + pos as u64;
        }
        true
    }

    /// The report for a file of `file_len` bytes walked this far.
    fn report(&self, file_len: u64) -> TailReport {
        TailReport {
            records: self.records,
            valid_bytes: self.valid_end,
            dropped_bytes: file_len - self.valid_end,
            torn: self.torn,
        }
    }
}

/// Parse header + records out of a full file image. Returns the page
/// size, the verified records, and the tail report.
#[allow(clippy::type_complexity, reason = "one private caller destructures it")]
fn scan_bytes(data: &[u8]) -> Result<(usize, Vec<WalEntry>, TailReport), WalError> {
    let page_size = parse_header(data)?;
    let mut walk = PageWalk::new(page_size);
    let mut entries = Vec::new();
    let mut base = page_size;
    for page in data[page_size..].chunks(page_size) {
        let intact = walk.page(base as u64, page, |r| {
            entries.push(WalEntry {
                lsn: r.lsn,
                kind: r.kind,
                payload: r.payload.to_vec(),
                offset: r.offset,
            });
        });
        if !intact {
            break;
        }
        base += page_size;
    }
    Ok((page_size, entries, walk.report(data.len() as u64)))
}

/// Slice-by-8 tables: `t[0]` is the classic byte table, `t[k][b]` the
/// CRC of byte `b` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE 802.3 polynomial, the zlib/`crc32fast` flavor), rolled
/// by hand because the workspace takes no external dependencies: eight
/// bytes per step (slice-by-8), the tail a byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = u32::from_le_bytes(head(w)) ^ c;
        let hi = u32::from_le_bytes(head(&w[4..]));
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = (c >> 8) ^ t[0][((c ^ b as u32) & 0xFF) as usize];
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Per-test scratch files live under the workspace `target/` dir so
    /// tests never write outside the repository.
    fn tmp_wal(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        dir.pop();
        dir.pop();
        dir.push("target");
        dir.push("wal-tests");
        std::fs::create_dir_all(&dir).expect("create wal test dir");
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        dir.join(format!("{tag}-{}-{n}.wal", std::process::id()))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time table loop `crc32` used before slice-by-8,
    /// kept as the reference the fast one is compared against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = (c >> 8) ^ CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize];
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_equals_the_bytewise_loop_at_every_length_and_alignment() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        // A fixed xorshift stream, so the buffers are arbitrary but the
        // test is not.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let buf: Vec<u8> = (0..64 + 8).map(|_| next() as u8).collect();
        for align in 0..8 {
            for len in 0..=64 {
                let s = &buf[align..align + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} at +{align}");
            }
        }
        for _ in 0..200 {
            let len = (next() % 5000) as usize;
            let s: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&s), crc32_bytewise(&s), "random buffer of {len}");
        }
    }

    /// The file the pre-`append_with` log wrote for `records`: a body
    /// assembled in a buffer of its own and checksummed there, zero
    /// padding wherever the next record does not fit its page.
    fn reference_image(page_size: usize, records: &[(u8, Vec<u8>)]) -> Vec<u8> {
        let mut image = vec![0u8; page_size];
        image[..8].copy_from_slice(&WAL_MAGIC);
        image[8..12].copy_from_slice(&(page_size as u32).to_le_bytes());
        for (i, (kind, payload)) in records.iter().enumerate() {
            let room = page_size - image.len() % page_size;
            if room < RECORD_HEADER + payload.len() {
                image.resize(image.len() + room, 0);
            }
            let mut body = Vec::new();
            body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            body.extend_from_slice(&(i as u64 + 1).to_le_bytes());
            body.push(*kind);
            body.extend_from_slice(payload);
            image.extend_from_slice(&crc32_bytewise(&body).to_le_bytes());
            image.extend_from_slice(&body);
        }
        image
    }

    #[test]
    fn in_place_append_writes_the_reference_layout() {
        let path = tmp_wal("layout");
        let _c = Cleanup(path.clone());
        // Sizes that fill pages exactly, overflow them by one byte and
        // leave less than a header of room.
        let records: Vec<(u8, Vec<u8>)> = [1usize, 30, 47, 111, 1, 46, 94, 17, 3, 111, 64, 2]
            .iter()
            .cycle()
            .take(120)
            .enumerate()
            .map(|(i, &len)| (1 + (i % 2) as u8, vec![i as u8 + 1; len]))
            .collect();
        let mut wal = Wal::create_with_page_size(&path, 128).unwrap();
        for (i, (kind, payload)) in records.iter().enumerate() {
            // Alternate the two entry points, and sync at odd places so
            // padding is decided across write boundaries too.
            let lsn = if i % 2 == 0 {
                wal.append(*kind, payload)
            } else {
                wal.append_with(*kind, |w| {
                    let (a, b) = payload.split_at(payload.len() / 2);
                    w.raw(a).raw(b);
                })
            };
            assert_eq!(lsn.unwrap(), i as u64 + 1);
            if i % 7 == 0 {
                wal.sync().unwrap();
            }
        }
        wal.sync().unwrap();
        let image = reference_image(128, &records);
        assert_eq!(wal.len_bytes(), image.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), image);
        let (entries, tail) = Wal::scan(&path).unwrap();
        assert!(!tail.torn);
        assert_eq!(entries.len(), records.len());
        for (e, (kind, payload)) in entries.iter().zip(&records) {
            assert_eq!((e.kind, &e.payload), (*kind, payload));
        }
    }

    #[test]
    fn refused_appends_leave_the_buffer_as_it_was() {
        let path = tmp_wal("refused");
        let _c = Cleanup(path.clone());
        let mut wal = Wal::create_with_page_size(&path, 128).unwrap();
        wal.append(record_kind::OP, &[7; 20]).unwrap();
        assert!(matches!(
            wal.append_with(record_kind::OP, |_| {}),
            Err(WalError::EmptyPayload)
        ));
        assert!(matches!(
            wal.append_with(record_kind::OP, |w| {
                w.raw(&[1; 112]);
            }),
            Err(WalError::PayloadTooLarge { len: 112, max: 111 })
        ));
        wal.append(record_kind::OP, &[8; 20]).unwrap();
        wal.sync().unwrap();
        let records = vec![
            (record_kind::OP, vec![7; 20]),
            (record_kind::OP, vec![8; 20]),
        ];
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reference_image(128, &records)
        );
    }

    #[test]
    fn write_and_sync_are_separate_halves() {
        let path = tmp_wal("halves");
        let _c = Cleanup(path.clone());
        let reg = Registry::enabled();
        let mut wal = Wal::create(&path).unwrap();
        wal.instrument(WalMetrics::new(&reg.scope("wal")));
        let syncer = wal.syncer().unwrap();
        for i in 0..5u8 {
            wal.append(record_kind::OP, &[i + 1]).unwrap();
        }
        assert_eq!(wal.written_lsn(), 0);
        wal.write().unwrap();
        assert_eq!(wal.written_lsn(), 5);
        // Written is in the file (a scan sees it) but nothing has been
        // flushed yet.
        assert_eq!(Wal::scan(&path).unwrap().0.len(), 5);
        let obs = reg.snapshot();
        assert_eq!(obs.counter("wal.syncs"), Some(0));
        assert_eq!(obs.gauge("wal.durable_lsn"), Some(0));
        // The second handle flushes what the first one wrote.
        wal.append(record_kind::OP, &[6]).unwrap();
        syncer.sync(wal.written_lsn()).unwrap();
        let obs = reg.snapshot();
        assert_eq!(obs.counter("wal.syncs"), Some(1));
        assert_eq!(obs.gauge("wal.durable_lsn"), Some(5));
        // A crash keeps what was written and loses what was only appended.
        wal.abandon();
        assert_eq!(wal.next_lsn(), 6);
        assert_eq!(Wal::scan(&path).unwrap().0.len(), 5);
        // sync() is both halves, and the gauge never runs backwards.
        wal.append(record_kind::OP, &[7]).unwrap();
        wal.sync().unwrap();
        syncer.sync(3).unwrap();
        assert_eq!(reg.snapshot().gauge("wal.durable_lsn"), Some(6));
    }

    #[test]
    fn append_sync_scan_roundtrip() {
        let path = tmp_wal("roundtrip");
        let _c = Cleanup(path.clone());
        let mut wal = Wal::create(&path).unwrap();
        let payloads: Vec<Vec<u8>> = (0..20u8)
            .map(|i| vec![i + 1; (i as usize % 7) + 1])
            .collect();
        for p in &payloads {
            wal.append(record_kind::OP, p).unwrap();
        }
        wal.sync().unwrap();
        let (entries, report) = Wal::scan(&path).unwrap();
        assert_eq!(entries.len(), payloads.len());
        assert!(!report.torn);
        assert_eq!(report.dropped_bytes, 0);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.lsn, i as u64 + 1);
            assert_eq!(e.kind, record_kind::OP);
            assert_eq!(e.payload, payloads[i]);
        }
    }

    #[test]
    fn records_never_span_pages() {
        let path = tmp_wal("pages");
        let _c = Cleanup(path.clone());
        let mut wal = Wal::create_with_page_size(&path, 128).unwrap();
        // Payloads sized so several must be pushed to a fresh page.
        for i in 0..40u8 {
            wal.append(record_kind::OP, &[i + 1; 50]).unwrap();
        }
        wal.sync().unwrap();
        let (entries, report) = Wal::scan(&path).unwrap();
        assert_eq!(entries.len(), 40);
        assert!(!report.torn);
        // Every record is intact despite page padding in between.
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.payload, vec![i as u8 + 1; 50]);
        }
    }

    #[test]
    fn oversized_and_empty_payloads_rejected() {
        let path = tmp_wal("limits");
        let _c = Cleanup(path.clone());
        let mut wal = Wal::create_with_page_size(&path, 128).unwrap();
        assert!(matches!(
            wal.append(record_kind::OP, &[0u8; 128]),
            Err(WalError::PayloadTooLarge { .. })
        ));
        assert!(matches!(
            wal.append(record_kind::OP, &[]),
            Err(WalError::EmptyPayload)
        ));
        // Limits don't burn LSNs.
        assert_eq!(wal.next_lsn(), 1);
    }

    #[test]
    fn reopen_continues_lsn_sequence() {
        let path = tmp_wal("reopen");
        let _c = Cleanup(path.clone());
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..5u8 {
            wal.append(record_kind::OP, &[i + 1]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let (mut wal, entries, report) = Wal::open(&path).unwrap();
        assert_eq!(entries.len(), 5);
        assert!(!report.torn);
        assert_eq!(wal.next_lsn(), 6);
        wal.append(record_kind::OP, &[99]).unwrap();
        wal.sync().unwrap();
        let (entries, report) = Wal::scan(&path).unwrap();
        assert_eq!(entries.len(), 6);
        assert_eq!(entries[5].lsn, 6);
        assert_eq!(entries[5].payload, vec![99]);
        assert!(!report.torn);
    }

    #[test]
    fn abandon_drops_unsynced_records() {
        let path = tmp_wal("abandon");
        let _c = Cleanup(path.clone());
        let mut wal = Wal::create(&path).unwrap();
        wal.append(record_kind::OP, &[1]).unwrap();
        wal.sync().unwrap();
        wal.append(record_kind::OP, &[2]).unwrap();
        wal.append(record_kind::OP, &[3]).unwrap();
        wal.abandon();
        // The crash lost the buffered records; the LSN counter rolled back.
        assert_eq!(wal.next_lsn(), 2);
        let (entries, report) = Wal::scan(&path).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(!report.torn);
        // And the survivor can keep appending with a dense sequence.
        wal.append(record_kind::OP, &[4]).unwrap();
        wal.sync().unwrap();
        let (entries, _) = Wal::scan(&path).unwrap();
        assert_eq!(entries.iter().map(|e| e.lsn).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn torn_tail_truncated_on_open() {
        let path = tmp_wal("torn");
        let _c = Cleanup(path.clone());
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..8u8 {
            wal.append(record_kind::OP, &[i + 1; 10]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        // Tear the last record: chop 5 bytes off the file.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 5]).unwrap();
        let (mut wal, entries, report) = Wal::open(&path).unwrap();
        assert_eq!(entries.len(), 7);
        assert!(report.torn);
        assert!(report.dropped_bytes > 0);
        // Open truncated the tail; a new append lands cleanly at LSN 8.
        wal.append(record_kind::OP, &[0xAA; 10]).unwrap();
        wal.sync().unwrap();
        let (entries, report) = Wal::scan(&path).unwrap();
        assert_eq!(entries.len(), 8);
        assert_eq!(entries[7].lsn, 8);
        assert!(!report.torn);
    }

    #[test]
    fn bit_flip_detected_and_tail_dropped() {
        let path = tmp_wal("flip");
        let _c = Cleanup(path.clone());
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..6u8 {
            wal.append(record_kind::OP, &[i + 1; 20]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        // Flip one bit inside the 4th record's payload.
        let mut data = std::fs::read(&path).unwrap();
        let target = DEFAULT_PAGE_SIZE + 3 * (RECORD_HEADER + 20) + RECORD_HEADER + 5;
        data[target] ^= 0x40;
        std::fs::write(&path, &data).unwrap();
        let (entries, report) = Wal::scan(&path).unwrap();
        // Records before the flip survive; the flipped one and everything
        // after are dropped.
        assert_eq!(entries.len(), 3);
        assert!(report.torn);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.payload, vec![i as u8 + 1; 20]);
        }
    }

    #[test]
    fn checkpoint_records_counted() {
        let path = tmp_wal("ckpt");
        let _c = Cleanup(path.clone());
        let reg = Registry::enabled();
        let mut wal = Wal::create(&path).unwrap();
        wal.instrument(WalMetrics::new(&reg.scope("wal")));
        wal.append(record_kind::OP, &[1]).unwrap();
        wal.append(record_kind::CHECKPOINT, &[2, 2]).unwrap();
        wal.append(record_kind::OP, &[3]).unwrap();
        wal.sync().unwrap();
        let report = reg.snapshot();
        assert_eq!(report.counter("wal.append_records"), Some(3));
        assert_eq!(report.counter("wal.checkpoints"), Some(1));
        assert_eq!(report.counter("wal.syncs"), Some(1));
        let (entries, _) = Wal::scan(&path).unwrap();
        assert_eq!(entries[1].kind, record_kind::CHECKPOINT);
    }

    #[test]
    fn compaction_drops_prefix_pages_and_scans_cleanly() {
        let path = tmp_wal("compact");
        let _c = Cleanup(path.clone());
        let reg = Registry::enabled();
        let mut wal = Wal::create_with_page_size(&path, 128).unwrap();
        wal.instrument(WalMetrics::new(&reg.scope("wal")));
        // 60-byte records: two per 128-byte page, 40 records = 20 pages.
        for i in 0..40u8 {
            wal.append(record_kind::OP, &[i + 1; 43]).unwrap();
        }
        wal.sync().unwrap();
        let before = std::fs::metadata(&path).unwrap().len();

        let report = wal.compact_before(21).unwrap();
        assert_eq!(report.anchor_lsn, 21);
        assert!(report.pages_dropped > 0);
        assert_eq!(report.bytes_dropped, report.pages_dropped * 128);
        let after = std::fs::metadata(&path).unwrap().len();
        assert_eq!(before - after, report.bytes_dropped);

        // The surviving suffix scans cleanly: it starts at or before the
        // anchor (whole pages are kept) and runs dense to the end.
        let (entries, tail) = Wal::scan(&path).unwrap();
        assert!(!tail.torn);
        assert!(entries[0].lsn <= 21);
        assert!(entries.iter().any(|e| e.lsn == 21));
        assert_eq!(entries.last().unwrap().lsn, 40);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.lsn, entries[0].lsn + i as u64);
            assert_eq!(e.payload, vec![e.lsn as u8; 43]);
        }

        // Appends continue with the same LSN sequence on the live handle
        // (which was reopened across the rename).
        wal.append(record_kind::OP, &[0xAB; 43]).unwrap();
        wal.sync().unwrap();
        let (entries, tail) = Wal::scan(&path).unwrap();
        assert!(!tail.torn);
        assert_eq!(entries.last().unwrap().lsn, 41);
        assert_eq!(entries.last().unwrap().payload, vec![0xAB; 43]);

        let obs = reg.snapshot();
        assert_eq!(obs.counter("wal.compactions"), Some(1));
        assert_eq!(obs.counter("wal.pages_dropped"), Some(report.pages_dropped));
        assert_eq!(obs.gauge("wal.anchor_lsn"), Some(21));
    }

    #[test]
    fn compaction_noops_never_lose_data() {
        let path = tmp_wal("compact-noop");
        let _c = Cleanup(path.clone());
        let mut wal = Wal::create_with_page_size(&path, 128).unwrap();
        for i in 0..10u8 {
            wal.append(record_kind::OP, &[i + 1; 30]).unwrap();
        }
        wal.sync().unwrap();
        let before = std::fs::read(&path).unwrap();

        // LSN 0 (the "no anchor yet" sentinel), an absent LSN, and an
        // anchor already on the first data page must all be no-ops.
        assert_eq!(wal.compact_before(0).unwrap(), WalCompaction::default());
        assert_eq!(wal.compact_before(999).unwrap(), WalCompaction::default());
        assert_eq!(wal.compact_before(1).unwrap(), WalCompaction::default());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert_eq!(wal.next_lsn(), 11);
    }

    #[test]
    fn double_compaction_is_idempotent() {
        let path = tmp_wal("compact-twice");
        let _c = Cleanup(path.clone());
        let mut wal = Wal::create_with_page_size(&path, 128).unwrap();
        for i in 0..40u8 {
            wal.append(record_kind::OP, &[i + 1; 43]).unwrap();
        }
        wal.sync().unwrap();
        let first = wal.compact_before(30).unwrap();
        assert!(first.pages_dropped > 0);
        let image = std::fs::read(&path).unwrap();
        // The anchor now sits on the first data page: nothing to drop.
        let second = wal.compact_before(30).unwrap();
        assert_eq!(second, WalCompaction::default());
        assert_eq!(std::fs::read(&path).unwrap(), image);
    }

    #[test]
    fn reopen_after_compaction_continues_lsn_sequence() {
        let path = tmp_wal("compact-reopen");
        let _c = Cleanup(path.clone());
        let mut wal = Wal::create_with_page_size(&path, 128).unwrap();
        for i in 0..40u8 {
            wal.append(record_kind::OP, &[i + 1; 43]).unwrap();
        }
        wal.sync().unwrap();
        wal.compact_before(33).unwrap();
        drop(wal);
        let (mut wal, entries, report) = Wal::open(&path).unwrap();
        assert!(!report.torn);
        assert!(entries[0].lsn <= 33);
        assert_eq!(wal.next_lsn(), 41);
        wal.append(record_kind::OP, &[7; 43]).unwrap();
        wal.sync().unwrap();
        let (entries, _) = Wal::scan(&path).unwrap();
        assert_eq!(entries.last().unwrap().lsn, 41);
    }

    #[test]
    fn compaction_flushes_buffered_appends_first() {
        let path = tmp_wal("compact-buffered");
        let _c = Cleanup(path.clone());
        let mut wal = Wal::create_with_page_size(&path, 128).unwrap();
        for i in 0..40u8 {
            wal.append(record_kind::OP, &[i + 1; 43]).unwrap();
        }
        wal.sync().unwrap();
        // Buffered (unsynced) records must survive compaction: the
        // rewrite syncs them as part of reading the full image.
        wal.append(record_kind::OP, &[0xCD; 43]).unwrap();
        let report = wal.compact_before(35).unwrap();
        assert!(report.pages_dropped > 0);
        let (entries, tail) = Wal::scan(&path).unwrap();
        assert!(!tail.torn);
        assert_eq!(entries.last().unwrap().lsn, 41);
        assert_eq!(entries.last().unwrap().payload, vec![0xCD; 43]);
    }

    /// What `compact_before` produced while it still read the whole log
    /// into memory: header page + everything from the anchor's page on.
    fn reference_compaction(image: &[u8], keep_lsn: Lsn) -> Vec<u8> {
        let (page_size, entries, _) = scan_bytes(image).unwrap();
        let anchor = entries.iter().find(|e| e.lsn == keep_lsn).unwrap();
        let cut = (anchor.offset - anchor.offset % page_size as u64) as usize;
        [&image[..page_size], &image[cut..]].concat()
    }

    #[test]
    fn paged_compaction_writes_the_reference_file() {
        for torn in [false, true] {
            let path = tmp_wal("compact-ref");
            let _c = Cleanup(path.clone());
            let mut wal = Wal::create_with_page_size(&path, 128).unwrap();
            for i in 0..90u8 {
                wal.append(record_kind::OP, &vec![i + 1; 1 + (i as usize * 13) % 60])
                    .unwrap();
            }
            wal.sync().unwrap();
            if torn {
                // A torn tail past the anchor is copied as it lies: flip
                // a bit in the last record and hang garbage behind it.
                let mut image = std::fs::read(&path).unwrap();
                let last = image.len() - 1;
                image[last] ^= 0x01;
                image.extend_from_slice(&[0xEE; 77]);
                std::fs::write(&path, &image).unwrap();
            }
            let before = std::fs::read(&path).unwrap();
            let report = wal.compact_before(61).unwrap();
            assert!(report.pages_dropped > 0);
            let after = std::fs::read(&path).unwrap();
            assert_eq!(after, reference_compaction(&before, 61), "torn: {torn}");
            assert_eq!(
                report.bytes_dropped,
                (before.len() - after.len()) as u64,
                "torn: {torn}"
            );
            // An anchor in the torn part is "not present": a no-op.
            if torn {
                assert_eq!(wal.compact_before(90).unwrap(), WalCompaction::default());
                assert_eq!(std::fs::read(&path).unwrap(), after);
            }
        }
    }

    #[test]
    fn garbage_after_header_is_dropped_not_parsed() {
        let path = tmp_wal("garbage");
        let _c = Cleanup(path.clone());
        let wal = Wal::create(&path).unwrap();
        drop(wal);
        let mut data = std::fs::read(&path).unwrap();
        data.extend_from_slice(&[0xFFu8; 300]);
        std::fs::write(&path, &data).unwrap();
        let (entries, report) = Wal::scan(&path).unwrap();
        assert!(entries.is_empty());
        assert!(report.torn);
        assert_eq!(report.dropped_bytes, 300);
    }

    #[test]
    fn bad_headers_error_cleanly() {
        let path = tmp_wal("hdr");
        let _c = Cleanup(path.clone());
        std::fs::write(&path, b"NOTAWAL!").unwrap();
        assert!(matches!(Wal::scan(&path), Err(WalError::BadHeader(_))));
        std::fs::write(&path, b"shrt").unwrap();
        assert!(matches!(Wal::scan(&path), Err(WalError::BadHeader(_))));
    }

    proptest! {
        /// Satellite: encode/decode identity over arbitrary record
        /// sequences (mixed sizes and kinds).
        #[test]
        fn prop_roundtrip_identity(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..200),
                1..40,
            ),
            kinds in proptest::collection::vec(1u8..3, 40),
        ) {
            let path = tmp_wal("prop-rt");
            let _c = Cleanup(path.clone());
            let mut wal = Wal::create_with_page_size(&path, 256).unwrap();
            for (i, p) in payloads.iter().enumerate() {
                wal.append(kinds[i % kinds.len()], p).unwrap();
            }
            wal.sync().unwrap();
            let (entries, report) = Wal::scan(&path).unwrap();
            prop_assert!(!report.torn);
            prop_assert_eq!(entries.len(), payloads.len());
            for (i, e) in entries.iter().enumerate() {
                prop_assert_eq!(e.lsn, i as u64 + 1);
                prop_assert_eq!(&e.payload, &payloads[i]);
            }
        }

        /// Satellite: truncating the file at any point past the header
        /// recovers exactly the records wholly before the cut — never a
        /// panic, never a corrupt record.
        #[test]
        fn prop_truncation_tolerated(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..100),
                1..20,
            ),
            cut_frac in 0.0f64..1.0,
        ) {
            let path = tmp_wal("prop-cut");
            let _c = Cleanup(path.clone());
            let mut wal = Wal::create_with_page_size(&path, 256).unwrap();
            for p in &payloads {
                wal.append(record_kind::OP, p).unwrap();
            }
            wal.sync().unwrap();
            drop(wal);
            let data = std::fs::read(&path).unwrap();
            let cut = 256 + ((data.len() - 256) as f64 * cut_frac) as usize;
            std::fs::write(&path, &data[..cut]).unwrap();
            let (entries, _report) = Wal::scan(&path).unwrap();
            // Recovered records are a prefix of the originals, bit-exact.
            prop_assert!(entries.len() <= payloads.len());
            for (i, e) in entries.iter().enumerate() {
                prop_assert_eq!(&e.payload, &payloads[i]);
            }
        }

        /// Satellite: flipping any single bit past the header never
        /// yields a corrupt record — recovery is always a bit-exact
        /// prefix (the flip either lands past the tail we keep, or kills
        /// its record and everything after).
        #[test]
        fn prop_bit_flip_never_returns_corrupt_records(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..80),
                2..15,
            ),
            flip_frac in 0.0f64..1.0,
            bit in 0u8..8,
        ) {
            let path = tmp_wal("prop-flip");
            let _c = Cleanup(path.clone());
            let mut wal = Wal::create_with_page_size(&path, 256).unwrap();
            for p in &payloads {
                wal.append(record_kind::OP, p).unwrap();
            }
            wal.sync().unwrap();
            drop(wal);
            let mut data = std::fs::read(&path).unwrap();
            prop_assert!(data.len() > 256);
            let idx = 256 + ((data.len() - 1 - 256) as f64 * flip_frac) as usize;
            data[idx] ^= 1 << bit;
            std::fs::write(&path, &data).unwrap();
            let (entries, _report) = Wal::scan(&path).unwrap();
            prop_assert!(entries.len() <= payloads.len());
            for (i, e) in entries.iter().enumerate() {
                prop_assert_eq!(e.lsn, i as u64 + 1);
                prop_assert_eq!(&e.payload, &payloads[i]);
            }
        }
    }

    /// A header page that parses (magic, page size, zero padding).
    fn header_page(page_size: usize) -> Vec<u8> {
        let mut data = WAL_MAGIC.to_vec();
        data.extend_from_slice(&(page_size as u32).to_le_bytes());
        data.resize(page_size, 0);
        data
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Byte soup past a valid header: the scan returns whatever
        /// prefix verifies, or a typed error, and never panics.
        #[test]
        fn scan_never_panics_on_soup_past_a_valid_header(
            page_size in 64usize..=128,
            soup in proptest::collection::vec(any::<u8>(), 0..=200),
        ) {
            let mut data = header_page(page_size);
            data.extend_from_slice(&soup);
            if let Ok((ps, entries, report)) = scan_bytes(&data) {
                prop_assert_eq!(ps, page_size);
                prop_assert_eq!(entries.len() as u64, report.records);
                prop_assert!(report.valid_bytes <= data.len() as u64);
            }
        }
    }

    /// Minimised from a scan that overflowed computing the successor of
    /// a checksummed record at LSN `u64::MAX`: that record is the torn
    /// tail, and `open` truncates it.
    #[test]
    fn a_record_at_the_last_lsn_is_a_torn_tail() {
        let mut data = header_page(64);
        let mut rec = 1u32.to_le_bytes().to_vec();
        rec.extend_from_slice(&Lsn::MAX.to_le_bytes());
        rec.extend_from_slice(&[record_kind::OP, 7]);
        data.extend_from_slice(&crc32(&rec).to_le_bytes());
        data.extend_from_slice(&rec);
        let (_, entries, report) = scan_bytes(&data).unwrap();
        assert!(entries.is_empty());
        assert!(report.torn);
        assert_eq!(report.valid_bytes, 64);

        let path = tmp_wal("last-lsn");
        let _c = Cleanup(path.clone());
        std::fs::write(&path, &data).unwrap();
        let (mut wal, entries, _) = Wal::open(&path).unwrap();
        assert!(entries.is_empty());
        assert_eq!(wal.append(record_kind::OP, &[1]).unwrap(), 1);
    }
}
