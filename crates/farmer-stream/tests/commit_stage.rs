//! The commit stage between the router and the shards, from the outside:
//! what pipelining the log's `fdatasync` must not change.
//!
//! Nothing here sleeps. Orderings are observed through the live registry
//! (`stream.events_mined`, `wal.durable_lsn`) and through the barriers the
//! durable tier itself offers.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use farmer_obs::Registry;
use farmer_store::wal::{record_kind, Wal};
use farmer_stream::durable::{decode_op, encode_op};
use farmer_stream::{
    recover, snapshots_bitwise_equal, DurableConfig, DurableMiner, ShardedMiner, StreamConfig,
    WalOp,
};
use farmer_trace::{Trace, WorkloadSpec};

/// A forget tombstone ahead of every `FORGET_EVERY`th event.
const FORGET_EVERY: usize = 97;

/// A scratch log path that removes the log and its sidecars when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("commit-stage");
        std::fs::create_dir_all(&dir).expect("create commit-stage tmp dir");
        Scratch(dir.join(format!("{tag}-{}.wal", std::process::id())))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        for seq in 0..16u64 {
            let _ = std::fs::remove_file(format!("{}.ckpt{seq}", self.0.display()));
        }
    }
}

fn config(shards: usize) -> DurableConfig {
    let mut stream = StreamConfig::default()
        .with_shards(shards)
        .with_node_cap(512);
    stream.route_batch = 32;
    DurableConfig::new(stream)
}

/// The op stream of these tests: event `i` of the trace's endless replay,
/// behind a forget of its file whenever `i` is a multiple of
/// `FORGET_EVERY`.
fn ops(trace: &Trace, n: usize) -> Vec<WalOp> {
    let mut out = Vec::with_capacity(n + n / FORGET_EVERY + 1);
    for (i, e) in trace.stream().take(n).enumerate() {
        if i % FORGET_EVERY == 0 {
            out.push(WalOp::Forget(e.file));
        }
        out.push(WalOp::Ingest {
            req: farmer_core::Request::from_event(&e),
            path: trace.path_of(e.file).cloned(),
        });
    }
    out
}

fn feed_durable(m: &mut DurableMiner, ops: &[WalOp]) {
    for op in ops {
        match op {
            WalOp::Ingest { req, path } => m.ingest(*req, path.as_ref()),
            WalOp::Forget(f) => m.forget(*f),
        }
    }
}

fn feed_plain(m: &mut ShardedMiner, ops: &[WalOp]) {
    for op in ops {
        match op {
            WalOp::Ingest { req, path } => m.route(*req, path.as_ref()),
            WalOp::Forget(f) => m.route_forget(*f),
        }
    }
}

/// The LSN of the `m`th event (1-based) of [`ops`]: itself plus the
/// forgets routed ahead of it. With `m` events mined anywhere in the
/// fleet, some shard has mined an operation at or past this LSN.
fn lsn_of_event(m: u64) -> u64 {
    match m {
        0 => 0,
        m => m + (m - 1) / FORGET_EVERY as u64 + 1,
    }
}

#[test]
fn log_before_mutate_holds_under_pipelining() {
    let trace = WorkloadSpec::ins().scaled(0.02).generate();
    let log = Scratch::new("log-before-mutate");
    let reg = Registry::enabled();
    let mut m = DurableMiner::create_instrumented(&log.0, config(4), &reg).expect("create");
    let mined = reg.scope("stream").counter("events_mined");
    let durable = reg.scope("wal").gauge("durable_lsn");

    const SAMPLES: u64 = 4000;
    let samples = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let worst = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            // Mined first, durable second: both only grow, so reading
            // them in this order can hide a violation that has since been
            // repaired but never invent one.
            let mut violation = None;
            let mut moved = 0u64;
            let mut last = 0;
            while !done.load(Ordering::Acquire) {
                let mined_now = mined.get();
                let durable_now = durable.get() as u64;
                if lsn_of_event(mined_now) > durable_now {
                    violation.get_or_insert((mined_now, durable_now));
                }
                moved += u64::from(mined_now != last);
                last = mined_now;
                samples.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
            }
            (violation, moved)
        });
        // Keep ingesting until the sampler has looked often enough, a
        // chunk at a time so barriers and plain routing both occur.
        let script = ops(&trace, 40_000);
        for (i, chunk) in script.chunks(1000).enumerate() {
            feed_durable(&mut m, chunk);
            if i % 4 == 3 {
                m.flush();
            }
            if i >= 16 && samples.load(Ordering::Relaxed) >= SAMPLES {
                break;
            }
        }
        m.flush();
        done.store(true, Ordering::Release);
        sampler.join().expect("sampler")
    });
    let (violation, moved) = worst;
    assert_eq!(
        violation, None,
        "(events mined, durable LSN): a shard mined past the durable prefix"
    );
    // Every flush blocks the feeder until the fleet has caught up, so
    // even on one busy core the sampler sees the counters move.
    assert!(
        moved > 3,
        "the sampler saw the miner move only {moved} times"
    );
}

#[test]
fn flush_makes_everything_durable() {
    let trace = WorkloadSpec::hp().scaled(0.01).generate();
    let log = Scratch::new("flush-durable");
    let reg = Registry::enabled();
    let mut m = DurableMiner::create_instrumented(&log.0, config(2), &reg).expect("create");
    let script = ops(&trace, 5000);
    // Cut the stream at places that are not batch boundaries.
    let mut fed = 0;
    for cut in [1usize, 33, 700, 701, 2999, script.len()] {
        feed_durable(&mut m, &script[fed..cut]);
        fed = cut;
        m.flush();
        // No checkpoints here, so LSNs count operations: the last one
        // routed is `next_lsn - 1`.
        assert_eq!(m.ops_logged(), fed as u64);
        assert_eq!(
            reg.snapshot().gauge("wal.durable_lsn"),
            Some(fed as i64),
            "after flush at op {fed}"
        );
        let (entries, tail) = Wal::scan(&log.0).expect("scan the live log");
        assert!(!tail.torn);
        assert_eq!(entries.len(), fed);
        for (e, op) in entries.iter().zip(&script) {
            assert_eq!(e.kind, record_kind::OP);
            assert_eq!(&decode_op(&e.payload).expect("decode"), op);
        }
    }
    assert_eq!(reg.snapshot().counter("stream.events_mined"), Some(5000));
}

#[test]
fn durable_snapshots_equal_plain_snapshots() {
    let trace = WorkloadSpec::hp().scaled(0.01).generate();
    let script = ops(&trace, 6000);
    // A dozen arbitrary stream positions, none a multiple of the batch.
    let cuts = [
        7usize, 45, 333, 1001, 1002, 1777, 2500, 3131, 4099, 4100, 5555, 6001,
    ];
    for shards in [1usize, 2, 4] {
        let log = Scratch::new(&format!("snap-parity-{shards}"));
        let cfg = config(shards);
        let mut durable = DurableMiner::create(&log.0, cfg.clone()).expect("create");
        let mut plain = ShardedMiner::spawn(cfg.stream.clone());
        let mut fed = 0;
        for cut in cuts {
            assert!(cut % cfg.stream.route_batch != 0);
            feed_durable(&mut durable, &script[fed..cut]);
            feed_plain(&mut plain, &script[fed..cut]);
            fed = cut;
            assert!(
                snapshots_bitwise_equal(&durable.snapshot(), &plain.snapshot()),
                "{shards} shard(s) diverged at op {cut}"
            );
        }
    }
}

#[test]
fn compaction_hands_the_committer_the_new_inode() {
    let trace = WorkloadSpec::hp().scaled(0.01).generate();
    let log = Scratch::new("compaction-inode");
    let cfg = config(2).with_compaction(true);
    let script = ops(&trace, 9000);
    let mut m = DurableMiner::create(&log.0, cfg.clone()).expect("create");
    const CUT: usize = 5000;
    feed_durable(&mut m, &script[..CUT]);
    let before = std::fs::metadata(&log.0).expect("log").len();
    // The checkpoint's compaction drops the pages before its own anchor
    // and renames a new file over the log.
    m.checkpoint().expect("checkpoint");
    assert!(
        std::fs::metadata(&log.0).expect("log").len() < before / 2,
        "the checkpoint compacted nothing"
    );
    // Everything routed from here on is synced by the committer alone; a
    // committer still holding the orphaned file would sync that instead —
    // which only a power cut could tell from the outside, so look at the
    // handles: once a barrier has passed the hand-over through the commit
    // stage, nothing in this process may still hold the replaced file.
    m.flush();
    #[cfg(target_os = "linux")]
    {
        let orphan = format!("{} (deleted)", log.0.display());
        let held = std::fs::read_dir("/proc/self/fd")
            .expect("list open files")
            .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
            .any(|target| target.to_string_lossy() == orphan);
        assert!(
            !held,
            "a handle on the compacted-away log file is still open"
        );
    }
    feed_durable(&mut m, &script[CUT..]);
    let routed = m.ops_logged();
    m.crash();

    let (mut back, report) = recover(&log.0, cfg.clone()).expect("recover");
    assert_eq!(report.checkpoint_verified, Some(true));
    // The checkpoint dispatched the batch it found part-filled, so
    // batches count from the cut; the crash loses the last, partial one.
    let cut = CUT as u64;
    let whole_batches = routed - (routed - cut) % cfg.stream.route_batch as u64;
    assert!(whole_batches > cut && whole_batches < routed);
    assert_eq!(report.ops_replayed, whole_batches - cut);
    assert_eq!(report.ops_recovered, whole_batches);
    let mut oracle = ShardedMiner::spawn(cfg.stream.clone());
    feed_plain(&mut oracle, &script[..whole_batches as usize]);
    assert!(snapshots_bitwise_equal(
        &back.snapshot(),
        &oracle.snapshot()
    ));
}

#[test]
fn routed_log_is_byte_identical_to_the_standalone_encoder() {
    let trace = WorkloadSpec::hp().scaled(0.01).generate();
    let script = ops(&trace, 4000);
    let routed = Scratch::new("encode-routed");
    let mut m = DurableMiner::create(&routed.0, config(1)).expect("create");
    feed_durable(&mut m, &script);
    m.flush();
    let by_hand = Scratch::new("encode-by-hand");
    let mut wal = Wal::create(&by_hand.0).expect("create");
    for op in &script {
        wal.append(record_kind::OP, &encode_op(op)).expect("append");
    }
    wal.sync().expect("sync");
    assert_eq!(
        std::fs::read(&routed.0).expect("routed log"),
        std::fs::read(&by_hand.0).expect("hand-written log")
    );
}
