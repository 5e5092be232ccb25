//! The serving tier end to end: many writer threads feeding the ingest
//! ring, the always-running miner publishing epoch-swapped snapshots, and
//! reader threads serving top-k queries wait-free while ingestion runs.
//!
//! ```text
//! cargo run --release --example serving
//! ```
//!
//! Two writers split an HP-style trace through cloned lock-free
//! [`IngestHandle`](farmer::serve::IngestHandle)s while four readers hammer
//! `top_k_into` against whatever snapshot is currently published — no lock
//! anywhere on either hot path. Watch the epoch climb as the tier
//! publishes mid-stream, then the graceful shutdown: the ring drains, a
//! final snapshot is published, and the returned stats account for every
//! event exactly.

use std::sync::atomic::{AtomicBool, Ordering};

use farmer::prelude::*;

fn main() {
    let trace = WorkloadSpec::hp().scaled(0.1).generate();
    println!(
        "== serving tier: {} ({} events) ==",
        trace.label,
        trace.len()
    );

    let cfg = ServeConfig::default()
        .with_shards(4)
        .with_publish_every(2_048);
    let serve = FarmerServe::spawn(cfg);

    // A handful of hot files for the readers to query.
    let hot: Vec<FileId> = trace.events.iter().take(64).map(|e| e.file).collect();

    // Readers are registered up front (each gets its own wait-free view of
    // the snapshot cell) and moved into their threads.
    let readers: Vec<_> = (0..4).map(|_| serve.reader()).collect();
    let writers = 2;
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Writers: split the trace round-robin, each through its own
        // cloned lock-free handle.
        let writer_threads: Vec<_> = (0..writers)
            .map(|w| {
                let mut handle = serve.handle();
                let trace = &trace;
                s.spawn(move || {
                    for e in trace.events.iter().skip(w).step_by(writers) {
                        handle.ingest_event(trace, e);
                    }
                })
            })
            .collect();

        // Readers: serve top-k queries against the freshest published
        // snapshot until the writers finish, reporting how many epochs
        // they watched go by.
        let reader_threads: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                let hot = &hot;
                let done = &done;
                s.spawn(move || {
                    let mut buf = Vec::new();
                    let (mut queries, mut swaps) = (0u64, 0u64);
                    let mut epoch = r.epoch_seen();
                    while !done.load(Ordering::Relaxed) {
                        for &f in hot {
                            r.top_k_into(f, 4, 0.0, &mut buf);
                            queries += 1;
                        }
                        let now = r.epoch_seen();
                        if now != epoch {
                            swaps += 1;
                            epoch = now;
                        }
                    }
                    (i, queries, swaps)
                })
            })
            .collect();

        // Wait for ingestion to be fully mined and published, then let the
        // readers wind down.
        for t in writer_threads {
            t.join().expect("writer panicked");
        }
        serve.flush();
        done.store(true, Ordering::Relaxed);
        for t in reader_threads {
            let (i, queries, swaps) = t.join().expect("reader panicked");
            println!("reader {i}: {queries:>8} queries, saw {swaps} snapshot swaps");
        }
    });

    // Query the final published state through one more reader.
    let mut r = serve.reader();
    let snap = r.snapshot();
    println!(
        "\npublished snapshot: epoch {}  events {}  lists {}",
        r.epoch_seen(),
        snap.events,
        snap.num_lists()
    );
    let mut heads: Vec<_> = snap
        .table
        .iter()
        .filter_map(|(owner, list)| list.first().map(|&c| (owner, c)))
        .collect();
    heads.sort_by(|a, b| b.1.degree.total_cmp(&a.1.degree));
    println!("strongest served correlations:");
    for (owner, c) in heads.iter().take(5) {
        println!("  {owner} -> {}  (degree {:.3})", c.file, c.degree);
    }

    // Graceful shutdown: drain the ring, publish the final cut, account
    // for every event. Readers (like `r`) outlive the tier — they keep
    // serving the last published snapshot.
    let stats = serve.shutdown();
    println!(
        "\nshutdown: events={} forgets={} publishes={} final_epoch={}",
        stats.events, stats.forgets, stats.publishes, stats.final_epoch
    );
    assert_eq!(
        stats.events,
        trace.len() as u64,
        "every event accounted for"
    );
    let after = r.strongest(hot[0], 0.0);
    println!(
        "reader survives the tier: strongest({}) = {:?}",
        hot[0],
        after.map(|c| c.file)
    );
}
