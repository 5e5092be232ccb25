//! The mining kernel against the statement of its rule (`spec/mod.rs`).
//!
//! The spec restates Table 2 and the LDA weights; then a `Farmer` and the
//! spec are fed the same calls — ids spread to ~10^7, batched forgets on
//! either side of every sweep prefilter size — and after every call the
//! kernel's state image, published table and Correlator Lists must be the
//! spec's, bit for bit. Each stream also asserts, from the kernel's public
//! update mix and the spec's own counts, that the path it was written for
//! ran. The same driver ([`spec::lockstep`]) runs the seeded streams under
//! every attribute combination, path algorithm and successor cap in
//! `farmer-core`'s `model::tests`, and random operation streams in
//! `graph_equivalence.rs`.

mod spec;

use farmer::core::{AttrCombo, PathMode};
use farmer::trace::{FileId, PathInterner};
use spec::lockstep::{cfg, req, run, Lockstep, Rng, Stream, DENSE};

#[test]
fn the_spec_restates_table_2_and_the_lda_weights() {
    // Table 1's requests under {User, Process, Host, File path}.
    let mut names = PathInterner::new();
    let paths = [
        "/home/user1/paper/a",
        "/home/user1/paper/b",
        "/home/user2/c",
    ];
    let paths = paths.map(|p| names.parse(p));
    let reqs = [req(0, 1, 1, 1), req(1, 1, 2, 1), req(2, 2, 3, 2)];
    let sim = |x: usize, y: usize, mode| {
        let s = spec::scalar_term(&reqs[x], &reqs[y], AttrCombo::hp_default());
        let p = (paths[x].components(), paths[y].components());
        spec::similarity(s, spec::path_term(Some(p.0), Some(p.1), mode)).1
    };
    for (x, y, mode, want) in [
        (0, 1, PathMode::Dpa, 5.0 / 7.0),
        (0, 2, PathMode::Dpa, 1.0 / 7.0),
        (1, 2, PathMode::Dpa, 1.0 / 7.0),
        (0, 1, PathMode::Ipa, 2.75 / 4.0),
        (0, 2, PathMode::Ipa, 0.25 / 4.0),
        (1, 2, PathMode::Ipa, 0.25 / 4.0),
    ] {
        assert!((sim(x, y, mode) - want).abs() < 1e-12, "{x} {y} {mode:?}");
        assert_eq!(sim(x, y, mode).to_bits(), sim(y, x, mode).to_bits());
    }
    // "1.0 for B, 0.9 for C, and 0.8 for D", nothing past the window.
    for (d, want) in [(1, 1.0), (2, 0.9), (3, 0.8), (5, 0.6), (6, 0.0)] {
        assert!((spec::lda_weight(5, d) - want).abs() < 1e-12, "{d}");
    }
}

#[test]
fn sparse_ids_match_the_spec_and_stay_compact() {
    // Ids spread over ~10^7: a dense spine up to the largest would need
    // tens of MiB, the model stays in the kilobytes.
    let sparse = Stream {
        files: 24,
        id: |x| x * 416_661 + 13,
        ..DENSE
    };
    for seed in [20, 21] {
        let both = run(cfg(3, 4), seed, sparse);
        assert!(both.spec.counts.pruned > 0 && both.longest() == 3);
        let bytes = both.kernel.memory_bytes();
        assert!(bytes < 64 << 10, "seed {seed}: {bytes} bytes");
    }
}

#[test]
fn forget_sweeps_match_the_spec() {
    // Interleaved observes and forgets on both halves of a two-way
    // ownership partition, for a batch of one victim, a handful, the
    // streaming miner's default 64, and a batch on either side of every
    // sweep prefilter size (64 | 65, 512 | 513, 4 096 | 4 097). A successor
    // cap of 16 fills whole id lines (no pad to hide behind), and file 7
    // goes by the id `u32::MAX` — the pad value — as successor,
    // predecessor and victim.
    for (files, batch, cap, steps) in [
        (48, 1, 4, 1500),
        (48, 5, 4, 800),
        (400, 64, 4, 800),
        (48, 65, 16, 800),
        (3000, 512, 4, 400),
        (3000, 513, 4, 400),
        (3000, 1000, 4, 400),
        (48, 1024, 16, 800),
        (3000, 4096, 4, 400),
        (48, 4097, 16, 800),
    ] {
        // A prune every sixteenth event: a line of sixteen has to fill
        // between two. Big batches draw from beyond the namespace, or each
        // would wipe the graph: most of their victims were never observed.
        let universe = files.max(4 * batch as u32);
        let id = |x: u32| if x == 7 { u32::MAX } else { x };
        let mut longest = 0;
        for part in 0..2u32 {
            let label = format!("{files} files, batch {batch}, cap {cap}, part {part}");
            let mut both = Lockstep::new(cfg(cap, 16), label);
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15 + u64::from(part));
            let mut removed = 0;
            for i in 0..steps {
                // Half the accesses go to eight hot files that no batch
                // names, each access from a context of its own: an edge
                // from one shares no attribute, so the prune floor catches
                // it as the file's total grows.
                let r = match (rng.next(2), 100 + rng.next(1000), id(rng.next(files))) {
                    (0, context, _) => req(200_000 + context % 8, context, context, context),
                    (_, _, file) => rng.request(file),
                };
                both.observe(r, None, Some(part));
                if i % 37 == 0 {
                    // Duplicates, a never-observed id, and neighbours that
                    // are each other's successors.
                    let a = rng.next(files - 1);
                    let victims: Vec<FileId> = [a + 1, a, 100_000 + a, a]
                        .into_iter()
                        .chain(std::iter::repeat_with(|| rng.next(universe)))
                        .skip(if batch == 1 { 3 } else { 0 })
                        .take(batch)
                        .map(|x| FileId::new(id(x)))
                        .collect();
                    removed += both.forget(&victims);
                }
                longest = longest.max(both.longest());
            }
            assert!(removed > 100, "only {removed} edges removed at {batch}");
            assert!(both.spec.counts.pruned > 0, "nothing pruned at {batch}");
        }
        // Some node fills its list to the cap: at 16, a line with no pad.
        assert_eq!(longest, cap, "longest list {longest} at cap {cap}");
    }
}
