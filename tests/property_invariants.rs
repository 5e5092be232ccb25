//! Cross-crate property tests on the core data structures' invariants.

use std::collections::VecDeque;

use farmer::prelude::*;
use proptest::prelude::*;

/// Reference LRU-cache model: a VecDeque of file ids, front = MRU.
#[derive(Default)]
struct ModelCache {
    items: VecDeque<u32>,
    capacity: usize,
}

impl ModelCache {
    fn access(&mut self, f: u32) -> bool {
        if let Some(pos) = self.items.iter().position(|&x| x == f) {
            self.items.remove(pos);
            self.items.push_front(f);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, f: u32) {
        if let Some(pos) = self.items.iter().position(|&x| x == f) {
            self.items.remove(pos);
        } else if self.items.len() == self.capacity {
            self.items.pop_back();
        }
        self.items.push_front(f);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The metadata cache behaves exactly like the reference LRU model
    /// under arbitrary access/insert/invalidate sequences.
    #[test]
    fn metadata_cache_matches_reference_model(
        ops in proptest::collection::vec((0u8..4, 0u32..40), 1..300),
        capacity in 1usize..16,
    ) {
        let mut sys = MetadataCache::new(capacity);
        let mut model = ModelCache { items: VecDeque::new(), capacity };
        for (op, file) in ops {
            match op {
                0 => {
                    let got = sys.access(FileId::new(file));
                    let want = model.access(file);
                    prop_assert_eq!(got, want, "access({}) diverged", file);
                }
                1 => {
                    sys.insert_demand(FileId::new(file));
                    model.insert(file);
                }
                2 => {
                    // Prefetch insert only fills absent entries.
                    let was_resident = model.items.contains(&file);
                    sys.insert_prefetch(FileId::new(file));
                    if !was_resident {
                        model.insert(file);
                    }
                }
                _ => {
                    sys.invalidate(FileId::new(file));
                    if let Some(pos) = model.items.iter().position(|&x| x == file) {
                        model.items.remove(pos);
                    }
                }
            }
            prop_assert_eq!(sys.len(), model.items.len());
            for &f in &model.items {
                prop_assert!(sys.contains(FileId::new(f)), "missing {}", f);
            }
        }
    }

    /// FARMER model invariants hold under arbitrary request streams:
    /// degrees stay in [0, 1], lists stay sorted and thresholded, and
    /// successor counts respect the configured cap.
    #[test]
    fn farmer_invariants_under_random_streams(
        stream in proptest::collection::vec((0u32..30, 0u32..4, 0u32..6, 0u32..3), 10..400),
        p in 0.0f64..=1.0,
        max_strength in 0.0f64..=1.0,
        window in 1usize..8,
        max_successors in 1usize..8,
    ) {
        let mut cfg = FarmerConfig::default();
        cfg.p = p;
        cfg.max_strength = max_strength;
        cfg.window = window;
        cfg.max_successors = max_successors;
        cfg.prune_interval = 64;
        let mut farmer = Farmer::new(cfg);

        for (file, uid, pid, host) in &stream {
            farmer.observe(
                Request {
                    file: FileId::new(*file),
                    uid: farmer::trace::UserId::new(*uid),
                    pid: farmer::trace::ProcId::new(*pid),
                    host: farmer::trace::HostId::new(*host),
                    dev: farmer::trace::DevId::new(0),
                },
                None,
            );
        }

        prop_assert_eq!(farmer.observed(), stream.len() as u64);
        for file in 0..30u32 {
            let list = farmer.correlators(FileId::new(file));
            prop_assert!(list.len() <= max_successors);
            let mut last = f64::INFINITY;
            for c in list.entries() {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&c.degree), "degree {}", c.degree);
                prop_assert!(c.degree >= max_strength, "threshold violated");
                prop_assert!(c.degree <= last, "unsorted list");
                prop_assert!(c.file != FileId::new(file), "self-correlation");
                last = c.degree;
            }
        }
    }

    /// Trace-parser round-trips preserve every event for arbitrary small
    /// hand-built traces.
    #[test]
    fn parser_roundtrip_arbitrary_events(
        events in proptest::collection::vec((0u32..5, 0u32..3, 1u32..5, 0u32..3, 0u64..1000), 0..100),
    ) {
        use farmer::trace::{parser, FileMeta, Trace, TraceFamily, DevId};
        let mut t = Trace::empty(TraceFamily::Ins);
        for i in 0..5 {
            t.files.push(FileMeta {
                path: None,
                dev: DevId::new(i % 3),
                size: 100 * i as u64,
                read_only: i % 2 == 0,
            });
        }
        let mut ts = 0u64;
        for (i, (file, uid, pid, host, dt)) in events.iter().enumerate() {
            ts += dt;
            let mut e = TraceEvent::synthetic(
                i as u64,
                FileId::new(*file),
                farmer::trace::UserId::new(*uid),
                farmer::trace::ProcId::new(*pid),
                farmer::trace::HostId::new(*host),
            );
            e.timestamp_us = ts;
            // The text format derives an event's dev from the file table,
            // so events must be built consistently with it.
            e.dev = t.files[*file as usize].dev;
            t.events.push(e);
        }
        t.num_users = 3;
        t.num_hosts = 3;
        prop_assert!(t.validate().is_ok());
        let parsed = parser::from_text(&parser::to_text(&t)).expect("roundtrip");
        prop_assert_eq!(parsed.len(), t.len());
        for (a, b) in t.events.iter().zip(&parsed.events) {
            prop_assert_eq!(a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The trace parser and the JSON reader are total on arbitrary (mostly
    /// invalid) UTF-8: each returns `Ok` or `Err`, never panics.
    #[test]
    fn decoders_never_panic_on_byte_soup(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = farmer::trace::parser::from_text(&text);
        let _ = farmer::obs::Json::parse(&text);
    }
}
