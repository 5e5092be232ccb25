//! The paper's motivating scenario (§2): "when a user executes gcc to
//! compile a set of source files … files are often generated in the same
//! access sequence and eventually deposited to the same directory."
//!
//! This example hand-builds that workload — two users compiling their own
//! projects concurrently, interleaved by the scheduler — and shows why the
//! combination of signals matters: pure sequence mining confuses the two
//! users' files, while FARMER's semantic distance separates them.
//!
//! ```text
//! cargo run --release --example compile_workload
//! ```

use farmer::core::{similarity, PathMode};
use farmer::prelude::*;
use farmer::trace::{DevId, HostId, ProcId, UserId};

fn main() {
    // --- Build a tiny namespace: two users, one project each, shared gcc.
    let mut trace = Trace::empty(TraceFamily::Hp);
    let mut add = |path: &str| {
        let p = trace.paths.parse(path);
        trace.files.push(farmer::trace::FileMeta {
            path: Some(p),
            dev: DevId::new(0),
            size: 8192,
            read_only: true,
        });
        FileId::new((trace.files.len() - 1) as u32)
    };
    let gcc = add("/usr/bin/gcc");
    let alice = [
        add("/home/alice/proj/main.c"),
        add("/home/alice/proj/util.c"),
        add("/home/alice/proj/a.out"),
    ];
    let bob = [
        add("/home/bob/thesis/sim.c"),
        add("/home/bob/thesis/plot.c"),
        add("/home/bob/thesis/sim.out"),
    ];

    // --- Interleave 40 compile runs of each user (as an OS scheduler would).
    let mut seq = 0u64;
    let push = |trace: &mut Trace, file: FileId, uid: u32, pid: u32, seq: &mut u64| {
        let mut e = TraceEvent::synthetic(
            *seq,
            file,
            UserId::new(uid),
            ProcId::new(pid),
            HostId::new(uid),
        );
        e.timestamp_us = *seq * 100;
        trace.events.push(e);
        *seq += 1;
    };
    let mut pid = 1u32;
    for round in 0..40 {
        // Both compiles run "simultaneously": steps interleave 1:1.
        let (pa, pb) = (pid, pid + 1);
        pid += 2;
        let a_run = [gcc, alice[0], alice[1], alice[2]];
        let b_run = [gcc, bob[0], bob[1], bob[2]];
        for i in 0..4 {
            if round % 2 == 0 {
                push(&mut trace, a_run[i], 1, pa, &mut seq);
                push(&mut trace, b_run[i], 2, pb, &mut seq);
            } else {
                push(&mut trace, b_run[i], 2, pb, &mut seq);
                push(&mut trace, a_run[i], 1, pa, &mut seq);
            }
        }
    }
    trace.num_users = 3;
    trace.num_hosts = 3;
    trace.validate().expect("well-formed trace");

    // --- Semantic distance agrees with intuition (Table 1/2 machinery).
    let (main_c, util_c) = (&trace.events[1], &trace.events[5]);
    let (req_main, p_main) = (Request::from_event(main_c), trace.path_of(main_c.file));
    let (req_util, p_util) = (Request::from_event(util_c), trace.path_of(util_c.file));
    println!(
        "sim(main.c, util.c across users' runs) = {:.3}",
        similarity(
            &req_main,
            p_main,
            &req_util,
            p_util,
            AttrCombo::hp_default(),
            PathMode::Ipa
        )
    );

    // --- Mine with FARMER and with pure sequence weights (p = 0).
    let farmer = Farmer::mine_trace(&trace, FarmerConfig::default());
    let sequence_only = Farmer::mine_trace(
        &trace,
        FarmerConfig::default().with_p(0.0).with_max_strength(0.0),
    );

    println!("\nFARMER's correlators of alice's main.c (threshold 0.4):");
    for c in farmer.correlators(alice[0]).entries() {
        println!("  -> {} degree {:.3}", path_of(&trace, c.file), c.degree);
    }
    println!("\npure sequence mining's view (p = 0, unfiltered):");
    for c in sequence_only
        .correlators_with_threshold(alice[0], 0.0)
        .top(4)
    {
        println!("  -> {} degree {:.3}", path_of(&trace, c.file), c.degree);
    }
    println!(
        "\nnote: with interleaved compiles, sequence mining ranks bob's files as\n\
         successors of alice's; FARMER's semantic filter keeps alice's project\n\
         (and the shared compiler) on top — the paper's §2 argument."
    );
}

fn path_of(trace: &Trace, f: FileId) -> String {
    trace.paths.render(trace.path_of(f).expect("paths present"))
}
