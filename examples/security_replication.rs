//! FARMER-enabled security and reliability (§4.3): propagate an access
//! rule along mined correlations, and group correlated files into replica
//! groups with atomic backup/recovery.
//!
//! ```text
//! cargo run --release --example security_replication
//! ```

use farmer::mds::replication::{plan_replicas, ReplicaManager};
use farmer::mds::security::{AccessRule, PropagationConfig, RuleAction, SecurityPolicy};
use farmer::prelude::*;

fn main() {
    let trace = WorkloadSpec::hp().scaled(0.2).generate();
    let farmer = Farmer::mine_trace(&trace, FarmerConfig::default());
    println!("mined {} ({} files)\n", trace.label, trace.num_files());

    // --- Security: deny one sensitive file; the rule follows correlations.
    // Pick a file that actually has strong correlators so propagation shows.
    let sensitive = (0..trace.num_files() as u32)
        .map(FileId::new)
        .max_by_key(|f| farmer.correlators(*f).len())
        .expect("non-empty namespace");
    let rule = AccessRule {
        file: sensitive,
        subject: None,
        action: RuleAction::Deny,
    };
    let policy = SecurityPolicy::compile(&farmer, vec![rule], PropagationConfig::default());
    let (denied, _, allowed) = policy.enforce(trace.events.iter());
    println!(
        "security: a single deny rule on {sensitive} auto-covers {} correlated files;\n\
         enforcement over the trace: {denied} denied / {allowed} allowed",
        policy.covered_files()
    );

    // --- Reliability: correlation-aware replica groups.
    let plan = plan_replicas(&farmer, trace.num_files(), 0.4, 8);
    println!(
        "\nreplication: {} replica groups planned",
        plan.num_groups()
    );
    let mut mgr = ReplicaManager::new(plan, trace.num_files());

    // Write to a grouped file's whole neighbourhood, then crash mid-backup.
    let victim = (0..trace.num_files() as u32)
        .map(FileId::new)
        .find(|f| mgr.plan().group_of(*f).is_some())
        .expect("some grouped file");
    let group = mgr.plan().group_of(victim).unwrap();
    let members = mgr.plan().members(group).to_vec();
    for f in &members {
        mgr.write(*f);
    }
    let survived = mgr.backup(victim, Some(1));
    println!(
        "atomic group backup with a crash injected after 1 copy: {}",
        if survived {
            "committed (bug!)"
        } else {
            "aborted cleanly — no torn group"
        }
    );
    assert!(!survived);

    // Clean backup, then lose the primaries and recover the whole group.
    mgr.backup(victim, None);
    for f in &members {
        mgr.write(*f); // post-backup writes that the failure will destroy
    }
    mgr.recover(victim);
    let consistent = members
        .iter()
        .all(|f| mgr.primary_version(*f) == mgr.primary_version(members[0]));
    println!(
        "group recovery restored {} files to one consistent version: {}",
        members.len(),
        consistent
    );
    assert!(consistent);
}
