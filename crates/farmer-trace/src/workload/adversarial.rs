//! Adversarial and dynamic scenario generators.
//!
//! The per-family presets ([`super::presets`]) reproduce the *static*
//! character of the paper's four traces. Real deployments are harder: the
//! correlation structure itself moves. Models tuned on one stationary
//! workload silently regress on phase-shifting or consolidated streams, so
//! the evaluation reference model drives every predictor through four
//! adversarial regimes built on top of any base [`WorkloadSpec`]:
//!
//! * [`DriftSpec`] — **phase-shifting correlation drift**: the trace is cut
//!   into contiguous phases and every file id is rotated by a per-phase
//!   offset. Within a phase co-access groups are stable (mineable); at each
//!   boundary the groups translate wholesale, so every previously mined
//!   pair stops occurring and a disjoint set appears. Because the rotated
//!   ids keep their *own* paths and devices, path/dev coherence no longer
//!   aligns with co-access — adversarial for semantic filtering too.
//! * [`MultiTenantSpec`] — **multi-tenant interleave**: K independently
//!   generated namespaces (possibly different families) are round-robined
//!   through one stream, modelling consolidation of unrelated clusters
//!   behind one metadata service. Ids, users, hosts, devices, processes and
//!   app identities are offset per tenant so the merged namespace is a
//!   disjoint union, and the interleave is event-count-exact: the merged
//!   stream holds precisely the union of the tenants' events, in per-tenant
//!   order.
//! * [`ScanStormSpec`] — **scan/burst storms**: periodic sequential sweeps
//!   (backup / indexer walking the namespace in id order) and hot-set flash
//!   crowds (many users stampeding a few shared files within microseconds)
//!   are spliced into the base stream. Sweeps pollute successor windows
//!   with one-shot adjacency; crowds compress unrelated contexts into the
//!   look-ahead window.
//! * [`ChurnSpec`] — **create/delete churn**: generations of ephemeral
//!   scratch files are created, co-accessed hard enough to become genuinely
//!   correlated, then unlinked. A miner that cannot forget
//!   (`Farmer::forget_files` downstream) retains dead state
//!   and serves prefetches for files that no longer exist.
//!
//! Every generator is a pure function of its spec — equal specs (seeds
//! included) produce byte-identical traces — and every produced trace
//! passes [`Trace::validate`].

use crate::event::{Op, TraceEvent};
use crate::ids::{DevId, FileId, HostId, ProcId, UserId};
use crate::path::PathInterner;
use crate::trace::{FileMeta, Trace, TraceFamily};

use super::WorkloadSpec;

/// Re-densify sequence numbers after splicing or merging event streams.
fn renumber(events: &mut [TraceEvent]) {
    for (i, e) in events.iter_mut().enumerate() {
        e.seq = i as u64;
    }
}

// ---------------------------------------------------------------------------
// Phase-shifting correlation drift
// ---------------------------------------------------------------------------

/// Phase-shifting drift: co-access sets rotate at phase boundaries.
///
/// See the [module docs](self) for the regime; `phases = 1` degenerates to
/// the base trace.
#[derive(Debug, Clone)]
pub struct DriftSpec {
    /// The stationary workload each phase is derived from.
    pub base: WorkloadSpec,
    /// Number of contiguous phases (≥ 1). Phase 0 is the unrotated base.
    pub phases: usize,
}

impl DriftSpec {
    /// Default: four phases over the base workload.
    pub fn new(base: WorkloadSpec) -> Self {
        DriftSpec { base, phases: 4 }
    }

    /// Builder-style phase-count override.
    #[must_use]
    pub fn with_phases(mut self, phases: usize) -> Self {
        assert!(phases >= 1, "phases must be >= 1");
        self.phases = phases;
        self
    }

    /// Events per phase for a trace of `len` events.
    pub fn phase_len(&self, len: usize) -> usize {
        len.div_ceil(self.phases.max(1)).max(1)
    }

    /// Generate the drifting trace.
    pub fn generate(&self) -> Trace {
        let mut trace = self.base.generate();
        let n = trace.num_files() as u32;
        let phases = self.phases.max(1) as u32;
        if phases == 1 || n == 0 {
            return trace;
        }
        let seg = self.phase_len(trace.len());
        // Rotation step: phases spread evenly over the namespace, so no
        // two phases share a translation and every boundary is a full break.
        let step = (n / phases).max(1);
        let files = &trace.files;
        for (i, e) in trace.events.iter_mut().enumerate() {
            let phase = (i / seg) as u32;
            let f = FileId::new((e.file.raw() + phase * step) % n);
            e.file = f;
            // Keep the event's device consistent with the file it now
            // targets; the semantic miner conditions on (file, dev) pairs.
            e.dev = files[f.index()].dev;
        }
        trace.label = format!("DRIFT[{}ph]({})", phases, trace.label);
        debug_assert_eq!(trace.validate(), Ok(()));
        trace
    }
}

// ---------------------------------------------------------------------------
// Multi-tenant interleave
// ---------------------------------------------------------------------------

/// K independent namespaces round-robined through one stream.
#[derive(Debug, Clone)]
pub struct MultiTenantSpec {
    /// One workload per tenant. Families may differ; if any tenant's family
    /// records no paths the merged trace is pathless (you cannot serve path
    /// semantics you only hold for part of the namespace).
    pub tenants: Vec<WorkloadSpec>,
}

impl MultiTenantSpec {
    /// K tenants running the same workload shape with decorrelated seeds.
    pub fn homogeneous(base: WorkloadSpec, k: usize) -> Self {
        assert!(k >= 1, "need at least one tenant");
        let tenants = (0..k)
            .map(|t| {
                let seed = base
                    .seed
                    .wrapping_add((t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                base.clone().with_seed(seed)
            })
            .collect();
        MultiTenantSpec { tenants }
    }

    /// Generate each tenant's standalone trace (the "parts" the interleave
    /// is event-count-exact against).
    pub fn parts(&self) -> Vec<Trace> {
        self.tenants.iter().map(WorkloadSpec::generate).collect()
    }

    /// Generate the merged trace.
    pub fn generate(&self) -> Trace {
        Self::interleave(&self.parts())
    }

    /// Round-robin `parts` into one stream over a disjoint-union namespace.
    ///
    /// Tenant `t` keeps its internal event order; the merged stream takes
    /// one event per live tenant per round, so the event count is exactly
    /// the sum of the parts and the per-tenant subsequences are unchanged.
    pub fn interleave(parts: &[Trace]) -> Trace {
        assert!(!parts.is_empty(), "need at least one tenant");
        let k = parts.len();
        let all_paths = parts.iter().all(|p| p.family.has_paths());
        // A pathless tenant forces a pathless merged trace; label it with
        // the first pathless family so downstream config selection
        // (pathless attribute combos) keys off `family.has_paths()`.
        let family = if all_paths {
            parts[0].family
        } else {
            parts
                .iter()
                .map(|p| p.family)
                .find(|f| !f.has_paths())
                .unwrap_or(TraceFamily::Res)
        };

        // Per-tenant attribute offsets: the merged namespace is a disjoint
        // union along every identity axis.
        let mut paths = PathInterner::new();
        let mut files: Vec<FileMeta> = Vec::with_capacity(parts.iter().map(Trace::num_files).sum());
        let mut file_off = Vec::with_capacity(k);
        let mut user_off = Vec::with_capacity(k);
        let mut host_off = Vec::with_capacity(k);
        let mut dev_off = Vec::with_capacity(k);
        let mut pid_off = Vec::with_capacity(k);
        let mut app_off = Vec::with_capacity(k);
        let (mut users, mut hosts, mut devs, mut pids, mut apps) = (0u32, 0u32, 0u32, 0u32, 0u32);
        for (t, part) in parts.iter().enumerate() {
            file_off.push(files.len() as u32);
            user_off.push(users);
            host_off.push(hosts);
            dev_off.push(devs);
            pid_off.push(pids);
            app_off.push(apps);
            users += part.num_users;
            hosts += part.num_hosts;
            devs += part
                .files
                .iter()
                .map(|f| f.dev.raw() + 1)
                .max()
                .unwrap_or(1);
            pids += part
                .events
                .iter()
                .map(|e| e.pid.raw() + 1)
                .max()
                .unwrap_or(1);
            apps += part
                .events
                .iter()
                .filter(|e| e.app != TraceEvent::NO_APP)
                .map(|e| e.app + 1)
                .max()
                .unwrap_or(0);
            for meta in &part.files {
                let path = if all_paths {
                    meta.path
                        .as_ref()
                        .map(|p| paths.parse(&format!("/tenant-{t}{}", part.paths.render(p))))
                } else {
                    None
                };
                files.push(FileMeta {
                    path,
                    dev: DevId::new(meta.dev.raw() + dev_off[t]),
                    size: meta.size,
                    read_only: meta.read_only,
                });
            }
        }

        // Round-robin merge. Virtual time advances by each event's
        // tenant-local inter-arrival gap, so the merged stream offers the
        // *average* tenant load over a K×-longer horizon. The adversarial
        // axis of this scenario is namespace/interleave pressure on the
        // miner and the caches (both event-count driven), not raw offered
        // load — keeping arrival rates in each family's calibrated regime
        // means the downstream queueing simulation measures prediction
        // quality, not a provisioning decision this crate cannot model.
        let total: usize = parts.iter().map(Trace::len).sum();
        let mut events = Vec::with_capacity(total);
        let mut cursor = vec![0usize; k];
        let mut last_ts = vec![0u64; k];
        let mut now = 0u64;
        while events.len() < total {
            for t in 0..k {
                let part = &parts[t];
                if cursor[t] >= part.len() {
                    continue;
                }
                let src = part.events[cursor[t]];
                cursor[t] += 1;
                let gap = src.timestamp_us.saturating_sub(last_ts[t]);
                last_ts[t] = src.timestamp_us;
                now += gap.max(1);
                events.push(TraceEvent {
                    seq: events.len() as u64,
                    timestamp_us: now,
                    op: src.op,
                    file: FileId::new(src.file.raw() + file_off[t]),
                    dev: DevId::new(src.dev.raw() + dev_off[t]),
                    uid: UserId::new(src.uid.raw() + user_off[t]),
                    pid: ProcId::new(src.pid.raw() + pid_off[t]),
                    host: HostId::new(src.host.raw() + host_off[t]),
                    app: if src.app == TraceEvent::NO_APP {
                        TraceEvent::NO_APP
                    } else {
                        src.app + app_off[t]
                    },
                    bytes: src.bytes,
                });
            }
        }

        let trace = Trace {
            family,
            label: format!(
                "TENANTSx{k}({})",
                parts
                    .iter()
                    .map(|p| p.family.name())
                    .collect::<Vec<_>>()
                    .join("+")
            ),
            events,
            files,
            paths,
            num_users: users,
            num_hosts: hosts,
        };
        debug_assert_eq!(trace.validate(), Ok(()));
        trace
    }
}

// ---------------------------------------------------------------------------
// Scan/burst storms
// ---------------------------------------------------------------------------

/// Sequential sweeps plus hot-set flash crowds spliced into a base stream.
#[derive(Debug, Clone)]
pub struct ScanStormSpec {
    /// The workload the storms disturb.
    pub base: WorkloadSpec,
    /// Number of sequential sweeps over the trace (evenly spaced).
    pub sweeps: usize,
    /// Files touched per sweep, in consecutive-id order.
    pub scan_len: usize,
    /// Number of flash crowds over the trace (evenly spaced).
    pub crowds: usize,
    /// Accesses per flash crowd.
    pub burst_len: usize,
    /// Distinct files a crowd hammers (the lowest ids: the shared tools,
    /// which are genuinely the most popular files in every preset).
    pub hot_set: usize,
    /// Microseconds between injected events. Sweeps and crowds arrive far
    /// faster than the base workload's inter-arrival time but still at a
    /// physical request rate (a 1 ms gap is 1 000 req/s from one
    /// scanner/stampede — a throttled backup walker or a real flash
    /// crowd, disruptive without collapsing the queueing simulation into
    /// pure overload).
    pub inject_gap_us: u64,
}

impl ScanStormSpec {
    /// Default storm intensity: twelve sweeps of 400 files and ten crowds
    /// of 300 accesses over a dozen hot files, injected at 1 ms spacing.
    pub fn new(base: WorkloadSpec) -> Self {
        ScanStormSpec {
            base,
            sweeps: 12,
            scan_len: 400,
            crowds: 10,
            burst_len: 300,
            hot_set: 12,
            inject_gap_us: 1_000,
        }
    }

    /// Generate the stormy trace.
    pub fn generate(&self) -> Trace {
        let mut trace = self.base.generate();
        let n = trace.num_files();
        if n == 0 || trace.is_empty() {
            return trace;
        }
        let base_len = trace.len();
        let scan_gap = (base_len / (self.sweeps + 1).max(1)).max(1);
        let crowd_gap = (base_len / (self.crowds + 1).max(1)).max(1);
        let hot = self.hot_set.clamp(1, n);
        let injected = self.sweeps * self.scan_len.min(n) + self.crowds * self.burst_len;
        let mut out: Vec<TraceEvent> = Vec::with_capacity(base_len + injected);
        let mut now = 0u64;
        let mut scan_origin = 0usize;
        // Crowd processes get ids far above the generator's (which start at
        // 1 and grow by turnover); collisions would merely alias attributes
        // but fresh ids keep the stampede semantically distinct.
        const CROWD_PID_BASE: u32 = 0x4000_0000;
        let mut crowd_no = 0u32;
        let mut sweeps_done = 0usize;
        // Injected events occupy real virtual time, so the base stream is
        // shifted by the accumulated injection duration — without this,
        // every event behind a burst would collapse onto one instant and
        // the storm would measure a timestamp artifact, not a storm.
        let mut shift = 0u64;

        for (i, e) in trace.events.iter().enumerate() {
            if i > 0 && i % scan_gap == 0 && sweeps_done < self.sweeps {
                sweeps_done += 1;
                // One sweep: a daemon (pid 0, like the generator's noise
                // context) stats `scan_len` consecutive files.
                for j in 0..self.scan_len.min(n) {
                    let f = FileId::new(((scan_origin + j) % n) as u32);
                    now += self.inject_gap_us.max(1);
                    out.push(TraceEvent {
                        seq: 0,
                        timestamp_us: now,
                        op: Op::Stat,
                        file: f,
                        dev: trace.files[f.index()].dev,
                        uid: UserId::new(0),
                        pid: ProcId::new(0),
                        host: HostId::new(0),
                        app: TraceEvent::NO_APP,
                        bytes: 0,
                    });
                }
                scan_origin = (scan_origin + self.scan_len) % n;
                shift += self.scan_len.min(n) as u64 * self.inject_gap_us.max(1);
            }
            if i > 0 && i % crowd_gap == 0 && (crowd_no as usize) < self.crowds {
                // One flash crowd: many users/hosts open the same few hot
                // files within microseconds.
                for j in 0..self.burst_len {
                    let f = FileId::new((j % hot) as u32);
                    now += self.inject_gap_us.max(1);
                    out.push(TraceEvent {
                        seq: 0,
                        timestamp_us: now,
                        op: Op::Open,
                        file: f,
                        dev: trace.files[f.index()].dev,
                        uid: UserId::new(j as u32 % trace.num_users.max(1)),
                        pid: ProcId::new(CROWD_PID_BASE + crowd_no * 4096 + j as u32),
                        host: HostId::new(j as u32 % trace.num_hosts.max(1)),
                        app: TraceEvent::NO_APP,
                        bytes: 0,
                    });
                }
                crowd_no += 1;
                shift += self.burst_len as u64 * self.inject_gap_us.max(1);
            }
            let mut e = *e;
            e.timestamp_us = (e.timestamp_us + shift).max(now);
            now = e.timestamp_us;
            out.push(e);
        }
        renumber(&mut out);
        trace.events = out;
        trace.label = format!(
            "STORM[{}sw/{}cr]({})",
            self.sweeps, self.crowds, trace.label
        );
        debug_assert_eq!(trace.validate(), Ok(()));
        trace
    }
}

// ---------------------------------------------------------------------------
// Create/delete churn
// ---------------------------------------------------------------------------

/// Generations of ephemeral files: created, co-accessed, then unlinked.
#[derive(Debug, Clone)]
pub struct ChurnSpec {
    /// The workload the churn rides on.
    pub base: WorkloadSpec,
    /// Number of scratch-file generations over the trace. Generation `g`
    /// is created at base position `g·span` and unlinked one span later
    /// (`span = base_len / generations`), so at most one generation is
    /// live at a time and turnover is continuous.
    pub generations: usize,
    /// Ephemeral files per generation.
    pub files_per_gen: usize,
    /// Co-access laps per generation lifetime: each lap touches the whole
    /// generation in order, making the cohort genuinely correlated before
    /// it dies.
    pub touches: usize,
}

impl ChurnSpec {
    /// Default churn: 16 generations of 8 scratch files, 6 laps each.
    pub fn new(base: WorkloadSpec) -> Self {
        ChurnSpec {
            base,
            generations: 16,
            files_per_gen: 8,
            touches: 6,
        }
    }

    /// File id of ephemeral file `j` of generation `g`, given the base
    /// namespace size.
    pub fn ephemeral_id(&self, base_files: usize, g: usize, j: usize) -> FileId {
        FileId::new((base_files + g * self.files_per_gen + j) as u32)
    }

    /// Generate the churning trace.
    pub fn generate(&self) -> Trace {
        let mut trace = self.base.generate();
        if trace.is_empty() || self.generations == 0 || self.files_per_gen == 0 {
            return trace;
        }
        let base_files = trace.num_files();
        let has_paths = trace.family.has_paths();
        for g in 0..self.generations {
            for j in 0..self.files_per_gen {
                let path =
                    has_paths.then(|| trace.paths.parse(&format!("/scratch/gen-{g}/tmp-{j}")));
                trace.files.push(FileMeta {
                    path,
                    dev: DevId::new(0),
                    size: 65_536,
                    read_only: false,
                });
            }
        }

        let base_len = trace.len();
        let span = (base_len / self.generations).max(1);
        let lap_gap = (span / (self.touches + 1).max(1)).max(1);
        // One process per generation: a scratch job with a stable identity,
        // owned by a rotating user on a rotating host.
        const CHURN_PID_BASE: u32 = 0x2000_0000;
        let injected = self.generations * self.files_per_gen * (2 + self.touches);
        let mut out: Vec<TraceEvent> = Vec::with_capacity(base_len + injected);
        let mut now = 0u64;

        let emit = |now: &mut u64,
                    out: &mut Vec<TraceEvent>,
                    g: usize,
                    j: usize,
                    op: Op,
                    files: &[FileMeta],
                    base_files: usize| {
            let f = self.ephemeral_id(base_files, g, j);
            *now += 1;
            out.push(TraceEvent {
                seq: 0,
                timestamp_us: *now,
                op,
                file: f,
                dev: files[f.index()].dev,
                uid: UserId::new(g as u32 % self.base.num_users.max(1)),
                pid: ProcId::new(CHURN_PID_BASE + g as u32),
                host: HostId::new(g as u32 % self.base.num_hosts.max(1)),
                app: TraceEvent::NO_APP,
                bytes: if op == Op::Write { 65_536 } else { 0 },
            });
        };

        for (i, e) in trace.events.iter().enumerate() {
            if i % span == 0 {
                let g = i / span;
                if g < self.generations {
                    // Death of the previous generation, birth of the next.
                    if g > 0 {
                        for j in 0..self.files_per_gen {
                            emit(
                                &mut now,
                                &mut out,
                                g - 1,
                                j,
                                Op::Unlink,
                                &trace.files,
                                base_files,
                            );
                        }
                    }
                    for j in 0..self.files_per_gen {
                        emit(
                            &mut now,
                            &mut out,
                            g,
                            j,
                            Op::Create,
                            &trace.files,
                            base_files,
                        );
                    }
                }
            }
            let g = (i / span).min(self.generations - 1);
            if (i % span).is_multiple_of(lap_gap) && i % span != 0 && i / span < self.generations {
                // One co-access lap over the live generation.
                for j in 0..self.files_per_gen {
                    let op = if j % 2 == 0 { Op::Write } else { Op::Open };
                    emit(&mut now, &mut out, g, j, op, &trace.files, base_files);
                }
            }
            let mut e = *e;
            e.timestamp_us = e.timestamp_us.max(now);
            now = e.timestamp_us;
            out.push(e);
        }
        // The final generation dies at end of trace.
        for j in 0..self.files_per_gen {
            emit(
                &mut now,
                &mut out,
                self.generations - 1,
                j,
                Op::Unlink,
                &trace.files,
                base_files,
            );
        }
        renumber(&mut out);
        trace.events = out;
        trace.label = format!(
            "CHURN[{}g x {}f]({})",
            self.generations, self.files_per_gen, trace.label
        );
        debug_assert_eq!(trace.validate(), Ok(()));
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxHashSet;

    fn base() -> WorkloadSpec {
        WorkloadSpec::hp().scaled(0.05)
    }

    #[test]
    fn drift_rotates_coaccess_sets_per_phase() {
        let spec = DriftSpec::new(base()).with_phases(4);
        let plain = base().generate();
        let drift = spec.generate();
        assert_eq!(plain.len(), drift.len(), "drift adds no events");
        assert!(drift.validate().is_ok());
        let seg = spec.phase_len(drift.len());
        // Phase 0 is the unrotated base.
        for (a, b) in plain.events.iter().zip(&drift.events).take(seg) {
            assert_eq!(a.file, b.file);
        }
        // Later phases translate ids by a constant per phase.
        let n = drift.num_files() as u32;
        let step = (n / 4).max(1);
        for (i, (a, b)) in plain.events.iter().zip(&drift.events).enumerate() {
            let phase = (i / seg) as u32;
            assert_eq!(b.file.raw(), (a.file.raw() + phase * step) % n);
        }
    }

    #[test]
    fn drift_single_phase_is_identity() {
        let spec = DriftSpec::new(base()).with_phases(1);
        let plain = base().generate();
        let drift = spec.generate();
        assert_eq!(plain.events, drift.events);
    }

    #[test]
    fn multi_tenant_is_event_count_exact() {
        let spec = MultiTenantSpec::homogeneous(WorkloadSpec::ins().scaled(0.05), 3);
        let parts = spec.parts();
        let merged = MultiTenantSpec::interleave(&parts);
        assert_eq!(
            merged.len(),
            parts.iter().map(Trace::len).sum::<usize>(),
            "interleave must preserve every tenant event"
        );
        assert!(merged.validate().is_ok());
        assert_eq!(
            merged.num_files(),
            parts.iter().map(Trace::num_files).sum::<usize>()
        );
        assert_eq!(
            merged.num_users,
            parts.iter().map(|p| p.num_users).sum::<u32>()
        );
    }

    #[test]
    fn multi_tenant_namespaces_are_disjoint() {
        let spec = MultiTenantSpec::homogeneous(WorkloadSpec::ins().scaled(0.03), 3);
        let parts = spec.parts();
        let merged = MultiTenantSpec::interleave(&parts);
        // Per-tenant file-id ranges must not overlap: every merged event's
        // file falls in its tenant's half-open range, in tenant order.
        let mut off = 0u32;
        let mut ranges = Vec::new();
        for p in &parts {
            ranges.push(off..off + p.num_files() as u32);
            off += p.num_files() as u32;
        }
        let mut seen_per_range = vec![0usize; ranges.len()];
        for e in &merged.events {
            let t = ranges
                .iter()
                .position(|r| r.contains(&e.file.raw()))
                .expect("event outside all tenant ranges");
            seen_per_range[t] += 1;
        }
        for (t, &count) in seen_per_range.iter().enumerate() {
            assert_eq!(count, parts[t].len(), "tenant {t} lost events");
        }
    }

    #[test]
    fn multi_tenant_mixed_families_strip_paths() {
        let spec = MultiTenantSpec {
            tenants: vec![
                WorkloadSpec::hp().scaled(0.02),
                WorkloadSpec::ins().scaled(0.05),
            ],
        };
        let merged = spec.generate();
        assert!(!merged.family.has_paths());
        assert!(merged.files.iter().all(|f| f.path.is_none()));
        assert!(merged.validate().is_ok());
    }

    #[test]
    fn multi_tenant_all_paths_kept_and_prefixed() {
        let spec = MultiTenantSpec::homogeneous(WorkloadSpec::hp().scaled(0.02), 2);
        let merged = spec.generate();
        assert!(merged.family.has_paths());
        for f in &merged.files {
            let rendered = merged.paths.render(f.path.as_ref().expect("path kept"));
            assert!(
                rendered.starts_with("/tenant-"),
                "path not tenant-prefixed: {rendered}"
            );
        }
    }

    #[test]
    fn storm_injects_sweeps_and_crowds() {
        let spec = ScanStormSpec::new(base());
        let plain = base().generate();
        let storm = spec.generate();
        assert!(storm.validate().is_ok());
        assert!(
            storm.len() > plain.len(),
            "storm must add events: {} vs {}",
            storm.len(),
            plain.len()
        );
        // Sweeps: runs of consecutive-id Stat accesses from the daemon.
        let stats = storm
            .events
            .iter()
            .filter(|e| e.op == Op::Stat && e.pid.raw() == 0)
            .count();
        assert!(stats >= spec.sweeps * spec.scan_len.min(storm.num_files()) / 2);
        // Crowds: hot-set opens from many distinct hosts.
        let hot_openers: FxHashSet<u32> = storm
            .events
            .iter()
            .filter(|e| e.op == Op::Open && e.file.raw() < spec.hot_set as u32)
            .map(|e| e.host.raw())
            .collect();
        assert!(hot_openers.len() > 4, "crowd must span many hosts");
    }

    #[test]
    fn churn_creates_touches_then_unlinks_every_generation() {
        let spec = ChurnSpec::new(base());
        let churn = spec.generate();
        assert!(churn.validate().is_ok());
        let base_files = base().generate().num_files();
        for g in 0..spec.generations {
            for j in 0..spec.files_per_gen {
                let f = spec.ephemeral_id(base_files, g, j);
                let ops: Vec<Op> = churn
                    .events
                    .iter()
                    .filter(|e| e.file == f)
                    .map(|e| e.op)
                    .collect();
                assert_eq!(ops.first(), Some(&Op::Create), "gen {g} file {j}");
                assert_eq!(ops.last(), Some(&Op::Unlink), "gen {g} file {j}");
                assert!(
                    ops.len() > 2,
                    "gen {g} file {j} must be touched between birth and death"
                );
                // Exactly one create and one unlink per ephemeral file.
                assert_eq!(ops.iter().filter(|&&o| o == Op::Create).count(), 1);
                assert_eq!(ops.iter().filter(|&&o| o == Op::Unlink).count(), 1);
            }
        }
    }

    #[test]
    fn generators_are_deterministic_for_equal_specs() {
        let d1 = DriftSpec::new(base()).generate();
        let d2 = DriftSpec::new(base()).generate();
        assert_eq!(d1.events, d2.events);
        let m1 = MultiTenantSpec::homogeneous(base(), 2).generate();
        let m2 = MultiTenantSpec::homogeneous(base(), 2).generate();
        assert_eq!(m1.events, m2.events);
        let s1 = ScanStormSpec::new(base()).generate();
        let s2 = ScanStormSpec::new(base()).generate();
        assert_eq!(s1.events, s2.events);
        let c1 = ChurnSpec::new(base()).generate();
        let c2 = ChurnSpec::new(base()).generate();
        assert_eq!(c1.events, c2.events);
    }
}
