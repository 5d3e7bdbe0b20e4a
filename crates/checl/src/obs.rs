//! Ledger-side verification: walk a [`ProvenanceGraph`] against the
//! bytes actually sitting in the cluster, and reconcile injected
//! faults with supervisor incidents.
//!
//! The ledger claims things — "this dump was committed with these
//! bases, this size, this checksum". [`verify_lineage`] checks the
//! claims against ground truth: every file in the lineage must exist,
//! have the recorded length, parse under its recorded format, and (for
//! vault-committed generations) hash to the recorded FNV-64. The walk
//! uses [`Cluster::peek_file_on`], which bypasses fault injection and
//! costs no virtual time, so verification never perturbs a run.

use osproc::{Cluster, NodeId};
use simcore::obs::{EventKind, Ledger, ProvenanceGraph};
use simcore::SimTime;
use std::fmt;

/// What a lineage walk verified.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LineageReport {
    /// Every path checked, head first, in walk order.
    pub checked: Vec<String>,
    /// Bytes read back and validated across those files.
    pub bytes_verified: u64,
    /// Vault checksums that matched.
    pub checksums_matched: u64,
}

/// Why a lineage failed verification. Every variant names the path so
/// the failure is actionable.
#[derive(Clone, Debug, PartialEq)]
pub enum LineageError {
    /// A file in the lineage does not exist on the node's mounts.
    Missing(String),
    /// The graph has no node for the head path asked about.
    NoProvenance(String),
    /// The vault garbage-collected a generation the lineage needs.
    Retired(String),
    /// A scrub declared every replica of this generation damaged.
    Lost(String),
    /// On-disk length differs from the recorded serialized size.
    SizeMismatch {
        /// The offending file.
        path: String,
        /// Bytes the ledger recorded at commit.
        expected: u64,
        /// Bytes actually on disk.
        actual: u64,
    },
    /// Stored bytes no longer hash to the vault-recorded FNV-64.
    ChecksumMismatch {
        /// The offending file (primary or replica).
        path: String,
        /// The checksum recorded by the vault commit.
        expected: u64,
        /// The checksum of the bytes on disk.
        actual: u64,
    },
    /// The file no longer parses under its recorded format.
    Corrupt {
        /// The offending file.
        path: String,
        /// Parser/format detail.
        why: String,
    },
}

impl fmt::Display for LineageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineageError::Missing(p) => write!(f, "lineage file missing: {p}"),
            LineageError::NoProvenance(p) => write!(f, "no provenance recorded for {p}"),
            LineageError::Retired(p) => write!(f, "lineage depends on retired generation {p}"),
            LineageError::Lost(p) => write!(f, "all replicas of {p} were scrubbed as damaged"),
            LineageError::SizeMismatch {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{path}: on-disk {actual} bytes, ledger recorded {expected}"
            ),
            LineageError::ChecksumMismatch {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{path}: checksum {actual:#018x} != recorded {expected:#018x}"
            ),
            LineageError::Corrupt { path, why } => write!(f, "{path}: unparseable dump: {why}"),
        }
    }
}

impl std::error::Error for LineageError {}

/// Verify the full lineage of `path`: the dump itself plus every base
/// file its provenance leans on, transitively (engine dumps are
/// standalone; a coordinated MPI snapshot leans on its per-rank files). Each file must
/// exist, match its recorded on-disk size, parse under its recorded
/// format, and — when vault-committed — hash to the recorded FNV-64
/// (replicas included). A `coordinated` node is a composite (the path
/// is a prefix, not a file); only its per-rank bases carry bytes.
pub fn verify_lineage(
    cluster: &Cluster,
    node: NodeId,
    graph: &ProvenanceGraph,
    path: &str,
) -> Result<LineageReport, LineageError> {
    if graph.node(path).is_none() {
        return Err(LineageError::NoProvenance(path.to_string()));
    }
    let mut report = LineageReport::default();
    for p in graph.lineage(path) {
        verify_one(cluster, node, graph, &p, &mut report)?;
    }
    Ok(report)
}

/// Verify every live (not retired, not lost) head in the graph.
/// Retired generations are legitimately gone and are skipped as heads,
/// but a live lineage that *depends* on one still fails.
pub fn verify_all(
    cluster: &Cluster,
    node: NodeId,
    graph: &ProvenanceGraph,
) -> Result<LineageReport, LineageError> {
    let mut report = LineageReport::default();
    for dump in graph.nodes() {
        if dump.retired || dump.lost {
            continue;
        }
        for p in graph.lineage(&dump.path) {
            if report.checked.contains(&p) {
                continue;
            }
            verify_one(cluster, node, graph, &p, &mut report)?;
        }
    }
    Ok(report)
}

fn verify_one(
    cluster: &Cluster,
    node: NodeId,
    graph: &ProvenanceGraph,
    path: &str,
    report: &mut LineageReport,
) -> Result<(), LineageError> {
    let Some(dump) = graph.node(path) else {
        // A base committed before recording started: all we can ask is
        // that the bytes exist and parse as some checkpoint format.
        let bytes = cluster
            .peek_file_on(node, path)
            .ok_or_else(|| LineageError::Missing(path.to_string()))?;
        blcr::sniff_dump(bytes).map_err(|e| LineageError::Corrupt {
            path: path.to_string(),
            why: e.to_string(),
        })?;
        report.checked.push(path.to_string());
        report.bytes_verified += bytes.len();
        return Ok(());
    };
    if dump.retired {
        return Err(LineageError::Retired(path.to_string()));
    }
    if dump.lost {
        return Err(LineageError::Lost(path.to_string()));
    }
    if dump.format == "coordinated" {
        // Composite node: the path is a naming prefix; the bases are
        // the actual per-rank files and verify on their own.
        report.checked.push(path.to_string());
        return Ok(());
    }

    let bytes = cluster
        .peek_file_on(node, path)
        .ok_or_else(|| LineageError::Missing(path.to_string()))?;
    if bytes.len() != dump.file_bytes {
        return Err(LineageError::SizeMismatch {
            path: path.to_string(),
            expected: dump.file_bytes,
            actual: bytes.len(),
        });
    }
    match dump.format.as_str() {
        "sequential" | "streamed" => {
            let sniffed = blcr::sniff_dump(bytes).map_err(|e| LineageError::Corrupt {
                path: path.to_string(),
                why: e.to_string(),
            })?;
            if sniffed.is_streamed() != (dump.format == "streamed") {
                return Err(LineageError::Corrupt {
                    path: path.to_string(),
                    why: format!("on-disk format does not match recorded `{}`", dump.format),
                });
            }
        }
        // A vault-only node (no engine commit seen): length and
        // checksum are the whole contract.
        _ => {}
    }
    if let Some(expected) = dump.checksum {
        // The primary plus every replica must hold the committed
        // bytes; a scrub repair rewrites them, so a mismatch here is
        // out-of-band corruption the vault has not yet caught.
        let mut targets: Vec<&str> = vec![path];
        for r in &dump.replicas {
            if r != path && !targets.contains(&r.as_str()) {
                targets.push(r);
            }
        }
        for target in targets {
            let stored = cluster
                .peek_file_on(node, target)
                .ok_or_else(|| LineageError::Missing(target.to_string()))?;
            let actual = stored.fnv64();
            if actual != expected {
                return Err(LineageError::ChecksumMismatch {
                    path: target.to_string(),
                    expected,
                    actual,
                });
            }
            report.checksums_matched += 1;
        }
    }
    report.checked.push(path.to_string());
    report.bytes_verified += bytes.len();
    Ok(())
}

/// One fault/incident pairing from [`reconcile_faults`].
#[derive(Clone, Debug, PartialEq)]
pub struct FaultMatch {
    /// When the fault fired.
    pub fault_at: SimTime,
    /// The injected fault's stable name (`node_crash`, …).
    pub fault: String,
    /// When the supervisor opened the incident.
    pub incident_at: SimTime,
    /// The incident's heartbeat source (`node 3`, `proxy 17`, …).
    pub source: String,
}

/// How injected faults line up with supervisor incidents.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultReconciliation {
    /// Matched (fault, incident) pairs in time order.
    pub matched: Vec<FaultMatch>,
    /// Process faults no incident answered for.
    pub unmatched_faults: Vec<(SimTime, String)>,
    /// Incidents with no recorded fault behind them.
    pub unmatched_incidents: Vec<(SimTime, String)>,
}

impl FaultReconciliation {
    /// `true` when every process fault produced exactly one incident
    /// and every incident traces back to a fault.
    pub fn clean(&self) -> bool {
        self.unmatched_faults.is_empty() && self.unmatched_incidents.is_empty()
    }
}

/// Faults that kill a process or node and therefore must surface as a
/// supervisor incident (disk faults surface as checkpoint errors, not
/// heartbeat silence).
fn is_process_fault(name: &str) -> bool {
    matches!(name, "node_crash" | "proxy_death" | "pipe_break")
}

/// Pair every `fault_injected` process fault in `ledger` with the
/// first `incident_opened` at or after it, greedily in time order.
/// [`FaultReconciliation::clean`] holding means the fleet detected
/// everything thrown at it — the 1:1 accounting `checl_inspect`
/// prints.
pub fn reconcile_faults(ledger: &Ledger) -> FaultReconciliation {
    let mut faults: Vec<(SimTime, String)> = Vec::new();
    let mut incidents: Vec<(SimTime, String)> = Vec::new();
    for e in ledger.sorted() {
        match &e.kind {
            EventKind::FaultInjected { fault, .. } if is_process_fault(fault) => {
                faults.push((e.t, fault.clone()));
            }
            EventKind::IncidentOpened { source, .. } => {
                incidents.push((e.t, source.clone()));
            }
            _ => {}
        }
    }
    let mut out = FaultReconciliation::default();
    let mut next_incident = 0usize;
    for (fault_at, fault) in faults {
        // Skip incidents that predate this fault; they answer to an
        // earlier fault or to nothing.
        match incidents.get(next_incident) {
            Some((it, src)) if *it >= fault_at => {
                out.matched.push(FaultMatch {
                    fault_at,
                    fault,
                    incident_at: *it,
                    source: src.clone(),
                });
                next_incident += 1;
            }
            _ => out.unmatched_faults.push((fault_at, fault)),
        }
    }
    for (it, src) in incidents.into_iter().skip(next_incident) {
        out.unmatched_incidents.push((it, src));
    }
    out
}

/// The incident timeline `checl_inspect` renders: opened/closed pairs
/// in time order, zipped from the ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct IncidentRow {
    /// When the supervisor opened the incident.
    pub opened_at: SimTime,
    /// The failing heartbeat source.
    pub source: String,
    /// Work rolled back to the last checkpoint.
    pub wasted_ns: u64,
    /// Detection latency (silence before suspicion).
    pub detect_ns: u64,
    /// When it closed, if it did.
    pub closed_at: Option<SimTime>,
    /// Accounted downtime for this incident.
    pub downtime_ns: u64,
    /// Repair attempts the ladder spent.
    pub repairs: u64,
    /// `true` when the repair succeeded (vs escalated/abandoned).
    pub resolved: bool,
}

/// Zip `incident_opened`/`incident_closed` events into rows. The
/// supervisor opens and closes strictly sequentially, so pairing in
/// time order is exact.
pub fn incident_timeline(ledger: &Ledger) -> Vec<IncidentRow> {
    let mut rows: Vec<IncidentRow> = Vec::new();
    let mut open: Option<usize> = None;
    for e in ledger.sorted() {
        match &e.kind {
            EventKind::IncidentOpened {
                source,
                wasted_ns,
                detect_ns,
            } => {
                rows.push(IncidentRow {
                    opened_at: e.t,
                    source: source.clone(),
                    wasted_ns: *wasted_ns,
                    detect_ns: *detect_ns,
                    closed_at: None,
                    downtime_ns: 0,
                    repairs: 0,
                    resolved: false,
                });
                open = Some(rows.len() - 1);
            }
            EventKind::IncidentClosed {
                downtime_ns,
                repairs,
                resolved,
                ..
            } => {
                if let Some(i) = open.take() {
                    rows[i].closed_at = Some(e.t);
                    rows[i].downtime_ns = *downtime_ns;
                    rows[i].repairs = *repairs;
                    rows[i].resolved = *resolved != 0;
                }
            }
            _ => {}
        }
    }
    rows
}

/// The per-generation table `checl_inspect` renders, newest last.
pub fn generation_table(graph: &ProvenanceGraph) -> Vec<&simcore::obs::DumpNode> {
    let mut nodes: Vec<_> = graph.nodes().collect();
    nodes.sort_by_key(|n| (n.committed_at, n.path.clone()));
    nodes
}

/// One live generation's overlap accounting, folded from the ledger:
/// a `live_drain_completed` seal plus every `cow_forked` event that
/// preceded it since the previous seal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LiveOverlapRow {
    /// Committed dump path.
    pub path: String,
    /// When the drain sealed the file.
    pub sealed_at: SimTime,
    /// Buffers the consistent cut covered.
    pub buffers: u64,
    /// Application-visible stall: quiesce + cut + every COW fork.
    pub stall_ns: u64,
    /// Cut-to-seal wall time of the background drain.
    pub drain_ns: u64,
    /// `cow_forked` events behind this generation.
    pub forks: u64,
    /// 64 KiB-granular chunks those forks preserved.
    pub forked_chunks: u64,
    /// Bytes those forks preserved.
    pub forked_bytes: u64,
    /// Bytes the drain pulled from devices in the background.
    pub drained_bytes: u64,
    /// Sealed file size.
    pub file_bytes: u64,
}

impl LiveOverlapRow {
    /// Fraction of the generation's dump wall-clock the application
    /// did not have to wait for (0 when nothing overlapped).
    pub fn overlap_ratio(&self) -> f64 {
        if self.drain_ns == 0 {
            return 0.0;
        }
        1.0 - (self.stall_ns.min(self.drain_ns) as f64 / self.drain_ns as f64)
    }
}

/// Fold the live-checkpoint story out of a ledger: one row per sealed
/// generation, in seal order, each owning the COW forks that raced its
/// drain. The per-generation stall/drain split is what `checl_inspect`
/// renders as the "live overlap" section.
pub fn live_overlap(ledger: &Ledger) -> Vec<LiveOverlapRow> {
    let mut rows = Vec::new();
    let mut forks = 0u64;
    for e in ledger.sorted() {
        match &e.kind {
            EventKind::CowForked { .. } => forks += 1,
            EventKind::LiveDrainCompleted {
                path,
                buffers,
                forked_chunks,
                forked_bytes,
                drained_bytes,
                stall_ns,
                drain_ns,
                file_bytes,
            } => {
                rows.push(LiveOverlapRow {
                    path: path.clone(),
                    sealed_at: e.t,
                    buffers: *buffers,
                    stall_ns: *stall_ns,
                    drain_ns: *drain_ns,
                    forks,
                    forked_chunks: *forked_chunks,
                    forked_bytes: *forked_bytes,
                    drained_bytes: *drained_bytes,
                    file_bytes: *file_bytes,
                });
                forks = 0;
            }
            _ => {}
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boot::boot_checl;
    use crate::engine::{self, CprPolicy};
    use crate::runtime::{ChecLib, CheclConfig};
    use clspec::types::{DeviceType, MemFlags, QueueProps};
    use clspec::Ocl;
    use osproc::Pid;
    use simcore::obs;

    /// Boot a CheCL app holding one 64 KiB buffer.
    fn dirty_session() -> (Cluster, ChecLib, Pid) {
        let mut cluster = Cluster::with_standard_nodes(2);
        let node = cluster.node_ids()[0];
        let app = cluster.spawn(node);
        let mut booted = boot_checl(
            &mut cluster,
            app,
            cldriver::vendor::nimbus(),
            CheclConfig::default(),
        );
        let mut now = cluster.process(app).clock;
        {
            let mut ocl = Ocl::new(&mut booted.lib, &mut now);
            let p = ocl.get_platform_ids().unwrap();
            let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
            let ctx = ocl.create_context(&d).unwrap();
            let _q = ocl
                .create_command_queue(ctx, d[0], QueueProps::default())
                .unwrap();
            ocl.create_buffer(
                ctx,
                MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR,
                64 << 10,
                Some(vec![7u8; 64 << 10].into()),
            )
            .unwrap();
        }
        cluster.process_mut(app).clock = now;
        (cluster, booted.lib, app)
    }

    #[test]
    fn verifies_committed_chain_and_catches_corruption() {
        obs::start_recording();
        let (mut cluster, mut lib, pid) = dirty_session();
        let node = cluster.process(pid).node;
        let policy = CprPolicy::sequential();
        engine::snapshot(&mut lib, &mut cluster, pid, "/nfs/g0.ckpt", &policy).unwrap();
        engine::snapshot(&mut lib, &mut cluster, pid, "/nfs/g1.ckpt", &policy).unwrap();
        let recorded = obs::stop_recording().unwrap();
        // Engine dumps are standalone, so the deep lineage is built by
        // hand: replay the recorded events into a synthetic ledger whose
        // g1 leans on g0 — a real file and a real recorded size each.
        obs::start_recording();
        for e in recorded.events() {
            let mut kind = e.kind.clone();
            if let obs::EventKind::CheckpointCommitted { path, bases, .. } = &mut kind {
                if path == "/nfs/g1.ckpt" {
                    bases.push("/nfs/g0.ckpt".to_string());
                }
            }
            // Sequential engine dumps are the only records here.
            assert_eq!(e.component, "engine");
            obs::emit("engine", e.t, kind);
        }
        let ledger = obs::stop_recording().unwrap();
        let graph = ProvenanceGraph::from_ledger(&ledger);

        let report = verify_lineage(&cluster, node, &graph, "/nfs/g1.ckpt").unwrap();
        assert!(report.checked.contains(&"/nfs/g0.ckpt".to_string()));
        assert!(report.bytes_verified > 0);

        // Out-of-band truncation of the base must fail loudly.
        let bytes = cluster.peek_file_on(node, "/nfs/g0.ckpt").unwrap().to_vec();
        cluster
            .write_file(pid, "/nfs/g0.ckpt", bytes[..bytes.len() / 2].to_vec())
            .unwrap();
        let err = verify_lineage(&cluster, node, &graph, "/nfs/g1.ckpt").unwrap_err();
        assert!(matches!(err, LineageError::SizeMismatch { .. }), "{err}");
    }

    #[test]
    fn unknown_head_is_no_provenance() {
        let graph = ProvenanceGraph::default();
        let cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let err = verify_lineage(&cluster, node, &graph, "/nfs/nope.ckpt").unwrap_err();
        assert_eq!(err, LineageError::NoProvenance("/nfs/nope.ckpt".into()));
    }

    #[test]
    fn reconciles_faults_with_incidents() {
        use simcore::obs::EventKind;
        obs::start_recording();
        obs::emit(
            "fault",
            SimTime::from_nanos(10),
            EventKind::FaultInjected {
                fault: "proxy_death".into(),
                detail: String::new(),
            },
        );
        obs::emit(
            "fault",
            SimTime::from_nanos(15),
            EventKind::FaultInjected {
                fault: "disk_write_fail".into(),
                detail: String::new(),
            },
        );
        obs::emit(
            "supervisor",
            SimTime::from_nanos(20),
            EventKind::IncidentOpened {
                source: "proxy 4".into(),
                wasted_ns: 5,
                detect_ns: 1,
            },
        );
        obs::emit(
            "supervisor",
            SimTime::from_nanos(30),
            EventKind::IncidentClosed {
                source: "proxy 4".into(),
                downtime_ns: 9,
                repairs: 1,
                resolved: 1,
            },
        );
        let ledger = obs::stop_recording().unwrap();
        let rec = reconcile_faults(&ledger);
        assert!(rec.clean(), "{rec:?}");
        assert_eq!(rec.matched.len(), 1);
        assert_eq!(rec.matched[0].fault, "proxy_death");
        let rows = incident_timeline(&ledger);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].downtime_ns, 9);
        assert!(rows[0].resolved);
    }
}
