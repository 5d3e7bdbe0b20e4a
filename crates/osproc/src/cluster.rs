//! The cluster: nodes, mounted filesystems, and the process table.

use crate::fault::{FaultPlan, WriteFault};
use crate::fs::{FileBytes, Fs, FsError, FsKind};
use crate::ids::{FsId, NodeId, Pid};
use crate::process::{ProcState, Process, Signal};
use simcore::{ByteSize, SimDuration, SimTime};
use std::collections::BTreeMap;

/// A machine in the cluster.
#[derive(Clone, Debug)]
pub struct Node {
    /// Node id.
    pub id: NodeId,
    /// Host name (e.g. `"pc0"`).
    pub name: String,
    /// Mount table: mount point → filesystem. Longest-prefix match wins
    /// during path resolution.
    pub mounts: BTreeMap<String, FsId>,
}

impl Node {
    /// Resolve an absolute path to `(filesystem, path)` via the mount
    /// table.
    pub fn resolve(&self, path: &str) -> Option<(FsId, String)> {
        self.mounts
            .iter()
            .filter(|(mp, _)| path == *mp || path.starts_with(&format!("{mp}/")))
            .max_by_key(|(mp, _)| mp.len())
            .map(|(_, fs)| (*fs, path.to_string()))
    }
}

/// The whole simulated cluster.
///
/// Processes, nodes and filesystems are arena-allocated and addressed
/// by id so the simulation stays single-threaded and deterministic.
#[derive(Debug, Default)]
pub struct Cluster {
    nodes: Vec<Node>,
    filesystems: Vec<Fs>,
    processes: BTreeMap<Pid, Process>,
    next_pid: u32,
    /// Installed fault schedule, if any. `None` (the default) means the
    /// fault hooks are never consulted — zero cost when off.
    faults: Option<FaultPlan>,
}

/// Apply the fault plan's verdict on a write to the bytes about to be
/// stored. Offsets and lengths are logical, so a flip or a cut may land
/// in the run of zeros.
fn damage(data: &mut FileBytes, fault: WriteFault) {
    match fault {
        WriteFault::None | WriteFault::Fail => {}
        WriteFault::Short(n) => data.truncate(n as u64),
        WriteFault::Corrupt(flips) => {
            for (pos, mask) in flips {
                data.flip(pos as u64, mask);
            }
        }
    }
}

impl Cluster {
    /// An empty cluster.
    pub fn new() -> Self {
        Cluster::default()
    }

    /// Build the standard evaluation node layout of the paper: every
    /// node gets a local disk (`/local`) and a RAM disk (`/ram`), and
    /// all nodes share one NFS mount (`/nfs`).
    pub fn with_standard_nodes(n: usize) -> Self {
        let mut c = Cluster::new();
        let nfs = c.add_fs(Fs::new(FsKind::Nfs, "nfs-shared"));
        for i in 0..n {
            let node = c.add_node(format!("pc{i}"));
            let local = c.add_fs(Fs::new(FsKind::LocalDisk, format!("pc{i}-disk")));
            let ram = c.add_fs(Fs::new(FsKind::RamDisk, format!("pc{i}-ram")));
            c.mount(node, "/local", local);
            c.mount(node, "/ram", ram);
            c.mount(node, "/nfs", nfs);
        }
        c
    }

    /// Add a node.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            name: name.into(),
            mounts: BTreeMap::new(),
        });
        id
    }

    /// Add a filesystem instance.
    pub fn add_fs(&mut self, fs: Fs) -> FsId {
        let id = FsId(self.filesystems.len() as u32);
        self.filesystems.push(fs);
        id
    }

    /// Mount a filesystem on a node.
    pub fn mount(&mut self, node: NodeId, mount_point: &str, fs: FsId) {
        self.nodes[node.0 as usize]
            .mounts
            .insert(mount_point.to_string(), fs);
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// All node ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|n| n.id).collect()
    }

    /// Filesystem accessor.
    pub fn fs(&self, id: FsId) -> &Fs {
        &self.filesystems[id.0 as usize]
    }

    /// Spawn a fresh process on `node`.
    pub fn spawn(&mut self, node: NodeId) -> Pid {
        assert!(
            (node.0 as usize) < self.nodes.len(),
            "spawn on unknown node"
        );
        self.next_pid += 1;
        let pid = Pid(self.next_pid);
        self.processes.insert(pid, Process::new(pid, node, None));
        pid
    }

    /// Fork a child of `parent` on the same node. The child starts with
    /// an empty image (we model `fork` + `exec` of a helper binary, which
    /// is how CheCL launches its API proxy) and inherits the parent's
    /// clock plus the fork cost.
    pub fn fork(&mut self, parent: Pid, cost: SimDuration) -> Pid {
        let (node, clock) = {
            let p = self.process(parent);
            assert!(p.is_alive(), "fork from dead process");
            (p.node, p.clock)
        };
        self.next_pid += 1;
        let child = Pid(self.next_pid);
        let mut proc = Process::new(child, node, Some(parent));
        proc.clock = clock + cost;
        self.processes.insert(child, proc);
        let parent_proc = self.process_mut(parent);
        parent_proc.children.push(child);
        parent_proc.clock += cost;
        child
    }

    /// Process accessor. Panics on unknown pid (a simulation bug).
    pub fn process(&self, pid: Pid) -> &Process {
        self.processes
            .get(&pid)
            .unwrap_or_else(|| panic!("unknown {pid}"))
    }

    /// Mutable process accessor.
    pub fn process_mut(&mut self, pid: Pid) -> &mut Process {
        self.processes
            .get_mut(&pid)
            .unwrap_or_else(|| panic!("unknown {pid}"))
    }

    /// All pids, in creation order.
    pub fn pids(&self) -> Vec<Pid> {
        self.processes.keys().copied().collect()
    }

    /// Kill a process (and implicitly orphan its children).
    pub fn kill(&mut self, pid: Pid) {
        let p = self.process_mut(pid);
        if p.is_alive() {
            p.state = ProcState::Killed;
        }
    }

    /// Fail an entire node: every process running there is killed (the
    /// scenario CPR exists for — power loss, kernel panic, cooling
    /// failure on a commodity PC, §I of the paper). Files on the
    /// node's local mounts survive, as they would on disk.
    pub fn fail_node(&mut self, node: NodeId) {
        let victims: Vec<Pid> = self
            .processes
            .values()
            .filter(|p| p.node == node && p.is_alive())
            .map(|p| p.pid)
            .collect();
        for pid in victims {
            self.kill(pid);
        }
    }

    /// Mark a process exited.
    pub fn exit(&mut self, pid: Pid, code: i32) {
        let p = self.process_mut(pid);
        if p.is_alive() {
            p.state = ProcState::Exited(code);
        }
    }

    /// Deliver a signal to a process's pending queue.
    pub fn signal(&mut self, pid: Pid, sig: Signal) {
        let p = self.process_mut(pid);
        if p.is_alive() {
            p.pending_signals.push_back(sig);
        }
    }

    /// Install a fault schedule. Filesystem, node and process faults
    /// fire from here on; pass the plan built with
    /// [`FaultPlan`] combinators.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// The installed fault plan, if any (to inspect its log).
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Mutable access to the installed fault plan (the session layer
    /// polls process-fault schedules through this).
    pub fn faults_mut(&mut self) -> Option<&mut FaultPlan> {
        self.faults.as_mut()
    }

    /// Remove and return the installed fault plan.
    pub fn take_faults(&mut self) -> Option<FaultPlan> {
        self.faults.take()
    }

    /// Deliver node crashes scheduled at or before `now`, killing every
    /// process on the crashed nodes. Returns the nodes that failed.
    pub fn poll_faults(&mut self, now: SimTime) -> Vec<NodeId> {
        let due = match self.faults.as_mut() {
            Some(plan) => plan.due_node_crashes(now),
            None => return Vec::new(),
        };
        for node in &due {
            self.fail_node(*node);
        }
        due
    }

    /// Write a file at an absolute path as seen by `pid`, charging that
    /// process's clock. Returns the I/O cost.
    pub fn write_file(
        &mut self,
        pid: Pid,
        path: &str,
        data: impl Into<FileBytes>,
    ) -> Result<SimDuration, FsError> {
        let (fs_id, rel, mut clock) = self.resolve_for(pid, path)?;
        let kind = self.filesystems[fs_id.0 as usize].kind();
        let mut data = data.into();
        let fault = self.write_fault(pid, path, kind, clock, data.len())?;
        damage(&mut data, fault);
        let mut cost = self.filesystems[fs_id.0 as usize].write(&mut clock, &rel, data);
        if let Some(plan) = self.faults.as_mut() {
            // A browned-out mount still stores the bytes — it just
            // takes `100/percent` as long.
            let extra = plan.degradation_extra(kind, clock, cost);
            clock += extra;
            cost += extra;
        }
        self.process_mut(pid).clock = clock;
        Ok(cost)
    }

    /// Append `data` followed by `zero_tail` zeros to a file at an
    /// absolute path as seen by `pid`, charging that process's clock.
    /// Creates the file if absent. Each append goes through the same
    /// fault hooks as [`Cluster::write_file`], so an injected disk
    /// fault can hit any individual append of a streamed checkpoint.
    /// The bytes are copied only when a fault changes them.
    pub fn append_file(
        &mut self,
        pid: Pid,
        path: &str,
        data: &[u8],
        zero_tail: u64,
    ) -> Result<SimDuration, FsError> {
        let (fs_id, rel, mut clock) = self.resolve_for(pid, path)?;
        let kind = self.filesystems[fs_id.0 as usize].kind();
        let len = data.len() as u64 + zero_tail;
        let fault = self.write_fault(pid, path, kind, clock, len)?;
        let fs = &mut self.filesystems[fs_id.0 as usize];
        let mut cost = match fault {
            WriteFault::None => fs.append(&mut clock, &rel, data, zero_tail),
            fault => {
                let mut damaged = FileBytes::new(data.to_vec(), zero_tail);
                damage(&mut damaged, fault);
                fs.append(&mut clock, &rel, damaged.body(), damaged.zero_tail())
            }
        };
        if let Some(plan) = self.faults.as_mut() {
            let extra = plan.degradation_extra(kind, clock, cost);
            clock += extra;
            cost += extra;
        }
        self.process_mut(pid).clock = clock;
        Ok(cost)
    }

    /// Ask the fault plan about a write of `len` logical bytes to
    /// `path`. A refused write still pays the submission latency; it
    /// comes back as the error.
    fn write_fault(
        &mut self,
        pid: Pid,
        path: &str,
        kind: FsKind,
        clock: SimTime,
        len: u64,
    ) -> Result<WriteFault, FsError> {
        let Some(plan) = self.faults.as_mut() else {
            return Ok(WriteFault::None);
        };
        if plan.crash_due(clock) {
            return Err(FsError::WriteFailed(path.to_string()));
        }
        match plan.on_write(kind, path, clock, len as usize) {
            WriteFault::Fail => {
                self.process_mut(pid).clock = clock + kind.write_link().cost_empty();
                Err(FsError::WriteFailed(path.to_string()))
            }
            fault => Ok(fault),
        }
    }

    /// Read a file at an absolute path as seen by `pid`. The body is
    /// shared with the stored file, not copied.
    pub fn read_file(&mut self, pid: Pid, path: &str) -> Result<FileBytes, FsError> {
        let (fs_id, rel, mut clock) = self.resolve_for(pid, path)?;
        if let Some(plan) = self.faults.as_mut() {
            let kind = self.filesystems[fs_id.0 as usize].kind();
            if plan.on_read(kind, path, clock) {
                clock += kind.read_link().cost_empty();
                self.process_mut(pid).clock = clock;
                return Err(FsError::Unavailable(path.to_string()));
            }
        }
        let before = clock;
        let data = self.filesystems[fs_id.0 as usize].read(&mut clock, &rel)?;
        if let Some(plan) = self.faults.as_mut() {
            let kind = self.filesystems[fs_id.0 as usize].kind();
            clock += plan.degradation_extra(kind, clock, clock.since(before));
        }
        self.process_mut(pid).clock = clock;
        Ok(data)
    }

    /// Rename a file as seen by `pid`. Within one mount this is the
    /// cheap atomic commit; across mounts it degrades to copy + delete,
    /// paying full I/O costs but sharing the body. Rename itself is
    /// never fault-injected — it models POSIX `rename(2)`, which is
    /// atomic.
    pub fn rename_file(&mut self, pid: Pid, from: &str, to: &str) -> Result<(), FsError> {
        let (from_fs, from_rel, mut clock) = self.resolve_for(pid, from)?;
        let (to_fs, to_rel, _) = self.resolve_for(pid, to)?;
        if let Some(plan) = self.faults.as_mut() {
            // The torture gate only: rename is atomic and never
            // partially fault-injected, but a dead process renames
            // nothing.
            if plan.crash_due(clock) {
                return Err(FsError::WriteFailed(to.to_string()));
            }
        }
        if from_fs == to_fs {
            self.filesystems[from_fs.0 as usize].rename(&mut clock, &from_rel, &to_rel)?;
        } else {
            let data = self.filesystems[from_fs.0 as usize].read(&mut clock, &from_rel)?;
            self.filesystems[to_fs.0 as usize].write(&mut clock, &to_rel, data);
            self.filesystems[from_fs.0 as usize].delete(&mut clock, &from_rel)?;
        }
        self.process_mut(pid).clock = clock;
        Ok(())
    }

    /// Delete a file at an absolute path as seen by `pid`.
    pub fn delete_file(&mut self, pid: Pid, path: &str) -> Result<(), FsError> {
        let (fs_id, rel, mut clock) = self.resolve_for(pid, path)?;
        if let Some(plan) = self.faults.as_mut() {
            if plan.crash_due(clock) {
                return Err(FsError::WriteFailed(path.to_string()));
            }
        }
        self.filesystems[fs_id.0 as usize].delete(&mut clock, &rel)?;
        self.process_mut(pid).clock = clock;
        Ok(())
    }

    /// Size of a file at an absolute path as seen by any process on
    /// `node`.
    pub fn file_size_on(&self, node: NodeId, path: &str) -> Option<ByteSize> {
        let (fs_id, rel) = self.node(node.to_owned()).resolve(path)?;
        self.fs(fs_id).file_size(&rel)
    }

    /// Stored bytes of a file as seen from `node`, costing nothing in
    /// virtual time and bypassing fault hooks — an inspection helper
    /// for lineage verification and tests, not a modelled read.
    pub fn peek_file_on(&self, node: NodeId, path: &str) -> Option<&FileBytes> {
        let (fs_id, rel) = self.node(node).resolve(path)?;
        self.fs(fs_id).peek(&rel)
    }

    /// Every file path reachable from `node` through its mount table,
    /// sorted and de-duplicated. Costs nothing in virtual time — this
    /// is an inspection helper for tests and the supervisor's scrubber,
    /// not a modelled `readdir`.
    pub fn paths_on(&self, node: NodeId) -> Vec<String> {
        let mut out: Vec<String> = self
            .node(node)
            .mounts
            .values()
            .flat_map(|fs_id| self.fs(*fs_id).list())
            .map(|p| p.to_string())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    fn resolve_for(&self, pid: Pid, path: &str) -> Result<(FsId, String, SimTime), FsError> {
        let p = self.process(pid);
        let node = self.node(p.node);
        let (fs_id, rel) = node
            .resolve(path)
            .ok_or_else(|| FsError::NotFound(format!("{path} (no mount on {})", node.name)))?;
        Ok((fs_id, rel, p.clock))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_layout_shares_nfs() {
        let mut c = Cluster::with_standard_nodes(2);
        let nodes = c.node_ids();
        let p0 = c.spawn(nodes[0]);
        let p1 = c.spawn(nodes[1]);
        c.write_file(p0, "/nfs/global.ckpt", vec![42]).unwrap();
        // Visible from the other node through the shared mount.
        assert_eq!(
            c.read_file(p1, "/nfs/global.ckpt").unwrap().to_vec(),
            vec![42]
        );
        // Local disks are private.
        c.write_file(p0, "/local/x", vec![1]).unwrap();
        assert!(c.read_file(p1, "/local/x").is_err());
    }

    #[test]
    fn fork_links_parent_and_child() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let parent = c.spawn(n);
        let child = c.fork(parent, SimDuration::from_millis(80));
        assert_eq!(c.process(child).parent, Some(parent));
        assert_eq!(c.process(parent).children, vec![child]);
        // Both clocks advanced by the fork cost.
        assert_eq!(
            c.process(parent).clock,
            SimTime::ZERO + SimDuration::from_millis(80)
        );
        assert_eq!(c.process(child).clock, c.process(parent).clock);
    }

    #[test]
    fn kill_and_exit_change_state() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let a = c.spawn(n);
        let b = c.spawn(n);
        c.kill(a);
        c.exit(b, 0);
        assert_eq!(c.process(a).state, ProcState::Killed);
        assert_eq!(c.process(b).state, ProcState::Exited(0));
        assert!(!c.process(a).is_alive());
    }

    #[test]
    fn signals_reach_pending_queue() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        c.signal(p, Signal::Usr1);
        assert_eq!(c.process_mut(p).poll_signal(), Some(Signal::Usr1));
    }

    #[test]
    fn signals_to_dead_process_dropped() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        c.kill(p);
        c.signal(p, Signal::Usr1);
        assert_eq!(c.process_mut(p).poll_signal(), None);
    }

    #[test]
    fn io_charges_calling_process_clock() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        let before = c.process(p).clock;
        c.write_file(p, "/local/big", vec![0u8; 11_000_000])
            .unwrap();
        let after = c.process(p).clock;
        // 11 MB at 110 MB/s = 100 ms (+8 ms seek).
        let took = after.since(before).as_secs_f64();
        assert!((0.09..0.13).contains(&took), "write took {took}");
    }

    #[test]
    fn unknown_mount_is_an_error() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        assert!(c.write_file(p, "/does-not-exist/f", vec![1]).is_err());
    }

    #[test]
    fn longest_prefix_mount_wins() {
        let mut c = Cluster::new();
        let n = c.add_node("pc0");
        let outer = c.add_fs(Fs::new(FsKind::LocalDisk, "outer"));
        let inner = c.add_fs(Fs::new(FsKind::RamDisk, "inner"));
        c.mount(n, "/data", outer);
        c.mount(n, "/data/fast", inner);
        let (fs, _) = c.node(n).resolve("/data/fast/file").unwrap();
        assert_eq!(fs, inner);
        let (fs, _) = c.node(n).resolve("/data/slow/file").unwrap();
        assert_eq!(fs, outer);
        // Prefix match must respect path component boundaries.
        let (fs, _) = c.node(n).resolve("/data/fastfile").unwrap();
        assert_eq!(fs, outer);
    }

    #[test]
    fn node_failure_kills_only_that_node() {
        let mut c = Cluster::with_standard_nodes(2);
        let nodes = c.node_ids();
        let a = c.spawn(nodes[0]);
        let b = c.spawn(nodes[0]);
        let other = c.spawn(nodes[1]);
        c.write_file(a, "/local/survives", vec![1]).unwrap();
        c.fail_node(nodes[0]);
        assert!(!c.process(a).is_alive());
        assert!(!c.process(b).is_alive());
        assert!(c.process(other).is_alive());
        // Local disk contents survive the crash for post-mortem restart.
        let p2 = c.spawn(nodes[0]);
        assert_eq!(
            c.read_file(p2, "/local/survives").unwrap().to_vec(),
            vec![1]
        );
    }

    #[test]
    fn injected_write_failure_stores_nothing() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        c.install_faults(FaultPlan::new(1).fail_next_writes(1));
        let before = c.process(p).clock;
        assert!(matches!(
            c.write_file(p, "/local/f", vec![1, 2, 3]),
            Err(FsError::WriteFailed(_))
        ));
        // The failed attempt still cost time, but stored nothing.
        assert!(c.process(p).clock > before);
        assert!(matches!(
            c.read_file(p, "/local/f"),
            Err(FsError::NotFound(_))
        ));
        // The counter is spent; the retry goes through.
        c.write_file(p, "/local/f", vec![1, 2, 3]).unwrap();
        assert_eq!(c.read_file(p, "/local/f").unwrap().to_vec(), vec![1, 2, 3]);
        assert_eq!(c.faults().unwrap().log().len(), 1);
    }

    #[test]
    fn append_file_hits_fault_hooks_per_chunk() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        // First chunk lands clean; then arm a one-shot write failure so
        // the *second* append is the one that faults.
        c.append_file(p, "/local/stream", &[1, 2], 0).unwrap();
        c.install_faults(FaultPlan::new(7).fail_next_writes(1));
        assert!(matches!(
            c.append_file(p, "/local/stream", &[3, 4], 0),
            Err(FsError::WriteFailed(_))
        ));
        // The earlier chunk is still on disk (partial file; the caller
        // is responsible for discarding the tmp).
        assert_eq!(
            c.read_file(p, "/local/stream").unwrap().to_vec(),
            vec![1, 2]
        );
    }

    #[test]
    fn injected_corruption_mangles_stored_bytes() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        c.install_faults(FaultPlan::new(2).corrupt_next_writes(1));
        let data = vec![0u8; 64];
        c.write_file(p, "/ram/f", data.clone()).unwrap();
        assert_ne!(c.read_file(p, "/ram/f").unwrap().to_vec(), data);
    }

    #[test]
    fn scheduled_node_crash_fires_via_poll() {
        let mut c = Cluster::with_standard_nodes(2);
        let nodes = c.node_ids();
        let victim = c.spawn(nodes[0]);
        let other = c.spawn(nodes[1]);
        let at = SimTime::ZERO + SimDuration::from_secs(1);
        c.install_faults(FaultPlan::new(3).schedule_node_crash(at, nodes[0]));
        assert!(c.poll_faults(SimTime::ZERO).is_empty());
        assert!(c.process(victim).is_alive());
        assert_eq!(c.poll_faults(at), vec![nodes[0]]);
        assert!(!c.process(victim).is_alive());
        assert!(c.process(other).is_alive());
        // One-shot: already delivered.
        assert!(c.poll_faults(at + SimDuration::from_secs(1)).is_empty());
    }

    #[test]
    fn rename_commits_within_a_mount() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        c.write_file(p, "/local/ck.tmp", vec![9]).unwrap();
        c.rename_file(p, "/local/ck.tmp", "/local/ck").unwrap();
        assert_eq!(c.read_file(p, "/local/ck").unwrap().to_vec(), vec![9]);
        assert!(c.read_file(p, "/local/ck.tmp").is_err());
        // Cross-mount rename degrades to copy + delete.
        c.rename_file(p, "/local/ck", "/ram/ck").unwrap();
        assert_eq!(c.read_file(p, "/ram/ck").unwrap().to_vec(), vec![9]);
        assert!(c.read_file(p, "/local/ck").is_err());
    }

    #[test]
    fn reads_share_the_stored_body() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        // A committed dump of a 4 KiB image: body plus process baseline.
        let base = simcore::calib::base_process_image().as_u64();
        c.write_file(p, "/local/d.ckpt.tmp", FileBytes::new(vec![7; 4096], base))
            .unwrap();
        c.rename_file(p, "/local/d.ckpt.tmp", "/local/d.ckpt")
            .unwrap();
        let a = c.read_file(p, "/local/d.ckpt").unwrap();
        let b = c.read_file(p, "/local/d.ckpt").unwrap();
        assert_eq!(a.body().as_ptr(), b.body().as_ptr());
        assert!(a.body().len() < 64 << 10);
        assert!(a.len() >= base);
        // Copy + delete across mounts shares the body too.
        c.rename_file(p, "/local/d.ckpt", "/nfs/d.ckpt").unwrap();
        let moved = c.read_file(p, "/nfs/d.ckpt").unwrap();
        assert_eq!(a.body().as_ptr(), moved.body().as_ptr());
        assert_eq!(
            c.file_size_on(n, "/nfs/d.ckpt"),
            Some(ByteSize::bytes(a.len()))
        );
    }

    #[test]
    fn faults_on_appends_use_logical_offsets() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        c.append_file(p, "/local/s", &[1, 2], 0).unwrap();
        // A short write keeps 1 or 2 bytes of the body, or part of the
        // 1000 zeros.
        c.install_faults(FaultPlan::new(4).short_next_writes(1));
        c.append_file(p, "/local/s", &[3, 4], 1000).unwrap();
        let kept = c.read_file(p, "/local/s").unwrap();
        assert!(kept.len() < 2 + 2 + 1000);
        assert_eq!(&kept.to_vec()[..2], &[1, 2]);
        // Every flip of a corrupted append lands inside its logical
        // span, zeros included, and the length does not move.
        c.install_faults(FaultPlan::new(9).corrupt_next_writes(1));
        c.write_file(p, "/local/z", FileBytes::new(vec![], 1 << 20))
            .unwrap();
        let z = c.read_file(p, "/local/z").unwrap();
        assert_eq!(z.len(), 1 << 20);
        assert_ne!(z, FileBytes::new(vec![], 1 << 20));
    }

    #[test]
    fn file_size_on_node() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        c.write_file(p, "/ram/ckpt", vec![0u8; 123]).unwrap();
        assert_eq!(c.file_size_on(n, "/ram/ckpt"), Some(ByteSize::bytes(123)));
        assert_eq!(c.file_size_on(n, "/ram/none"), None);
    }
}
