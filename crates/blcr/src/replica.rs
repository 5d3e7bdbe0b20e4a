//! Replicated checkpoint storage: generations, mirrors, scrubbing, GC.
//!
//! A single committed dump is one disk failure away from worthless. The
//! supervision layer therefore stores every checkpoint as a
//! *generation* with two replicas — a **primary** (typically the fast
//! local disk of Table I) and a **mirror** on an independent mount
//! (typically the shared NFS export, which survives a node crash). A
//! [`DumpVault`] tracks the generations and offers:
//!
//! * [`DumpVault::commit`] — hash the freshly staged primary dump and
//!   copy it to the mirror, then garbage-collect generations beyond the
//!   retention budget;
//! * [`DumpVault::scrub`] — re-read every retained replica, compare it
//!   against the committed FNV-64, and repair a corrupt or missing
//!   replica from its healthy sibling (this is what re-seeds a spare
//!   node's local disk after a failover);
//! * [`DumpVault::restore_chain`] — a newest-first path list, primary
//!   before mirror, ready for the restore engine's chain walker
//!   (`checl::restart_checl_chain`).
//!
//! Every vault action is one `"vault"` record ([`obs::EventKind`]): a
//! ledger entry, and in a trace an instant.

use osproc::{Cluster, FsError, Pid};
use simcore::{obs, ByteSize};

/// One retained checkpoint generation and its two replicas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Generation {
    /// Monotonic generation number (never reused).
    pub gen: u64,
    /// Primary replica path (fast, node-local).
    pub primary: String,
    /// Mirror replica path (independent mount, crash-surviving).
    pub mirror: String,
    /// Committed size in bytes.
    pub size: ByteSize,
    /// FNV-64 of the committed bytes; scrubbing re-verifies against it.
    pub hash: u64,
}

/// Why a fenced commit was refused.
///
/// [`DumpVault::commit_fenced`] distinguishes a writer that lost the
/// fencing race (its epoch is stale — a healed partition or a respawned
/// predecessor) from a plain filesystem failure, because the two demand
/// opposite reactions: a fenced writer must *stop* (someone else owns
/// the vault now), a failed write should be retried.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitError {
    /// The writer presented a stale fencing epoch. Its staged dump was
    /// deleted (no orphan tmp file survives the fence).
    Fenced {
        /// Epoch the writer held when it staged the dump.
        held: u64,
        /// Epoch the vault is currently on.
        current: u64,
    },
    /// An ordinary filesystem error while sealing the generation.
    Fs(FsError),
}

impl From<FsError> for CommitError {
    fn from(e: FsError) -> CommitError {
        CommitError::Fs(e)
    }
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::Fenced { held, current } => {
                write!(f, "writer fenced: held epoch {held}, vault at {current}")
            }
            CommitError::Fs(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CommitError {}

/// What one [`DumpVault::scrub`] pass found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Replicas that read back bit-identical to their committed hash.
    pub verified: u32,
    /// Replicas rewritten from their healthy sibling.
    pub repaired: u32,
    /// Generations with *no* healthy replica left (dropped from the
    /// vault — restoring from them would be silent corruption).
    pub lost: u32,
}

/// Replicated, generation-addressed checkpoint storage.
#[derive(Clone, Debug)]
pub struct DumpVault {
    primary_base: String,
    mirror_base: String,
    keep: usize,
    next_gen: u64,
    /// Fencing epoch: bumped on every failover so a writer from before
    /// the failover (a healed partition's stale supervisor) can be told
    /// apart from the current one at commit time.
    epoch: u64,
    generations: Vec<Generation>,
}

impl DumpVault {
    /// A vault writing primaries as `<primary_base>.gen<N>.ckpt` and
    /// mirrors as `<mirror_base>.gen<N>.ckpt`, retaining the newest
    /// `keep` generations. The two bases should live on independent
    /// mounts (e.g. `/local/app` and `/nfs/app`) or the mirror buys
    /// nothing.
    pub fn new(primary_base: &str, mirror_base: &str, keep: usize) -> DumpVault {
        assert!(keep >= 1, "a vault keeping zero generations is a /dev/null");
        DumpVault {
            primary_base: primary_base.to_string(),
            mirror_base: mirror_base.to_string(),
            keep,
            next_gen: 0,
            epoch: 0,
            generations: Vec::new(),
        }
    }

    /// Where the *next* generation's primary dump must be written. The
    /// caller stages the checkpoint there (through whatever engine and
    /// recovery policy it likes) and then calls [`DumpVault::commit`].
    pub fn stage_path(&self) -> String {
        format!("{}.gen{}.ckpt", self.primary_base, self.next_gen)
    }

    /// Retention budget.
    pub fn keep(&self) -> usize {
        self.keep
    }

    /// The current fencing epoch. A writer records this when it starts
    /// staging a dump and presents it to [`DumpVault::commit_fenced`];
    /// a failover in between (which bumps the epoch) fences it out.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Bump the fencing epoch — called on failover, *before* the
    /// replacement writer starts. Any dump staged under the old epoch
    /// is now fenced: [`DumpVault::commit_fenced`] refuses it and
    /// deletes the staged file, so a partition that heals after the
    /// failover cannot double-commit a generation. Returns the new
    /// epoch.
    pub fn advance_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// All retained generations, oldest first.
    pub fn generations(&self) -> &[Generation] {
        &self.generations
    }

    /// The newest retained generation.
    pub fn latest(&self) -> Option<&Generation> {
        self.generations.last()
    }

    /// Newest-first replica paths (primary before mirror per
    /// generation) — the input shape of the engine's chain restore
    /// (`checl::restart_checl_chain`).
    pub fn restore_chain(&self) -> Vec<String> {
        let mut chain = Vec::with_capacity(self.generations.len() * 2);
        for g in self.generations.iter().rev() {
            chain.push(g.primary.clone());
            chain.push(g.mirror.clone());
        }
        chain
    }

    /// [`DumpVault::restore_chain`] with a quorum read: each replica is
    /// read back (charging `pid` the read time) and verified against
    /// the generation's committed hash, and only healthy replicas enter
    /// the chain — a replica silently corrupted during a brownout is
    /// skipped instead of poisoning the restore. A generation with *no*
    /// replica verifying falls back to both paths, unverified: the
    /// chain walker's own failure handling decides, which is no worse
    /// than [`DumpVault::restore_chain`].
    ///
    /// Costs one read per replica, so it is opt-in (supervision enables
    /// it under degraded-channel FaultPlans via `quorum_restore`).
    pub fn verified_chain(&self, cluster: &mut Cluster, pid: Pid) -> Vec<String> {
        let mut chain = Vec::with_capacity(self.generations.len() * 2);
        for g in self.generations.iter().rev() {
            let mut healthy = 0usize;
            for path in [&g.primary, &g.mirror] {
                if Self::replica_healthy(cluster, pid, path, g.hash) {
                    chain.push(path.clone());
                    healthy += 1;
                }
            }
            if healthy == 0 {
                chain.push(g.primary.clone());
                chain.push(g.mirror.clone());
            }
        }
        chain
    }

    /// Seal the dump staged at [`DumpVault::stage_path`] into a
    /// generation: read it back (charging `pid`), record its hash, copy
    /// it to the mirror, and garbage-collect generations beyond the
    /// retention budget. Returns the new generation.
    pub fn commit(&mut self, cluster: &mut Cluster, pid: Pid) -> Result<Generation, FsError> {
        self.commit_at(cluster, pid, &self.stage_path())
    }

    /// [`DumpVault::commit`] for a dump that landed somewhere other
    /// than the staged path — e.g. a commit-hardened snapshot that fell
    /// through to a fallback target. The actual `primary` path is
    /// recorded as the generation's primary replica.
    pub fn commit_at(
        &mut self,
        cluster: &mut Cluster,
        pid: Pid,
        primary: &str,
    ) -> Result<Generation, FsError> {
        let primary = primary.to_string();
        let mirror = format!("{}.gen{}.ckpt", self.mirror_base, self.next_gen);
        let bytes = cluster.read_file(pid, &primary)?;
        let size = ByteSize::bytes(bytes.len());
        let hash = bytes.fnv64();
        cluster.write_file(pid, &mirror, bytes)?;
        let generation = Generation {
            gen: self.next_gen,
            primary,
            mirror,
            size,
            hash,
        };
        obs::emit(
            "vault",
            cluster.process(pid).clock,
            obs::EventKind::GenerationCommitted {
                generation: generation.gen,
                path: generation.primary.clone(),
                bytes: size.as_u64(),
                checksum: hash,
                replicas: vec![generation.primary.clone(), generation.mirror.clone()],
            },
        );
        self.generations.push(generation.clone());
        self.next_gen += 1;
        self.gc(cluster, pid);
        Ok(generation)
    }

    /// [`DumpVault::commit_at`] guarded by a fencing epoch: the writer
    /// presents the epoch it held when it *started* staging the dump.
    /// If a failover advanced the vault's epoch in the meantime, the
    /// commit is refused, the staged file is deleted (no orphan for a
    /// later restore to trip over), and a `writer_fenced` obs event is
    /// emitted — this is what stops a healed partition's stale
    /// supervisor from double-committing a generation.
    pub fn commit_fenced(
        &mut self,
        cluster: &mut Cluster,
        pid: Pid,
        primary: &str,
        held_epoch: u64,
    ) -> Result<Generation, CommitError> {
        if held_epoch != self.epoch {
            let _ = cluster.delete_file(pid, primary);
            obs::emit(
                "vault",
                cluster.process(pid).clock,
                obs::EventKind::WriterFenced {
                    generation: self.next_gen,
                    held_epoch,
                    current_epoch: self.epoch,
                    path: primary.to_string(),
                },
            );
            return Err(CommitError::Fenced {
                held: held_epoch,
                current: self.epoch,
            });
        }
        Ok(self.commit_at(cluster, pid, primary)?)
    }

    /// Drop generations beyond the retention budget, deleting their
    /// replicas (best-effort: a replica on an unreachable mount is
    /// simply left for a later pass).
    fn gc(&mut self, cluster: &mut Cluster, pid: Pid) {
        while self.generations.len() > self.keep {
            let g = self.generations.remove(0);
            let _ = cluster.delete_file(pid, &g.primary);
            let _ = cluster.delete_file(pid, &g.mirror);
            obs::emit(
                "vault",
                cluster.process(pid).clock,
                obs::EventKind::GenerationRetired {
                    generation: g.gen,
                    path: g.primary.clone(),
                },
            );
        }
    }

    /// Re-verify every retained replica against its committed hash and
    /// repair corrupt or missing replicas from their healthy sibling. A
    /// generation whose replicas are *both* bad is dropped from the
    /// vault and counted as lost.
    pub fn scrub(&mut self, cluster: &mut Cluster, pid: Pid) -> ScrubReport {
        self.scrub_budgeted(cluster, pid, usize::MAX).0
    }

    /// [`DumpVault::scrub`] under a generation budget: verify at most
    /// `budget` generations, newest first (those are the restore
    /// targets), and leave the rest untouched for a later, healthier
    /// pass. Returns the report and how many generations were skipped.
    /// Under a degraded channel every scrub read pays the brownout tax,
    /// so supervision trims the budget rather than stalling the app
    /// behind a full vault re-read.
    pub fn scrub_budgeted(
        &mut self,
        cluster: &mut Cluster,
        pid: Pid,
        budget: usize,
    ) -> (ScrubReport, usize) {
        let mut report = ScrubReport::default();
        let gens = std::mem::take(&mut self.generations);
        // Generations are stored oldest-first: skipping the first
        // `len - budget` scrubs exactly the newest `budget`.
        let skipped = gens.len().saturating_sub(budget);
        let mut kept = Vec::with_capacity(gens.len());
        for (i, g) in gens.into_iter().enumerate() {
            if i < skipped {
                kept.push(g);
                continue;
            }
            if let Some(g) = self.scrub_generation(cluster, pid, g, &mut report) {
                kept.push(g);
            }
        }
        self.generations = kept;
        (report, skipped)
    }

    /// Scrub one generation: verify both replicas, repair from the
    /// healthy sibling, or drop the generation if both are bad.
    /// Returns the generation if it survives.
    fn scrub_generation(
        &mut self,
        cluster: &mut Cluster,
        pid: Pid,
        g: Generation,
        report: &mut ScrubReport,
    ) -> Option<Generation> {
        {
            let primary_ok = Self::replica_healthy(cluster, pid, &g.primary, g.hash);
            let mirror_ok = Self::replica_healthy(cluster, pid, &g.mirror, g.hash);
            let verified = primary_ok as u64 + mirror_ok as u64;
            match (primary_ok, mirror_ok) {
                (true, true) => report.verified += 2,
                (true, false) => {
                    report.verified += 1;
                    if Self::repair(cluster, pid, &g.primary, &g.mirror, g.hash) {
                        report.repaired += 1;
                        obs::emit(
                            "vault",
                            cluster.process(pid).clock,
                            obs::EventKind::ReplicaRepaired {
                                generation: g.gen,
                                path: g.primary.clone(),
                                replica: g.mirror.clone(),
                            },
                        );
                    }
                }
                (false, true) => {
                    report.verified += 1;
                    if Self::repair(cluster, pid, &g.mirror, &g.primary, g.hash) {
                        report.repaired += 1;
                        obs::emit(
                            "vault",
                            cluster.process(pid).clock,
                            obs::EventKind::ReplicaRepaired {
                                generation: g.gen,
                                path: g.primary.clone(),
                                replica: g.primary.clone(),
                            },
                        );
                    }
                }
                (false, false) => {
                    let _ = cluster.delete_file(pid, &g.primary);
                    let _ = cluster.delete_file(pid, &g.mirror);
                    report.lost += 1;
                    obs::emit(
                        "vault",
                        cluster.process(pid).clock,
                        obs::EventKind::ReplicaLost {
                            generation: g.gen,
                            path: g.primary.clone(),
                        },
                    );
                    return None;
                }
            }
            obs::emit(
                "vault",
                cluster.process(pid).clock,
                obs::EventKind::ReplicaScrubbed {
                    generation: g.gen,
                    path: g.primary.clone(),
                    verified,
                },
            );
        }
        Some(g)
    }

    /// `true` if the replica at `path` reads back with the committed
    /// hash.
    fn replica_healthy(cluster: &mut Cluster, pid: Pid, path: &str, hash: u64) -> bool {
        matches!(cluster.read_file(pid, path), Ok(bytes) if bytes.fnv64() == hash)
    }

    /// Rewrite the replica at `to` from the healthy copy at `from`,
    /// verifying the round trip. `false` if the repair itself failed
    /// (e.g. an injected write fault) — the generation stays, a later
    /// scrub retries.
    fn repair(cluster: &mut Cluster, pid: Pid, from: &str, to: &str, hash: u64) -> bool {
        let Ok(bytes) = cluster.read_file(pid, from) else {
            return false;
        };
        if cluster.write_file(pid, to, bytes).is_err() {
            return false;
        }
        if !Self::replica_healthy(cluster, pid, to, hash) {
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osproc::{Cluster, FaultPlan};

    fn one_node() -> (Cluster, Pid) {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        (c, p)
    }

    fn stage(c: &mut Cluster, p: Pid, vault: &DumpVault, fill: u8) {
        c.write_file(p, &vault.stage_path(), vec![fill; 256])
            .unwrap();
    }

    #[test]
    fn commit_mirrors_and_gc_retains_k() {
        let (mut c, p) = one_node();
        let mut vault = DumpVault::new("/local/app", "/nfs/app", 2);
        for i in 0..4u8 {
            stage(&mut c, p, &vault, i);
            let g = vault.commit(&mut c, p).unwrap();
            assert_eq!(g.gen, i as u64);
            // The mirror is byte-identical to the primary.
            assert_eq!(
                c.read_file(p, &g.primary).unwrap(),
                c.read_file(p, &g.mirror).unwrap()
            );
        }
        assert_eq!(vault.generations().len(), 2);
        let gens: Vec<u64> = vault.generations().iter().map(|g| g.gen).collect();
        assert_eq!(gens, vec![2, 3]);
        // GC really deleted the old replicas.
        assert!(c.read_file(p, "/local/app.gen0.ckpt").is_err());
        assert!(c.read_file(p, "/nfs/app.gen0.ckpt").is_err());
        // Chain is newest-first, primary before mirror.
        assert_eq!(
            vault.restore_chain(),
            vec![
                "/local/app.gen3.ckpt",
                "/nfs/app.gen3.ckpt",
                "/local/app.gen2.ckpt",
                "/nfs/app.gen2.ckpt",
            ]
        );
    }

    #[test]
    fn scrub_repairs_a_corrupt_primary_from_the_mirror() {
        let (mut c, p) = one_node();
        let mut vault = DumpVault::new("/local/app", "/nfs/app", 3);
        stage(&mut c, p, &vault, 7);
        let g = vault.commit(&mut c, p).unwrap();
        // Corrupt the primary behind the vault's back.
        c.write_file(p, &g.primary, vec![0xFF; 256]).unwrap();
        let report = vault.scrub(&mut c, p);
        assert_eq!(
            report,
            ScrubReport {
                verified: 1,
                repaired: 1,
                lost: 0
            }
        );
        // Repaired primary reads back with the committed content.
        assert_eq!(c.read_file(p, &g.primary).unwrap().to_vec(), vec![7u8; 256]);
        // A second pass is all-green.
        let report = vault.scrub(&mut c, p);
        assert_eq!(
            report,
            ScrubReport {
                verified: 2,
                repaired: 0,
                lost: 0
            }
        );
    }

    #[test]
    fn scrub_restores_a_missing_primary_after_node_loss() {
        // A spare node inherits the vault: its /local is empty, only the
        // NFS mirror survived. Scrubbing re-seeds the local replica.
        let mut c = Cluster::with_standard_nodes(2);
        let nodes = c.node_ids();
        let p0 = c.spawn(nodes[0]);
        let mut vault = DumpVault::new("/local/app", "/nfs/app", 3);
        stage(&mut c, p0, &vault, 3);
        vault.commit(&mut c, p0).unwrap();
        c.fail_node(nodes[0]);
        let spare = c.spawn(nodes[1]);
        let report = vault.scrub(&mut c, spare);
        assert_eq!(
            report,
            ScrubReport {
                verified: 1,
                repaired: 1,
                lost: 0
            }
        );
        assert_eq!(
            c.read_file(spare, "/local/app.gen0.ckpt").unwrap().to_vec(),
            vec![3u8; 256]
        );
    }

    #[test]
    fn scrub_drops_a_generation_with_no_healthy_replica() {
        let (mut c, p) = one_node();
        let mut vault = DumpVault::new("/local/app", "/ram/app", 3);
        stage(&mut c, p, &vault, 1);
        let g0 = vault.commit(&mut c, p).unwrap();
        stage(&mut c, p, &vault, 2);
        vault.commit(&mut c, p).unwrap();
        c.write_file(p, &g0.primary, vec![9; 8]).unwrap();
        c.write_file(p, &g0.mirror, vec![9; 8]).unwrap();
        let report = vault.scrub(&mut c, p);
        assert_eq!(
            report,
            ScrubReport {
                verified: 2,
                repaired: 0,
                lost: 1
            }
        );
        assert_eq!(vault.generations().len(), 1);
        assert_eq!(vault.latest().unwrap().gen, 1);
    }

    #[test]
    fn fenced_commit_is_refused_and_leaves_no_orphan() {
        let (mut c, p) = one_node();
        let mut vault = DumpVault::new("/local/app", "/nfs/app", 3);
        // A writer records the epoch, stages a dump... and a failover
        // bumps the epoch before it can commit.
        let held = vault.epoch();
        let staged = vault.stage_path();
        stage(&mut c, p, &vault, 1);
        assert_eq!(vault.advance_epoch(), held + 1);
        let err = vault.commit_fenced(&mut c, p, &staged, held).unwrap_err();
        assert_eq!(
            err,
            CommitError::Fenced {
                held,
                current: held + 1
            }
        );
        // The staged dump was deleted — no orphan tmp file.
        assert!(c.read_file(p, &staged).is_err());
        assert!(vault.generations().is_empty(), "nothing committed");
        // The current-epoch writer commits the same generation fine.
        stage(&mut c, p, &vault, 2);
        let g = vault
            .commit_fenced(&mut c, p, &staged, vault.epoch())
            .unwrap();
        assert_eq!(g.gen, 0, "generation number was never burned");
    }

    #[test]
    fn verified_chain_skips_a_silently_corrupt_replica() {
        let (mut c, p) = one_node();
        let mut vault = DumpVault::new("/local/app", "/nfs/app", 3);
        stage(&mut c, p, &vault, 4);
        let g0 = vault.commit(&mut c, p).unwrap();
        stage(&mut c, p, &vault, 5);
        let g1 = vault.commit(&mut c, p).unwrap();
        // Brownout bit-rot on the newest primary.
        c.write_file(p, &g1.primary, vec![0xEE; 256]).unwrap();
        assert_eq!(
            vault.verified_chain(&mut c, p),
            vec![g1.mirror.clone(), g0.primary.clone(), g0.mirror.clone()],
            "the corrupt primary must not lead the chain"
        );
        // Both replicas of gen0 corrupt: fall back to the plain pair.
        c.write_file(p, &g0.primary, vec![1; 4]).unwrap();
        c.write_file(p, &g0.mirror, vec![2; 4]).unwrap();
        assert_eq!(
            vault.verified_chain(&mut c, p),
            vec![g1.mirror, g0.primary, g0.mirror]
        );
    }

    #[test]
    fn budgeted_scrub_verifies_newest_first_and_reports_skips() {
        let (mut c, p) = one_node();
        let mut vault = DumpVault::new("/local/app", "/nfs/app", 3);
        for i in 0..3u8 {
            stage(&mut c, p, &vault, i);
            vault.commit(&mut c, p).unwrap();
        }
        // Corrupt the oldest primary: a budget of 2 must not see it.
        let oldest = vault.generations()[0].clone();
        c.write_file(p, &oldest.primary, vec![9; 4]).unwrap();
        let (report, skipped) = vault.scrub_budgeted(&mut c, p, 2);
        assert_eq!(skipped, 1);
        assert_eq!(
            report,
            ScrubReport {
                verified: 4,
                repaired: 0,
                lost: 0
            }
        );
        assert_eq!(vault.generations().len(), 3, "skipped gen untouched");
        // An unbudgeted pass finds and repairs it.
        let report = vault.scrub(&mut c, p);
        assert_eq!(
            report,
            ScrubReport {
                verified: 5,
                repaired: 1,
                lost: 0
            }
        );
    }

    #[test]
    fn failed_repair_keeps_the_generation_for_a_later_pass() {
        let (mut c, p) = one_node();
        let mut vault = DumpVault::new("/local/app", "/nfs/app", 3);
        stage(&mut c, p, &vault, 5);
        let g = vault.commit(&mut c, p).unwrap();
        c.write_file(p, &g.primary, vec![0; 4]).unwrap();
        // Every repair write to /local fails.
        c.install_faults(
            FaultPlan::new(21)
                .fail_next_writes(u32::MAX)
                .only_paths_containing("/local/"),
        );
        let report = vault.scrub(&mut c, p);
        assert_eq!(
            report,
            ScrubReport {
                verified: 1,
                repaired: 0,
                lost: 0
            }
        );
        assert_eq!(vault.generations().len(), 1, "generation must survive");
        // Faults lifted: the next pass completes the repair.
        c.take_faults();
        let report = vault.scrub(&mut c, p);
        assert_eq!(
            report,
            ScrubReport {
                verified: 1,
                repaired: 1,
                lost: 0
            }
        );
    }
}
