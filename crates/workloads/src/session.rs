//! Sessions: a workload running in a simulated process, natively or
//! under CheCL, with checkpoint/restart/migration plumbing.
//!
//! The session owns the pieces a real OS would keep implicitly — the
//! process, the loaded `libOpenCL` implementation, and the running
//! program — and keeps the process clock in the cluster coherent with
//! the interpreter.

use crate::script::{AppProgram, RunStatus, Script, StopCondition};
use checl::cpr::{CheclCprError, RestoreTarget};
use checl::migrate::MigrationReport;
use checl::{boot_checl, ChecLib, CheclConfig, CprPolicy, SnapshotOutcome};
use cldriver::{Driver, VendorConfig};
use clspec::api::ClApi;
use clspec::error::ClResult;
use osproc::{Cluster, MemImage, NodeId, Pid};
use simcore::codec::Codec;
use simcore::{telemetry, SimDuration, SimTime};

/// Image segment holding the serialized application state (script, pc,
/// registers, checksums) — the part of "host memory" the interpreter
/// owns.
pub const APP_SEGMENT: &str = "app-state";

/// Decode the application state a dumped or restored process image
/// carries in [`APP_SEGMENT`].
fn program_from_image(image: &MemImage) -> Result<AppProgram, CheclCprError> {
    let bytes = image.get(APP_SEGMENT).ok_or(CheclCprError::MissingState)?;
    AppProgram::from_bytes(bytes).map_err(CheclCprError::BadState)
}

/// Read the dump at `path` as `pid` and decode the application state it
/// carries — the host-side half of an in-place rollback, whose device
/// side came back through the object graph of the same generation.
pub(crate) fn program_from_dump(
    cluster: &mut Cluster,
    pid: Pid,
    path: &str,
) -> Result<AppProgram, CheclCprError> {
    let bytes = cluster
        .read_file(pid, path)
        .map_err(|e| CheclCprError::Cpr(blcr::CprError::Fs(e)))?;
    let dump =
        blcr::sniff_dump(&bytes).map_err(|e| CheclCprError::Cpr(blcr::CprError::Corrupt(e)))?;
    program_from_image(dump.image())
}

/// A workload linked directly against a vendor driver (no CheCL).
pub struct NativeSession {
    /// The application process.
    pub pid: Pid,
    /// The vendor driver, loaded *in the application process* — which
    /// is what makes the process uncheckpointable.
    pub driver: Driver,
    /// The running program.
    pub program: AppProgram,
}

impl NativeSession {
    /// Launch a script natively on `node`.
    pub fn launch(
        cluster: &mut Cluster,
        node: NodeId,
        vendor: VendorConfig,
        script: Script,
    ) -> NativeSession {
        let pid = cluster.spawn(node);
        let driver = checl::boot::boot_native(cluster, pid, vendor);
        NativeSession {
            pid,
            driver,
            program: AppProgram::new(script),
        }
    }

    /// Run until `stop`, keeping the cluster clock coherent.
    pub fn run(&mut self, cluster: &mut Cluster, stop: StopCondition) -> ClResult<RunStatus> {
        let _track = telemetry::track_scope(telemetry::Track::process(self.pid.0 as u64));
        let mut now = cluster.process(self.pid).clock;
        let status = self.program.run_until(&mut self.driver, &mut now, stop);
        cluster.process_mut(self.pid).clock = now;
        status
    }

    /// Virtual time elapsed since process start.
    pub fn elapsed(&self, cluster: &Cluster) -> SimDuration {
        cluster.process(self.pid).clock.since(SimTime::ZERO)
    }
}

/// A workload transparently linked against CheCL.
pub struct CheclSession {
    /// The application process.
    pub pid: Pid,
    /// The CheCL shim (proxy + object database).
    pub lib: ChecLib,
    /// The running program — identical to the native case; the program
    /// cannot tell which library it is linked against.
    pub program: AppProgram,
}

impl CheclSession {
    /// Launch a script under CheCL on `node`.
    pub fn launch(
        cluster: &mut Cluster,
        node: NodeId,
        vendor: VendorConfig,
        config: CheclConfig,
        script: Script,
    ) -> CheclSession {
        let pid = cluster.spawn(node);
        Self::attach(cluster, pid, vendor, config, script)
    }

    /// Bind a script to an *existing* process (e.g. an MPI rank).
    pub fn attach(
        cluster: &mut Cluster,
        pid: Pid,
        vendor: VendorConfig,
        config: CheclConfig,
        script: Script,
    ) -> CheclSession {
        let booted = boot_checl(cluster, pid, vendor, config);
        CheclSession {
            pid,
            lib: booted.lib,
            program: AppProgram::new(script),
        }
    }

    /// Run until `stop`, keeping the cluster clock coherent.
    pub fn run(&mut self, cluster: &mut Cluster, stop: StopCondition) -> ClResult<RunStatus> {
        let _track = telemetry::track_scope(telemetry::Track::process(self.pid.0 as u64));
        let mut now = cluster.process(self.pid).clock;
        let status = self.program.run_until(&mut self.lib, &mut now, stop);
        cluster.process_mut(self.pid).clock = now;
        status
    }

    /// Execute one op on this process's telemetry track, keeping the
    /// cluster clock coherent. A failed op leaves the program counter
    /// where it was, so the op can be retried after a recovery.
    pub(crate) fn step(&mut self, cluster: &mut Cluster) -> ClResult<()> {
        let _track = telemetry::track_scope(telemetry::Track::process(self.pid.0 as u64));
        let mut now = cluster.process(self.pid).clock;
        let step = self.program.step(&mut self.lib, &mut now);
        cluster.process_mut(self.pid).clock = now;
        step
    }

    /// Deliver the proxy-death and pipe-break faults of the cluster's
    /// [`FaultPlan`](osproc::FaultPlan) that are due at `now`: a dead
    /// proxy is killed and its pipe broken.
    pub(crate) fn deliver_proxy_faults(&mut self, cluster: &mut Cluster, now: SimTime) {
        let (proxy_dies, pipe_breaks) = match cluster.faults_mut() {
            Some(plan) => (plan.proxy_death_due(now), plan.pipe_break_due(now)),
            None => (false, false),
        };
        if proxy_dies {
            if let Some(proxy) = self.lib.proxy_pid() {
                cluster.kill(proxy);
            }
            self.lib.break_pipe();
        }
        if pipe_breaks {
            self.lib.break_pipe();
        }
    }

    /// Virtual time elapsed since process start.
    pub fn elapsed(&self, cluster: &Cluster) -> SimDuration {
        cluster.process(self.pid).clock.since(SimTime::ZERO)
    }

    /// Block until every command queue of this session has drained
    /// (a `clFinish` on each), advancing the process clock past the
    /// device work. Used to model checkpoints or scheduling decisions
    /// taken at a synchronization point.
    pub fn drain(&mut self, cluster: &mut Cluster) {
        let _track = telemetry::track_scope(telemetry::Track::process(self.pid.0 as u64));
        let mut now = cluster.process(self.pid).clock;
        let queues: Vec<u64> = self
            .lib
            .db
            .live_of_kind(clspec::handles::HandleKind::CommandQueue)
            .map(|e| e.checl)
            .collect();
        for q in queues {
            let _ = self.lib.call(
                &mut now,
                clspec::ApiRequest::Finish {
                    queue: clspec::CommandQueue::from_raw(clspec::RawHandle(q)),
                },
            );
        }
        cluster.process_mut(self.pid).clock = now;
    }

    /// Persist the interpreter state into the process image (it *is*
    /// host memory; a real program would not need this step because the
    /// dump captures its heap wholesale).
    pub fn persist_program(&mut self, cluster: &mut Cluster) {
        cluster
            .process_mut(self.pid)
            .image
            .put(APP_SEGMENT, self.program.to_bytes());
    }

    /// Checkpoint this application under `policy` (the CheCL §III-C
    /// procedure at [`CprPolicy::sequential`]): the program state is
    /// persisted into the image, then [`checl::snapshot`] dumps it.
    pub fn checkpoint_with_policy(
        &mut self,
        cluster: &mut Cluster,
        path: &str,
        policy: &CprPolicy,
    ) -> Result<SnapshotOutcome, CheclCprError> {
        self.persist_program(cluster);
        checl::snapshot(&mut self.lib, cluster, self.pid, path, policy)
    }

    /// Drive a parked live-checkpoint drain to completion
    /// ([`checl::complete_live_drain`]): the background writer seals
    /// the stream and publishes the dump, and the process clock only
    /// advances if the drain outran the compute since the cut. `Ok
    /// (None)` when no live checkpoint is in flight.
    pub fn complete_live_drain(
        &mut self,
        cluster: &mut Cluster,
    ) -> Result<Option<checl::LiveDrainOutcome>, CheclCprError> {
        checl::complete_live_drain(&mut self.lib, cluster, self.pid)
    }

    /// Kill this session's processes (simulating failure or teardown).
    pub fn kill(mut self, cluster: &mut Cluster) {
        // A parked live drain dies with the process: drop its temp so
        // the previous committed generation stays the restore target.
        checl::abort_live_drain(&mut self.lib, cluster, self.pid);
        checl::boot::kill_proxy(cluster, &mut self.lib);
        cluster.kill(self.pid);
    }

    /// Restart a checkpointed session on `node` with `vendor` through
    /// [`checl::restore`], whatever policy wrote the dump.
    pub fn restart(
        cluster: &mut Cluster,
        node: NodeId,
        path: &str,
        vendor: VendorConfig,
        target: RestoreTarget,
    ) -> Result<CheclSession, CheclCprError> {
        let (lib, pid, _report) = checl::restore(cluster, node, path, vendor, target)?;
        let program = program_from_image(&cluster.process(pid).image)?;
        Ok(CheclSession { pid, lib, program })
    }

    /// Migrate under an arbitrary [`CprPolicy`]: a pipelined policy
    /// overlaps the dump's copies and writes, a recovery policy adds
    /// verify/retry/fallback to the source-side snapshot.
    pub fn migrate_with_policy(
        mut self,
        cluster: &mut Cluster,
        dest_node: NodeId,
        dest_vendor: VendorConfig,
        path: &str,
        target: RestoreTarget,
        policy: &CprPolicy,
    ) -> Result<(CheclSession, MigrationReport), CheclCprError> {
        self.persist_program(cluster);
        let mut report = checl::migrate_process(
            cluster,
            self.lib,
            self.pid,
            dest_node,
            dest_vendor,
            path,
            target,
            policy,
        )?;
        let program = program_from_image(&cluster.process(report.new_pid).image)?;
        // Take the rebuilt shim out of the report and into the session.
        let lib = std::mem::replace(&mut report.new_lib, ChecLib::new(CheclConfig::default()));
        let session = CheclSession {
            pid: report.new_pid,
            lib,
            program,
        };
        Ok((session, report))
    }
}

/// Where a step-driven run segment ([`CheclSession::run_step`])
/// yielded control back to its scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldPoint {
    /// The program ran to completion.
    Done,
    /// The program is parked *before* a `clFinish` — its natural
    /// synchronization boundary. Every queue will drain at this op
    /// anyway, so a checkpoint taken here pays a near-zero sync phase
    /// (the Delayed-trigger observation of §III-C, surfaced as a
    /// scheduling hook).
    Sync,
    /// The run quantum expired at an ordinary op boundary. The
    /// interpreter state is still checkpointable (pc and registers
    /// serialize at any op boundary), but a preemption here pays the
    /// full sync cost for in-flight device work.
    Quantum,
}

impl CheclSession {
    /// Run at most `quantum` of virtual time, yielding at the first
    /// sync boundary (`clFinish`) reached after making progress — the
    /// step-driven face of the session that lets a scheduler interleave
    /// many tenants on one timeline.
    ///
    /// The session always executes at least one op per call (a tenant
    /// resumed *at* a sync point must cross it, or it would yield
    /// forever), and the process clock in `cluster` stays coherent at
    /// every yield, so callers can checkpoint, migrate or kill the
    /// session at any return point. `Sync` is reported in preference to
    /// `Quantum` when both hold.
    pub fn run_step(
        &mut self,
        cluster: &mut Cluster,
        quantum: SimDuration,
    ) -> ClResult<YieldPoint> {
        use crate::script::Op;
        let start = cluster.process(self.pid).clock;
        let mut executed = false;
        loop {
            if self.program.is_done() {
                return Ok(YieldPoint::Done);
            }
            if executed {
                if matches!(
                    self.program.script.ops[self.program.pc as usize],
                    Op::Finish { .. }
                ) {
                    return Ok(YieldPoint::Sync);
                }
                if cluster.process(self.pid).clock.since(start) >= quantum {
                    return Ok(YieldPoint::Quantum);
                }
            }
            self.step(cluster)?;
            executed = true;
        }
    }
}

/// Outcome of a signal-aware run segment.
#[derive(Debug)]
pub enum PolicyRunOutcome {
    /// Script finished; no checkpoint was triggered.
    Done,
    /// A checkpoint was taken (triggered by SIGUSR1) under the policy
    /// and the program paused right after it.
    Checkpointed(SnapshotOutcome),
}

impl CheclSession {
    /// Run the program while honouring checkpoint signals (§III-C).
    ///
    /// When a `SIGUSR1` is pending on the application process:
    /// * **Immediate mode** checkpoints before the next op executes,
    ///   paying the synchronization wait for any in-flight commands;
    /// * **Delayed mode** postpones until the program's next `clFinish`
    ///   (its natural synchronization point), so the checkpoint's sync
    ///   phase is nearly free. If the script ends first, the checkpoint
    ///   is taken at exit (all queues drained by then).
    ///
    /// The snapshot goes through [`CheclSession::checkpoint_with_policy`],
    /// so Delayed triggering composes with streaming, pipelining and
    /// commit hardening. Returns after the first checkpoint so callers
    /// can decide whether to continue, migrate or kill.
    pub fn run_with_cpr_policy(
        &mut self,
        cluster: &mut Cluster,
        mode: checl::CheckpointMode,
        policy: &CprPolicy,
        path: &str,
    ) -> Result<PolicyRunOutcome, CheclCprError> {
        use crate::script::Op;
        let mut armed = false;
        loop {
            if self.program.is_done() {
                return if armed {
                    let outcome = self.checkpoint_with_policy(cluster, path, policy)?;
                    Ok(PolicyRunOutcome::Checkpointed(outcome))
                } else {
                    Ok(PolicyRunOutcome::Done)
                };
            }
            if cluster.process_mut(self.pid).poll_signal() == Some(osproc::Signal::Usr1) {
                armed = true;
            }
            if armed {
                let at_sync_point = matches!(
                    self.program.script.ops[self.program.pc as usize],
                    Op::Finish { .. }
                );
                let take_now = match mode {
                    checl::CheckpointMode::Immediate => true,
                    checl::CheckpointMode::Delayed => at_sync_point,
                };
                if take_now {
                    let outcome = self.checkpoint_with_policy(cluster, path, policy)?;
                    return Ok(PolicyRunOutcome::Checkpointed(outcome));
                }
            }
            self.step(cluster).map_err(CheclCprError::Cl)?;
        }
    }
}

/// What it took to run a program segment under fault injection.
#[derive(Debug, PartialEq, Eq)]
pub struct RecoveryRunReport {
    /// How the segment ended.
    pub status: RunStatus,
    /// Proxy respawn + object-graph re-creation cycles performed.
    pub respawns: u32,
}

impl CheclSession {
    /// Run until `stop` while surviving API-proxy death and app↔proxy
    /// pipe breakage.
    ///
    /// Scheduled process faults from the cluster's
    /// [`FaultPlan`](osproc::FaultPlan) are delivered before each op;
    /// when one strikes (or a step fails with `DeviceNotAvailable`),
    /// the §III-C restart procedure runs in place: fork a new proxy,
    /// re-create the object graph from `last_ckpt`, and roll the
    /// interpreter back to the checkpointed program counter — device
    /// work since the checkpoint died with the proxy, so re-executing
    /// from the checkpoint is the only consistent continuation. The
    /// final buffer contents are bit-exact with an undisturbed run.
    ///
    /// `last_ckpt` must name a checkpoint taken with
    /// [`CheclSession::checkpoint_with_policy`] (so it carries the
    /// program state).
    /// At most `max_respawns` recoveries are attempted; a fault storm
    /// beyond that surfaces as `DeviceNotAvailable`.
    pub fn run_with_recovery(
        &mut self,
        cluster: &mut Cluster,
        stop: StopCondition,
        last_ckpt: &str,
        vendor: &VendorConfig,
        max_respawns: u32,
    ) -> Result<RecoveryRunReport, CheclCprError> {
        let mut respawns = 0u32;
        loop {
            if self.program.is_done() {
                return Ok(RecoveryRunReport {
                    status: RunStatus::Done,
                    respawns,
                });
            }
            // Deliver scheduled process faults that have come due.
            let now = cluster.process(self.pid).clock;
            self.deliver_proxy_faults(cluster, now);
            if self.lib.pipe_broken() || !self.lib.has_proxy() {
                if respawns >= max_respawns {
                    return Err(CheclCprError::Cl(
                        clspec::error::ClError::DeviceNotAvailable,
                    ));
                }
                respawns += 1;
                self.recover(cluster, last_ckpt, vendor.clone())?;
                continue;
            }
            match self.step(cluster) {
                Ok(()) => {}
                Err(clspec::error::ClError::DeviceNotAvailable) => {
                    // The proxy died under the op (pc not advanced: a
                    // failed step leaves the interpreter retryable).
                    if respawns >= max_respawns {
                        return Err(CheclCprError::Cl(
                            clspec::error::ClError::DeviceNotAvailable,
                        ));
                    }
                    respawns += 1;
                    self.recover(cluster, last_ckpt, vendor.clone())?;
                    continue;
                }
                Err(e) => return Err(CheclCprError::Cl(e)),
            }
            if stop.reached(&self.program) {
                return Ok(RecoveryRunReport {
                    status: RunStatus::Paused,
                    respawns,
                });
            }
        }
    }

    /// In-place recovery: respawn the proxy, restore the object graph
    /// from `last_ckpt`, and roll the interpreter back to the program
    /// state dumped in the same checkpoint.
    fn recover(
        &mut self,
        cluster: &mut Cluster,
        last_ckpt: &str,
        vendor: VendorConfig,
    ) -> Result<(), CheclCprError> {
        checl::respawn_proxy_and_restore(
            cluster,
            &mut self.lib,
            self.pid,
            last_ckpt,
            vendor,
            RestoreTarget::default(),
        )?;
        self.program = program_from_dump(cluster, self.pid, last_ckpt)?;
        Ok(())
    }
}

/// Which `ClApi` implementation a generic runner should use — lets
/// tests and benches run the same workload both ways.
pub enum AnySession {
    /// Direct vendor linking.
    Native(Box<NativeSession>),
    /// CheCL interposition.
    Checl(Box<CheclSession>),
}

impl AnySession {
    /// Run until `stop`.
    pub fn run(&mut self, cluster: &mut Cluster, stop: StopCondition) -> ClResult<RunStatus> {
        match self {
            AnySession::Native(s) => s.run(cluster, stop),
            AnySession::Checl(s) => s.run(cluster, stop),
        }
    }

    /// The running program.
    pub fn program(&self) -> &AppProgram {
        match self {
            AnySession::Native(s) => &s.program,
            AnySession::Checl(s) => &s.program,
        }
    }

    /// Elapsed virtual time.
    pub fn elapsed(&self, cluster: &Cluster) -> SimDuration {
        match self {
            AnySession::Native(s) => s.elapsed(cluster),
            AnySession::Checl(s) => s.elapsed(cluster),
        }
    }

    /// The implementation name the app is (unknowingly) linked against.
    pub fn impl_name(&self) -> String {
        match self {
            AnySession::Native(s) => s.driver.impl_name(),
            AnySession::Checl(s) => s.lib.impl_name(),
        }
    }
}
