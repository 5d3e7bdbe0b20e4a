//! Process migration and the migration-cost model (§IV-C).
//!
//! `Tm = α·M + Tr + β`: migration time is linear in the checkpoint
//! file size `M` (α is set by the storage write+read bandwidths), plus
//! the program recompilation time `Tr`, plus a system constant β
//! (proxy fork, object-creation overheads).

use crate::cpr::{CheckpointReport, CheclCprError, RestoreReport, RestoreTarget};
use crate::engine::{self, CprPolicy};
use crate::objects::ObjectRecord;
use crate::runtime::ChecLib;
use blcr::RecoveryOutcome;
use cldriver::VendorConfig;
use clspec::handles::HandleKind;
use osproc::{Cluster, FsKind, NodeId, Pid};
use simcore::{obs, telemetry, ByteSize, SimDuration, SimTime};

/// The fitted `Tm = αM + Tr + β` predictor.
#[derive(Clone, Copy, Debug)]
pub struct MigrationModel {
    /// Seconds per byte of checkpoint file (write on the source +
    /// read on the destination).
    pub alpha: f64,
    /// Fixed cost: proxy fork at restart, object-creation chatter,
    /// filesystem latencies.
    pub beta: SimDuration,
}

impl MigrationModel {
    /// Fit α and β for a storage medium (the paper's α "mainly depends
    /// on the bandwidth of writing the checkpoint file").
    pub fn for_medium(kind: FsKind) -> MigrationModel {
        let w = kind.write_link();
        let r = kind.read_link();
        MigrationModel {
            alpha: 1.0 / w.bandwidth.as_bytes_per_sec() + 1.0 / r.bandwidth.as_bytes_per_sec(),
            beta: w.latency
                + r.latency
                + simcore::calib::checl_init_overhead()
                + SimDuration::from_millis(40),
        }
    }

    /// Predict the migration time for a checkpoint of size `m` whose
    /// programs need `tr` to recompile.
    pub fn predict(&self, m: ByteSize, tr: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.alpha * m.as_u64() as f64) + tr + self.beta
    }
}

/// Estimate `Tr`: time to recompile every live source program on the
/// destination vendor ("if the recompilation time is known a priori,
/// the process migration cost can be estimated", §IV-C).
pub fn estimate_recompile_time(lib: &ChecLib, dest: &VendorConfig) -> SimDuration {
    lib.db
        .live_of_kind(HandleKind::Program)
        .map(|e| match &e.record {
            ObjectRecord::Program {
                source: Some(src),
                sigs,
                build_options: Some(_),
                ..
            } => dest.compile.compile_time(src.len(), sigs.len()),
            _ => SimDuration::ZERO,
        })
        .sum()
}

/// Convenience wrapper: predict a migration over `kind` storage.
pub fn predict_migration_time(
    lib: &ChecLib,
    dest: &VendorConfig,
    kind: FsKind,
    file_size: ByteSize,
) -> SimDuration {
    MigrationModel::for_medium(kind).predict(file_size, estimate_recompile_time(lib, dest))
}

/// The outcome of one migration.
pub struct MigrationReport {
    /// Checkpoint phase breakdown on the source node (includes
    /// `overlap_saved` for a pipelined dump).
    pub checkpoint: CheckpointReport,
    /// Object recreation breakdown on the destination node.
    pub restore: RestoreReport,
    /// Measured end-to-end migration time: source-side dump wall-clock
    /// (checkpoint, plus any retry/fallback the policy spent) plus
    /// everything the destination process did before it was ready
    /// (file read, proxy fork, object recreation).
    pub actual: SimDuration,
    /// Model prediction for comparison (Fig. 8).
    pub predicted: SimDuration,
    /// Bytes a dedup dump actually had to move: the stream file plus
    /// the chunk-store records its maps reference. Equal to
    /// `moved_bytes` for non-dedup policies.
    pub moved_bytes: ByteSize,
    /// Raw payload bytes the chunk store deduplicated away — what the
    /// migration did *not* have to move relative to a full dump.
    /// Zero for non-dedup policies.
    pub dedup_saved_bytes: u64,
    /// The new application process.
    pub new_pid: Pid,
    /// The rebuilt shim driving the new process.
    pub new_lib: ChecLib,
    /// Retry/fallback accounting when the policy carried a
    /// [`crate::engine::RecoveryPolicy`].
    pub recovery: Option<RecoveryOutcome>,
}

/// Migrate a CheCL application: snapshot on its current node under
/// `policy`, kill it (and its proxy), restart on `dest_node` with
/// `dest_vendor`.
///
/// `path` must be reachable from both nodes (the shared `/nfs` mount,
/// or `/ram` for same-node processor switching) — and so must any
/// `fallback_targets` the policy's recovery carries, since the restore
/// runs from wherever the snapshot actually landed. The source process
/// is only torn down after the snapshot commits: a fault that exhausts
/// the policy propagates with the source still running.
#[allow(clippy::too_many_arguments)]
pub fn migrate_process(
    cluster: &mut Cluster,
    mut lib: ChecLib,
    app_pid: Pid,
    dest_node: NodeId,
    dest_vendor: VendorConfig,
    path: &str,
    target: RestoreTarget,
    policy: &CprPolicy,
) -> Result<MigrationReport, CheclCprError> {
    let medium = {
        let node = cluster.process(app_pid).node;
        let (fs_id, _) = cluster.node(node).resolve(path).ok_or_else(|| {
            CheclCprError::Cpr(blcr::CprError::Fs(osproc::FsError::NotFound(path.into())))
        })?;
        cluster.fs(fs_id).kind()
    };
    let predicted_tr = estimate_recompile_time(&lib, &dest_vendor);

    // Migration spans two processes, so its stages live on the
    // cluster-wide track rather than either pid's timeline.
    let t_start = cluster.process(app_pid).clock;
    {
        let _cluster = telemetry::track_scope(telemetry::Track::CLUSTER);
        telemetry::span_begin("migrate", "migrate", t_start, vec![("path", path.into())]);
    }

    let outcome = engine::snapshot(&mut lib, cluster, app_pid, path, policy)?;
    let mut checkpoint = outcome.report;
    // A live snapshot parks its payload drain on the shim; migration
    // needs the sealed file before the source dies, so the drain lands
    // here (the source waits it out) and the moved bytes come from the
    // sealed size.
    if let Some(drained) = engine::complete_live_drain(&mut lib, cluster, app_pid)? {
        checkpoint.file_size = drained.file_size;
    }
    // Wall-clock the dump cost the source, retries and backoff
    // included (equals `checkpoint.total()` without a recovery policy).
    let source_side = cluster.process(app_pid).clock.since(t_start);
    // A dedup dump's stream file only carries chunk *references*; the
    // referenced store records cross the wire too, so they count toward
    // the model's M.
    let moved_bytes = ByteSize::bytes(
        checkpoint.file_size.as_u64()
            + checkpoint
                .dedup
                .map(|d| d.store_referenced_bytes)
                .unwrap_or(0),
    );
    let predicted = MigrationModel::for_medium(medium).predict(moved_bytes, predicted_tr);
    {
        let _cluster = telemetry::track_scope(telemetry::Track::CLUSTER);
        telemetry::instant(
            "migrate",
            "migrate.checkpointed",
            t_start + source_side,
            vec![("file_bytes", checkpoint.file_size.as_u64().into())],
        );
    }

    // Tear down the source: the proxy dies with its vendor objects,
    // then the application itself.
    crate::boot::kill_proxy(cluster, &mut lib);
    cluster.kill(app_pid);
    drop(lib);

    // Restore from wherever the snapshot landed (a recovery policy may
    // have fallen through to another target); the engine sniffs the
    // on-disk format, so sequential and streamed dumps both work.
    let (new_lib, new_pid, restore) =
        engine::restore(cluster, dest_node, &outcome.path, dest_vendor, target)?;
    // The destination process clock started at zero and now reads
    // "everything the restart cost": file read + proxy fork + restore.
    let dest_side = cluster.process(new_pid).clock.since(SimTime::ZERO);
    let actual = source_side + dest_side;

    if telemetry::enabled() {
        let _cluster = telemetry::track_scope(telemetry::Track::CLUSTER);
        // The record carries the predicted and measured totals; the
        // span end keeps the model's recompile term and its error.
        let err_pct = if actual > SimDuration::ZERO {
            (predicted.as_secs_f64() - actual.as_secs_f64()).abs() / actual.as_secs_f64() * 100.0
        } else {
            0.0
        };
        telemetry::span_end(
            "migrate",
            "migrate",
            t_start + actual,
            vec![
                ("predicted_tr_ns", predicted_tr.into()),
                ("error_pct", err_pct.into()),
            ],
        );
        obs::emit(
            "migrate",
            t_start + actual,
            obs::EventKind::MigrationCompleted {
                path: outcome.path.clone(),
                file_bytes: moved_bytes.as_u64(),
                actual_ns: actual.as_nanos(),
                predicted_ns: predicted.as_nanos(),
            },
        );
    }

    Ok(MigrationReport {
        checkpoint,
        restore,
        actual,
        predicted,
        moved_bytes,
        dedup_saved_bytes: checkpoint.dedup.map(|d| d.deduped_bytes).unwrap_or(0),
        new_pid,
        new_lib,
        recovery: outcome.recovery,
    })
}
