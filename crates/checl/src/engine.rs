//! The unified checkpoint/restore engine (§III-C + §IV-C/D behind one
//! policy).
//!
//! Every way this codebase knows how to snapshot a CheCL application —
//! sequential or overlapped data path, inline or content-addressed
//! payloads, stop-the-world or live copy-on-write cut, raw or
//! verify/retry/fallback-wrapped commit — is one [`CprPolicy`] handed
//! to [`snapshot`]. The four-phase structure (synchronize → preprocess
//! → write → postprocess) and its telemetry live here exactly once,
//! and [`restore`] is the one restart. Process migration
//! ([`crate::migrate`]) and restart chains ([`crate::recovery`]) are
//! built on this pair.
//!
//! The §IV-D "incremental checkpointing" future work is the dedup data
//! path's clean-buffer fast path: a buffer no write touched since its
//! last dedup generation re-emits that generation's chunk map without
//! a device read. Every dump is standalone-restorable — no dump ever
//! references bytes in another dump file.
//!
//! [`restore`] sniffs the on-disk format ([`blcr::sniff_dump`]) and
//! rebuilds the process with the matching data path, so a restore
//! site never needs to know which policy produced the file.

use crate::boot::{kill_proxy, refork_proxy};
use crate::cpr::{
    queue_and_device_in_context, restore_checl, storage_channel_name, CheckpointReport,
    CheclCprError, DedupStats, RestoreReport, RestoreTarget, CHECL_STATE_SEGMENT,
};
use crate::objects::ObjectRecord;
use crate::runtime::ChecLib;
use blcr::{
    cdc_chunks, recovery_event, ChunkStore, CprError, PutOutcome, RecoveryAttempt, RecoveryOutcome,
    RetryPolicy, SniffedDump, StreamWriter,
};
use cldriver::VendorConfig;
use clspec::api::ApiRequest;
use clspec::error::ClError;
use clspec::handles::{CommandQueue, HandleKind, Mem, RawHandle};
use osproc::{Cluster, FsError, FsKind, NodeId, Pid};
use simcore::channels::{ChannelId, ChannelSet};
use simcore::{calib, obs, telemetry, ByteSize, LinkModel, Payload, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Telemetry `tid` base for per-channel swimlanes (well above any real
/// thread id the simulation mints).
pub(crate) const CHANNEL_TRACK_BASE: u64 = 100;

/// Resolve the PCIe channel for device `dev_index` without allocating
/// on the hot path: indices in the standard range use static names (so
/// even the interning miss is format-free), and every subsequent lookup
/// is an allocation-free `&str` hit. Dump loops call this once per
/// buffer, so a per-call `format!` used to dominate the bookkeeping.
pub(crate) fn pcie_channel(
    channels: &mut ChannelSet,
    dev_index: u32,
) -> simcore::channels::ChannelId {
    const NAMES: [&str; 8] = [
        "pcie.dev0",
        "pcie.dev1",
        "pcie.dev2",
        "pcie.dev3",
        "pcie.dev4",
        "pcie.dev5",
        "pcie.dev6",
        "pcie.dev7",
    ];
    match NAMES.get(dev_index as usize) {
        Some(name) => channels.channel(name),
        None => channels.channel(&format!("pcie.dev{dev_index}")),
    }
}

/// Commit hardening for a snapshot: each attempt writes `<target>.tmp`,
/// is verified on read-back, and is published by one atomic rename;
/// transient I/O failures retry with doubling virtual-time backoff and
/// fall through the ordered target list.
#[derive(Clone, Debug, Default)]
pub struct RecoveryPolicy {
    /// Attempts per target, backoff base, and whether to verify.
    pub retry: RetryPolicy,
    /// Targets tried (in order) after the primary path fails
    /// persistently, e.g. `["/ram/a.ckpt", "/nfs/a.ckpt"]`.
    pub fallback_targets: Vec<String>,
}

/// Everything that can vary about taking a snapshot, in one value.
///
/// The streamed (`BLCS`) on-disk format follows from the data path:
/// `pipelined`, `dedup` and `live` all write chunk streams, the plain
/// policy writes one framed [`blcr::CheckpointFile`]. [`snapshot`]
/// rejects the combinations it cannot honour (see [`CprPolicy::live`])
/// instead of recording a label it did not enact.
#[derive(Clone, Debug, Default)]
pub struct CprPolicy {
    /// Overlap D2H copies with chunk writes on per-resource channels.
    pub pipelined: bool,
    /// Route buffer payloads through the content-addressed chunk store:
    /// content-defined chunking, XXH64 dedup against every earlier
    /// generation, per-chunk compression on the `cpu.compress` channel.
    /// A buffer no write touched since its last dedup generation skips
    /// the device read altogether and re-emits its previous chunk map
    /// (the §IV-D incremental fast path).
    pub dedup: bool,
    /// Live (copy-on-write) snapshots: after quiescing, capture the cut
    /// *logically* (epoch-stamp every buffer, write only the header),
    /// resume the application immediately, and drain the payload to
    /// disk in the background. Enqueue paths that would overwrite
    /// un-drained cut bytes fork the affected 64 KiB chunks first —
    /// that fork D2H is the only post-quiesce stall. The drain writes
    /// its payload inline under its own temp-and-rename commit, so
    /// `live` combined with `dedup` or `recovery` is rejected with
    /// [`CheclCprError::UnsupportedPolicy`].
    pub live: bool,
    /// Verify/retry/fallback commit hardening; `None` means one raw
    /// attempt at the primary path (the plain §III-C commit).
    pub recovery: Option<RecoveryPolicy>,
}

impl CprPolicy {
    /// The classic §III-C engine: sequential format, full payloads,
    /// back-to-back data path, no commit hardening.
    pub fn sequential() -> CprPolicy {
        CprPolicy::default()
    }

    /// The overlapped engine: streamed format, copies and chunk writes
    /// pipelined across resource channels.
    pub fn pipelined() -> CprPolicy {
        CprPolicy {
            pipelined: true,
            ..CprPolicy::default()
        }
    }

    /// Toggle content-addressed dedup + compression of buffer payloads.
    pub fn dedup(mut self, on: bool) -> CprPolicy {
        self.dedup = on;
        self
    }

    /// Toggle live (copy-on-write) snapshots: the application resumes
    /// right after the logical cut while a background writer drains the
    /// payload.
    pub fn live(mut self, on: bool) -> CprPolicy {
        self.live = on;
        self
    }

    /// Add verify/retry/fallback commit hardening.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> CprPolicy {
        self.recovery = Some(recovery);
        self
    }

    /// Whether this policy writes the streamed (`BLCS`) format.
    pub fn streamed(&self) -> bool {
        self.pipelined || self.dedup || self.live
    }

    /// Stable human-readable name of this lattice point, recorded in
    /// every dump's provenance (e.g. `"streamed+pipelined+dedup+recovery"`).
    /// It names only what [`snapshot`] enacts: every streamed data path
    /// overlaps copies with writes, so every streamed point is
    /// `pipelined`, whether or not that field is set.
    pub fn label(&self) -> String {
        let mut parts: Vec<&str> = vec![if self.streamed() {
            "streamed+pipelined"
        } else {
            "sequential"
        }];
        if self.dedup {
            parts.push("dedup");
        }
        if self.live {
            parts.push("live");
        }
        if self.recovery.is_some() {
            parts.push("recovery");
        }
        parts.join("+")
    }
}

/// What one [`snapshot`] call produced.
#[derive(Clone, Debug)]
pub struct SnapshotOutcome {
    /// The four-phase breakdown of the committed attempt.
    pub report: CheckpointReport,
    /// Where the snapshot actually landed — the requested path, or a
    /// fallback target if commit hardening had to fall through.
    pub path: String,
    /// Retry/fallback accounting when a [`RecoveryPolicy`] was active.
    pub recovery: Option<RecoveryOutcome>,
}

/// Snapshot a CheCL application under `policy`.
///
/// Without a [`RecoveryPolicy`] this is exactly one four-phase
/// checkpoint at `path` (a failed write rolls the shim's bookkeeping
/// back and leaves any previous generation at `path` untouched). With
/// one, every attempt lands in `<target>.tmp`, is verified, and is
/// atomically renamed into place, retrying and falling through targets
/// on transient faults. A live policy combined with dedup or recovery
/// is refused up front with [`CheclCprError::UnsupportedPolicy`].
pub fn snapshot(
    lib: &mut ChecLib,
    cluster: &mut Cluster,
    app_pid: Pid,
    path: &str,
    policy: &CprPolicy,
) -> Result<SnapshotOutcome, CheclCprError> {
    if policy.live && (policy.dedup || policy.recovery.is_some()) {
        return Err(CheclCprError::UnsupportedPolicy(policy.label()));
    }
    // A still-draining earlier live generation must land before a new
    // cut can re-stamp the same buffers: force it to completion first.
    // The application only waits out whatever drain time its own
    // compute did not already cover.
    complete_live_drain(lib, cluster, app_pid)?;
    if policy.live {
        let report = snapshot_live(lib, cluster, app_pid, path, policy)?;
        // Commit provenance is deferred: `CheckpointCommitted` (and the
        // channel-utilization ledger) are emitted when the background
        // drain seals + renames the file, not at the cut.
        return Ok(SnapshotOutcome {
            report,
            path: path.to_string(),
            recovery: None,
        });
    }
    let streamed = policy.streamed();
    let dedup = policy.dedup;
    let Some(rp) = &policy.recovery else {
        let (report, provenance) = snapshot_once(lib, cluster, app_pid, path, streamed, dedup)?;
        emit_checkpoint_committed(cluster, app_pid, path, policy, &provenance, &report);
        emit_dedup_generation(lib, cluster, app_pid, path, &report);
        return Ok(SnapshotOutcome {
            report,
            path: path.to_string(),
            recovery: None,
        });
    };
    let mut targets: Vec<&str> = vec![path];
    targets.extend(rp.fallback_targets.iter().map(String::as_str));
    let retry = rp.retry;
    let ((report, provenance), outcome) = blcr::drive_recovery(
        cluster,
        app_pid,
        &targets,
        &retry,
        |cluster, tmp, target| {
            let (report, provenance) =
                match snapshot_once(lib, cluster, app_pid, tmp, streamed, dedup) {
                    Ok(r) => r,
                    Err(e @ CheclCprError::Cpr(CprError::Fs(_))) => {
                        return RecoveryAttempt::Transient(e)
                    }
                    Err(fatal) => return RecoveryAttempt::Fatal(fatal),
                };
            if retry.verify {
                match verify_snapshot_file(cluster, app_pid, tmp, report.file_size.as_u64()) {
                    Ok(()) => {}
                    Err(e @ CheclCprError::Cpr(CprError::Fs(_))) => {
                        // The read-back itself failed: the file may be
                        // fine, but we can't prove it — drop the
                        // references and retry (the temp is reused).
                        invalidate_saves(lib, tmp);
                        return RecoveryAttempt::Transient(e);
                    }
                    Err(e) => {
                        recovery_event(cluster, app_pid, "recovery.verify_failed", tmp);
                        let _ = cluster.delete_file(app_pid, tmp);
                        invalidate_saves(lib, tmp);
                        return RecoveryAttempt::Transient(e);
                    }
                }
            }
            if let Err(e) = cluster.rename_file(app_pid, tmp, target) {
                return RecoveryAttempt::Fatal(CheclCprError::Cpr(CprError::Fs(e)));
            }
            repoint_saves(lib, tmp, target);
            let size = report.file_size;
            RecoveryAttempt::Committed {
                value: (report, provenance),
                size,
            }
        },
        || CheclCprError::Cpr(CprError::Fs(FsError::WriteFailed(path.to_string()))),
    )?;
    emit_checkpoint_committed(
        cluster,
        app_pid,
        &outcome.path,
        policy,
        &provenance,
        &report,
    );
    emit_dedup_generation(lib, cluster, app_pid, &outcome.path, &report);
    Ok(SnapshotOutcome {
        report,
        path: outcome.path.clone(),
        recovery: Some(outcome),
    })
}

/// Close out one committed dedup generation: bump the shim's generation
/// counter and ledger the chunk accounting so `checl_inspect` can
/// report a per-generation dedup ratio. A no-op for non-dedup dumps.
fn emit_dedup_generation(
    lib: &mut ChecLib,
    cluster: &Cluster,
    app_pid: Pid,
    path: &str,
    report: &CheckpointReport,
) {
    let Some(stats) = report.dedup else {
        return;
    };
    let generation = lib.dedup_generation;
    lib.dedup_generation += 1;
    if !telemetry::enabled() {
        return;
    }
    let now = cluster.process(app_pid).clock;
    let store = chunk_store_path(path);
    obs::emit(
        "engine",
        now,
        obs::EventKind::ChunkDeduped {
            store: store.clone(),
            generation,
            chunks: stats.chunks_deduped,
            raw_bytes: stats.deduped_bytes,
        },
    );
    obs::emit(
        "engine",
        now,
        obs::EventKind::ChunkCompressed {
            store,
            generation,
            chunks: stats.chunks_total - stats.chunks_deduped,
            raw_bytes: stats.raw_bytes.saturating_sub(stats.deduped_bytes),
            stored_bytes: stats.stored_bytes,
            compress_ns: stats.compress_ns,
        },
    );
}

/// Where the content-addressed chunk store for dumps at `target` lives:
/// `checl.cas` next to the dump, so every generation in a directory
/// (including `<target>.tmp` attempts) shares one dedup domain on the
/// same mount.
pub(crate) fn chunk_store_path(target: &str) -> String {
    match target.rfind('/') {
        Some(i) => format!("{}/checl.cas", &target[..i]),
        None => "checl.cas".to_string(),
    }
}

/// Record a committed dump's provenance in the obs ledger: where it
/// landed, the policy lattice point, byte and chunk accounting, and the
/// four-phase cost breakdown. Engine dumps are standalone, so they
/// record no `bases`.
fn emit_checkpoint_committed(
    cluster: &Cluster,
    app_pid: Pid,
    path: &str,
    policy: &CprPolicy,
    provenance: &DumpProvenance,
    report: &CheckpointReport,
) {
    if !telemetry::enabled() {
        return;
    }
    obs::emit(
        "engine",
        cluster.process(app_pid).clock,
        obs::EventKind::CheckpointCommitted {
            path: path.to_string(),
            format: if policy.streamed() {
                "streamed".to_string()
            } else {
                "sequential".to_string()
            },
            policy: policy.label(),
            bases: Vec::new(),
            buffers: provenance.buffers,
            chunks: provenance.chunks,
            logical_bytes: provenance.logical_bytes,
            file_bytes: report.file_size.as_u64(),
            sync_ns: report.sync.as_nanos(),
            preprocess_ns: report.preprocess.as_nanos(),
            write_ns: report.write.as_nanos(),
            postprocess_ns: report.postprocess.as_nanos(),
            cost_ns: report.total().as_nanos(),
        },
    );
}

/// One raw four-phase checkpoint attempt — the single place the
/// synchronize → preprocess → write → postprocess structure exists.
/// `streamed` selects the data path for the middle phases; the sync
/// and postprocess phases (and the report/telemetry bookkeeping) are
/// shared.
pub(crate) fn snapshot_once(
    lib: &mut ChecLib,
    cluster: &mut Cluster,
    app_pid: Pid,
    path: &str,
    streamed: bool,
    dedup: bool,
) -> Result<(CheckpointReport, DumpProvenance), CheclCprError> {
    if !lib.has_proxy() {
        return Err(CheclCprError::NoProxy);
    }
    let mut now = cluster.process(app_pid).clock;
    let _scope = telemetry::track_scope(telemetry::Track::process(app_pid.0 as u64));
    let start = now;
    let mut open_args = vec![("path", path.into())];
    if streamed {
        open_args.push(("pipelined", 1u64.into()));
    }
    telemetry::span_begin("cpr", "checkpoint", start, open_args);

    // Phase 1: synchronize the host and all command queues. An error
    // here propagates with the spans deliberately left open: the
    // process is in an undefined quiesce state and the trace should
    // show exactly where it stopped.
    let sync = sync_queues(lib, &mut now)?;

    let mems = collect_mems(lib);
    let provenance = dump_provenance(&mems, streamed);
    let copied_bytes = provenance.logical_bytes;

    let (now, preprocess, write, file_size, channels, dedup_stats) = if !streamed {
        // Phase 2: preprocess — copy all user data in device memory to
        // the host memory.
        let t0 = now;
        telemetry::span_begin("cpr", "checkpoint.preprocess", t0, Vec::new());
        now = save_to_host(lib, &mems, path, now)?;
        let preprocess = now.since(t0);
        telemetry::span_end(
            "cpr",
            "checkpoint.preprocess",
            now,
            vec![("copied_bytes", copied_bytes.into())],
        );

        // Phase 3: write — dump the host process (CheCL state included)
        // via the conventional CPR system.
        let t0 = now;
        telemetry::span_begin("cpr", telemetry::QUIESCE_UNTIL, t0, Vec::new());
        cluster
            .process_mut(app_pid)
            .image
            .put(CHECL_STATE_SEGMENT, lib.encode_state());
        cluster.process_mut(app_pid).clock = now;
        let file_size = match blcr::checkpoint(cluster, app_pid, path) {
            Ok(size) => size,
            Err(e) => {
                // Failed write (disk fault, NFS outage).
                let now = cluster.process(app_pid).clock;
                return Err(fail_attempt(lib, cluster, app_pid, path, now, e.into()));
            }
        };
        now = cluster.process(app_pid).clock;
        let write = now.since(t0);
        telemetry::span_end(
            "cpr",
            telemetry::QUIESCE_UNTIL,
            now,
            vec![("file_bytes", file_size.as_u64().into())],
        );
        (now, preprocess, write, file_size, None, None)
    } else {
        // Phases 2+3: the overlapped copy/stream window.
        let phase0 = now;
        telemetry::span_begin("cpr", "checkpoint.preprocess", phase0, Vec::new());
        // Mark every streamed buffer clean *before* encoding the state:
        // the dumped records must say "bytes live in `path`", because
        // the chunks ride in this very file (the state segment itself
        // carries no payloads). A failed attempt un-marks them again,
        // exactly like the sequential rollback. `dirty_regions` and
        // `saved_chunks` are left alone: the dedup payload step reads
        // them for its clean-buffer fast path.
        for &(checl_mem, ..) in &mems {
            if let Some(e) = lib.db.get_mut(checl_mem) {
                if let ObjectRecord::Mem {
                    saved_data,
                    dirty,
                    saved_in,
                    ..
                } = &mut e.record
                {
                    *saved_data = None;
                    *dirty = false;
                    *saved_in = Some(path.to_string());
                }
            }
        }
        cluster
            .process_mut(app_pid)
            .image
            .put(CHECL_STATE_SEGMENT, lib.encode_state());

        let mut channels = ChannelSet::new(phase0)
            .without_log()
            .with_telemetry(app_pid.0 as u64, CHANNEL_TRACK_BASE);
        let (copies_done, commit_end, file_size, dedup_stats) =
            match streamed_data_path(lib, cluster, app_pid, path, &mems, &mut channels, dedup) {
                Ok(done) => done,
                Err(err) => {
                    // The temp is already gone and the previous
                    // generation at `path` untouched.
                    let now = channels.makespan().max(cluster.process(app_pid).clock);
                    telemetry::span_end(
                        "cpr",
                        "checkpoint.preprocess",
                        now,
                        vec![("error", err.to_string().into())],
                    );
                    telemetry::span_begin("cpr", telemetry::QUIESCE_UNTIL, now, Vec::new());
                    return Err(fail_attempt(lib, cluster, app_pid, path, now, err));
                }
            };

        // The preprocess phase of the Fig. 5 breakdown ends when the
        // last copy lands; everything past that is write-side
        // wall-clock.
        let preprocess = copies_done.since(phase0);
        telemetry::span_end(
            "cpr",
            "checkpoint.preprocess",
            copies_done,
            vec![("copied_bytes", copied_bytes.into())],
        );
        telemetry::span_begin("cpr", telemetry::QUIESCE_UNTIL, copies_done, Vec::new());
        let now = channels.makespan().max(commit_end);
        let write = now.since(copies_done);
        telemetry::span_end(
            "cpr",
            telemetry::QUIESCE_UNTIL,
            now,
            vec![("file_bytes", file_size.as_u64().into())],
        );
        (
            now,
            preprocess,
            write,
            file_size,
            Some(channels),
            dedup_stats,
        )
    };

    Ok((
        finish_snapshot(
            lib,
            cluster,
            app_pid,
            now,
            start,
            sync,
            preprocess,
            write,
            file_size,
            channels.as_ref(),
            dedup_stats,
        ),
        provenance,
    ))
}

/// Close a failed snapshot attempt at `now`: take the state segment
/// back out of the image, re-dirty the buffers "saved" in `path` (it
/// never landed) so the next dedup generation re-reads them, and end
/// the open write-phase and checkpoint spans with the error so the
/// trace stays well-formed. Returns `err`.
fn fail_attempt(
    lib: &mut ChecLib,
    cluster: &mut Cluster,
    app_pid: Pid,
    path: &str,
    now: SimTime,
    err: CheclCprError,
) -> CheclCprError {
    cluster.process_mut(app_pid).clock = now;
    cluster.process_mut(app_pid).image.take(CHECL_STATE_SEGMENT);
    invalidate_saves(lib, path);
    for span in [telemetry::QUIESCE_UNTIL, "checkpoint"] {
        telemetry::span_end("cpr", span, now, vec![("error", err.to_string().into())]);
    }
    err
}

/// The live flavour of [`snapshot_once`]: quiesce, capture the cut
/// *logically* (epoch-stamp every buffer, write only the stream
/// header), and return with the payload drain parked on the shim as a
/// [`LiveDrain`]. The application's stall is the quiesce plus the shim
/// bookkeeping — every payload byte moves later, either lazily (COW
/// forks ahead of overwrites, see [`LiveDrain::cow_fork`]) or in the
/// background drain ([`complete_live_drain`]).
fn snapshot_live(
    lib: &mut ChecLib,
    cluster: &mut Cluster,
    app_pid: Pid,
    path: &str,
    policy: &CprPolicy,
) -> Result<CheckpointReport, CheclCprError> {
    if !lib.has_proxy() {
        return Err(CheclCprError::NoProxy);
    }
    let mut now = cluster.process(app_pid).clock;
    let _scope = telemetry::track_scope(telemetry::Track::process(app_pid.0 as u64));
    let start = now;
    telemetry::span_begin(
        "cpr",
        "checkpoint",
        start,
        vec![
            ("path", path.into()),
            ("pipelined", 1u64.into()),
            ("live", 1u64.into()),
        ],
    );
    let sync = sync_queues(lib, &mut now)?;
    let mems = collect_mems(lib);
    let provenance = dump_provenance(&mems, true);
    // The drain writes `<path>.tmp` and publishes by one rename at
    // completion, so an abort mid-drain leaves any previous generation
    // at `path` untouched.
    let tmp = format!("{path}.tmp");

    // Phase 2, live flavour: the copy is *logical*. Stamp every
    // captured buffer with the new cut epoch and mark it clean against
    // the temp file; its bytes stay on the device until the background
    // drain (or a COW fork ahead of an overwrite) moves them.
    let t0 = now;
    telemetry::span_begin("cpr", "checkpoint.preprocess", t0, Vec::new());
    lib.live_epoch += 1;
    let epoch = lib.live_epoch;
    let mut pending: Vec<LivePending> = Vec::new();
    for &(checl_mem, vendor_mem, context, size) in &mems {
        if let Some(e) = lib.db.get_mut(checl_mem) {
            if let ObjectRecord::Mem {
                saved_data,
                dirty,
                dirty_regions,
                saved_in,
                saved_chunks,
                cut_epoch,
                ..
            } = &mut e.record
            {
                *saved_data = None;
                *dirty = false;
                dirty_regions.clear();
                *saved_in = Some(tmp.clone());
                *saved_chunks = None;
                *cut_epoch = epoch;
            }
        }
        pending.push(LivePending {
            checl: checl_mem,
            vendor: vendor_mem,
            context,
            size,
            forked: Vec::new(),
        });
    }
    cluster
        .process_mut(app_pid)
        .image
        .put(CHECL_STATE_SEGMENT, lib.encode_state());
    let preprocess = now.since(t0);
    telemetry::span_end(
        "cpr",
        "checkpoint.preprocess",
        now,
        vec![("cut_bytes", provenance.logical_bytes.into())],
    );

    // The header (process image + stripped state) is captured now —
    // the writer copies it into the temp file before returning — but
    // its write cost rides on the storage channel, not the app clock.
    telemetry::span_begin("cpr", telemetry::QUIESCE_UNTIL, now, Vec::new());
    let mut channels = ChannelSet::new(now)
        .without_log()
        .with_telemetry(app_pid.0 as u64, CHANNEL_TRACK_BASE);
    let disk = channels.channel(storage_channel_name(cluster, app_pid, &tmp));
    let writer = match open_stream(cluster, app_pid, &tmp, &mut channels, disk, now) {
        Ok(w) => w,
        Err(e) => return Err(fail_attempt(lib, cluster, app_pid, &tmp, now, e.into())),
    };
    cluster.process_mut(app_pid).clock = now;
    telemetry::span_end(
        "cpr",
        telemetry::QUIESCE_UNTIL,
        now,
        vec![("file_bytes", 0u64.into())],
    );

    let report = finish_snapshot(
        lib,
        cluster,
        app_pid,
        now,
        start,
        sync,
        preprocess,
        SimDuration::ZERO,
        ByteSize::bytes(0),
        None,
        None,
    );
    lib.live_drain = Some(Box::new(LiveDrain {
        path: path.to_string(),
        tmp,
        policy: policy.clone(),
        cut: now,
        writer,
        channels,
        pending,
        provenance,
        stall: report,
        forked_chunks: 0,
        forked_bytes: 0,
        fork_stall: SimDuration::ZERO,
    }));
    Ok(report)
}

/// COW fork granularity: the dedup chunker's maximum chunk size, so a
/// forked run is always a whole number of store-sized chunks.
const COW_GRAIN: u64 = blcr::chunkstore::CDC_MAX_CHUNK as u64;

/// A live snapshot's parked state between the cut and the sealed dump:
/// the open stream writer on `<path>.tmp`, the channel set whose
/// origin is the cut, the buffers whose cut bytes are still on the
/// device, and the runs already preserved by COW forks. Held on the
/// shim ([`ChecLib::live_drain`]); never serialized — a drain is
/// completed or aborted before any dump or kill.
pub(crate) struct LiveDrain {
    /// Committed name the sealed temp is renamed to.
    path: String,
    /// The temp file the drain writes.
    tmp: String,
    /// Policy that took the snapshot, for the deferred commit ledger.
    policy: CprPolicy,
    /// The quiesce point: channel origin and logical capture time.
    cut: SimTime,
    writer: StreamWriter,
    channels: ChannelSet,
    pending: Vec<LivePending>,
    provenance: DumpProvenance,
    /// The four-phase stall report returned at the cut.
    stall: CheckpointReport,
    forked_chunks: u64,
    forked_bytes: u64,
    /// Application time spent inside COW forks (charged to the app's
    /// own enqueues, not to `stall`).
    fork_stall: SimDuration,
}

/// One cut buffer whose bytes have not been serialized yet.
struct LivePending {
    checl: u64,
    vendor: RawHandle,
    context: u64,
    size: u64,
    /// Grain-aligned `(offset, bytes, host-ready time)` runs preserved
    /// ahead of overwrites. Disjoint by construction.
    forked: Vec<(u64, Payload, SimTime)>,
}

impl LiveDrain {
    /// Preserve the cut bytes an imminent write to
    /// `[offset, offset+len)` of `checl_mem` would clobber: D2H-read
    /// the not-yet-forked grain-aligned runs inside that span and
    /// stash them host-side. The read is charged to the PCIe channel
    /// *and* the caller's clock — the write may not proceed until the
    /// old bytes are safe, and that wait is the only stall a live
    /// checkpoint imposes after the cut. The host-side stash memcpy
    /// rides the `cpu.fork` channel.
    pub(crate) fn cow_fork(
        &mut self,
        lib: &mut ChecLib,
        now: &mut SimTime,
        checl_mem: u64,
        offset: u64,
        len: u64,
    ) -> Result<(), ClError> {
        let Some(idx) = self.pending.iter().position(|p| p.checl == checl_mem) else {
            return Ok(());
        };
        let (size, context, vendor) = {
            let p = &self.pending[idx];
            (p.size, p.context, p.vendor)
        };
        if size == 0 {
            return Ok(());
        }
        let lo = offset.min(size);
        let hi = offset.saturating_add(len).min(size);
        if hi <= lo {
            return Ok(());
        }
        let lo = lo - lo % COW_GRAIN;
        let hi = hi.div_ceil(COW_GRAIN).saturating_mul(COW_GRAIN).min(size);
        // Runs of [lo, hi) no earlier fork already covers.
        let mut covered: Vec<(u64, u64)> = self.pending[idx]
            .forked
            .iter()
            .map(|(o, d, _)| (*o, *o + d.len() as u64))
            .collect();
        covered.sort_unstable();
        let mut runs: Vec<(u64, u64)> = Vec::new();
        let mut cur = lo;
        for (a, b) in covered {
            if cur >= hi {
                break;
            }
            if b <= cur {
                continue;
            }
            if a > cur {
                runs.push((cur, a.min(hi)));
            }
            cur = cur.max(b);
        }
        if cur < hi {
            runs.push((cur, hi));
        }
        if runs.is_empty() {
            return Ok(());
        }
        let (q_vendor, dev_index) =
            queue_and_device_in_context(lib, context).ok_or(ClError::InvalidContext)?;
        let pcie = pcie_channel(&mut self.channels, dev_index);
        let cpu = self.channels.channel("cpu.fork");
        let ipc = self.channels.channel("ipc");
        let t_begin = *now;
        let mut chunks = 0u64;
        let mut bytes = 0u64;
        for (run_lo, run_hi) in runs {
            let run_len = run_hi - run_lo;
            let ready = self.channels.free_at(pcie).max(*now);
            let (data, landed, released) =
                read_device(lib, q_vendor, vendor, run_lo, run_len, ready, |cost| {
                    self.channels.place(pcie, ready, cost, "cow.d2h").end
                })?;
            let rel = self
                .channels
                .place(ipc, landed, released.since(landed), "release");
            let mready = self.channels.free_at(cpu).max(rel.end);
            let stash = self.channels.place(
                cpu,
                mready,
                calib::host_memcpy().transfer_time(ByteSize::bytes(run_len)),
                "cow.memcpy",
            );
            *now = (*now).max(stash.end);
            chunks += run_len.div_ceil(COW_GRAIN);
            bytes += run_len;
            self.pending[idx].forked.push((run_lo, data, stash.end));
        }
        let stall = now.since(t_begin);
        self.forked_chunks += chunks;
        self.forked_bytes += bytes;
        self.fork_stall += stall;
        if telemetry::enabled() {
            obs::emit(
                "engine",
                *now,
                obs::EventKind::CowForked {
                    path: self.path.clone(),
                    buffer: checl_mem,
                    chunks,
                    bytes,
                    stall_ns: stall.as_nanos(),
                },
            );
        }
        Ok(())
    }
}

/// What completing a live drain produced.
#[derive(Clone, Debug)]
pub struct LiveDrainOutcome {
    /// Committed path (the rename target).
    pub path: String,
    /// The stall-window report the cut returned, with the sealed file
    /// size filled in. This — not the drain — is the checkpoint's cost
    /// to the application.
    pub stall: CheckpointReport,
    /// Cut-to-seal wall time of the background drain.
    pub drain_wall: SimDuration,
    /// Sealed file size.
    pub file_size: ByteSize,
    /// 64 KiB-granular chunks preserved by COW forks.
    pub forked_chunks: u64,
    /// Bytes preserved by COW forks.
    pub forked_bytes: u64,
    /// Application time spent inside COW forks.
    pub fork_stall: SimDuration,
    /// Bytes the drain pulled from devices in the background.
    pub drained_bytes: u64,
}

/// Drive the live drain a live [`snapshot`] parked on the shim to
/// completion: background-D2H every cut buffer still on the device
/// (gap-filled around the foreground's own PCIe traffic), append the
/// out-of-order slice/chunk frames in host-ready order, seal the
/// stream, and publish `<path>.tmp` → `path` by one rename. The app
/// clock only advances if the drain's virtual-time makespan outran the
/// compute the application managed in the meantime. A failure aborts
/// the temp and re-dirties the cut buffers, leaving any previous
/// generation at `path` restorable.
/// No-op (`Ok(None)`) when nothing is draining.
pub fn complete_live_drain(
    lib: &mut ChecLib,
    cluster: &mut Cluster,
    app_pid: Pid,
) -> Result<Option<LiveDrainOutcome>, CheclCprError> {
    let Some(drain) = lib.live_drain.take() else {
        return Ok(None);
    };
    let LiveDrain {
        path,
        tmp,
        policy,
        cut,
        mut writer,
        mut channels,
        pending,
        provenance,
        mut stall,
        forked_chunks,
        forked_bytes,
        fork_stall,
    } = *drain;
    let _scope = telemetry::track_scope(telemetry::Track::process(app_pid.0 as u64));
    let app_clock = cluster.process(app_pid).clock;
    let buffers = pending.len() as u64;
    match drive_live_drain(
        lib,
        cluster,
        app_pid,
        cut,
        &tmp,
        &path,
        &mut writer,
        &mut channels,
        pending,
    ) {
        Ok((file_size, drain_end, drained_bytes)) => {
            repoint_saves(lib, &tmp, &path);
            // The drain ran behind the application; the app only waits
            // if it got here (next checkpoint, migration, teardown)
            // before the drain's own makespan.
            let now = app_clock.max(drain_end);
            cluster.process_mut(app_pid).clock = now;
            stall.file_size = file_size;
            let drain_wall = drain_end.since(cut);
            emit_checkpoint_committed(cluster, app_pid, &path, &policy, &provenance, &stall);
            if telemetry::enabled() {
                obs::emit(
                    "engine",
                    now,
                    obs::EventKind::LiveDrainCompleted {
                        path: path.clone(),
                        buffers,
                        forked_chunks,
                        forked_bytes,
                        drained_bytes,
                        stall_ns: (stall.total() + fork_stall).as_nanos(),
                        drain_ns: drain_wall.as_nanos(),
                        file_bytes: file_size.as_u64(),
                    },
                );
            }
            emit_channel_utilization(&channels, now);
            Ok(Some(LiveDrainOutcome {
                path,
                stall,
                drain_wall,
                file_size,
                forked_chunks,
                forked_bytes,
                fork_stall,
                drained_bytes,
            }))
        }
        Err(err) => {
            // Delete the temp and forget the references to it; the cut
            // buffers re-dirty so the next snapshot re-saves them.
            writer.abort(cluster);
            cluster.process_mut(app_pid).clock = app_clock;
            invalidate_saves(lib, &tmp);
            recovery_event(cluster, app_pid, "recovery.live_drain_failed", &tmp);
            Err(err)
        }
    }
}

/// Abandon a parked live drain without completing it: delete the temp
/// and re-dirty the cut buffers. Used when the application is being
/// torn down mid-drain; any previous generation at the target stays
/// restorable. No-op when nothing is draining.
pub fn abort_live_drain(lib: &mut ChecLib, cluster: &mut Cluster, app_pid: Pid) {
    let Some(drain) = lib.live_drain.take() else {
        return;
    };
    let LiveDrain {
        tmp, mut writer, ..
    } = *drain;
    let clock = cluster.process(app_pid).clock;
    writer.abort(cluster);
    cluster.process_mut(app_pid).clock = clock;
    invalidate_saves(lib, &tmp);
}

/// The fallible body of [`complete_live_drain`]: returns the sealed
/// file size, the drain's end time, and how many bytes came off the
/// devices in the background.
#[allow(clippy::too_many_arguments)]
fn drive_live_drain(
    lib: &mut ChecLib,
    cluster: &mut Cluster,
    app_pid: Pid,
    cut: SimTime,
    tmp: &str,
    path: &str,
    writer: &mut StreamWriter,
    channels: &mut ChannelSet,
    pending: Vec<LivePending>,
) -> Result<(ByteSize, SimTime, u64), CheclCprError> {
    let disk = channels.channel(storage_channel_name(cluster, app_pid, tmp));
    // Out-of-order append tasks, drained in host-ready order — slices
    // of different buffers interleave freely in the file; frame seq
    // numbers are assigned at append time. Keyed `(ready, handle,
    // offset)` so the order is deterministic.
    let mut tasks: Vec<(SimTime, u64, u64, Frame)> = Vec::new();
    let mut drained_bytes = 0u64;
    for p in pending {
        let forked_cover: u64 = p.forked.iter().map(|(_, d, _)| d.len() as u64).sum();
        if !p.forked.is_empty() && forked_cover >= p.size {
            // Fully preserved by forks (released, or wholly
            // overwritten): every run is already host-side.
            for (off, data, ready) in p.forked {
                tasks.push((ready, p.checl, off, Frame::Slice(off, data)));
            }
            continue;
        }
        // Whatever was not forked still holds cut bytes on the device:
        // one background full-extent D2H. Regions a later write *did*
        // touch are discarded below in favour of their fork.
        let (q_vendor, dev_index) = queue_and_device_in_context(lib, p.context)
            .ok_or(CheclCprError::Cl(ClError::InvalidContext))?;
        let pcie = pcie_channel(channels, dev_index);
        let (data, landed, _) = read_device(lib, q_vendor, p.vendor, 0, p.size, cut, |cost| {
            channels.place_background(pcie, cut, cost, "drain.d2h").end
        })?;
        if p.forked.is_empty() {
            drained_bytes += p.size;
            tasks.push((landed, p.checl, 0, Frame::Chunk(data)));
            continue;
        }
        // Partially forked: the forks carry the overwritten runs, the
        // background read fills the complement.
        let mut forked = p.forked;
        forked.sort_by_key(|(o, _, _)| *o);
        let mut cur = 0u64;
        for (off, fdata, ready) in forked {
            if off > cur {
                drained_bytes += off - cur;
                tasks.push((
                    landed,
                    p.checl,
                    cur,
                    Frame::Slice(cur, data[cur as usize..off as usize].to_vec().into()),
                ));
            }
            cur = off + fdata.len() as u64;
            tasks.push((ready, p.checl, off, Frame::Slice(off, fdata)));
        }
        if cur < p.size {
            drained_bytes += p.size - cur;
            tasks.push((
                landed,
                p.checl,
                cur,
                Frame::Slice(cur, data[cur as usize..p.size as usize].to_vec().into()),
            ));
        }
    }
    tasks.sort_by_key(|t| (t.0, t.1, t.2));
    for (ready, handle, _off, frame) in tasks {
        on_disk(
            cluster,
            app_pid,
            channels,
            disk,
            ready,
            "drain.append",
            |cluster| frame.append(writer, cluster, handle),
        )?;
    }
    // Seal, then publish by one rename.
    let (file_size, sealed) = seal_stream(cluster, app_pid, writer, channels, disk, cut)?;
    cluster
        .rename_file(app_pid, tmp, path)
        .map_err(|e| CheclCprError::Cpr(CprError::Fs(e)))?;
    Ok((file_size, sealed, drained_bytes))
}

/// Phase 1, shared by both data paths: drain the host and every
/// command queue. Emits the quiesce-after span.
fn sync_queues(lib: &mut ChecLib, now: &mut SimTime) -> Result<SimDuration, CheclCprError> {
    let t0 = *now;
    telemetry::span_begin("cpr", telemetry::QUIESCE_AFTER, t0, Vec::new());
    let queues: Vec<RawHandle> = lib
        .db
        .live_of_kind(HandleKind::CommandQueue)
        .map(|e| e.vendor)
        .collect();
    let queue_count = queues.len();
    for q in queues {
        lib.forward(
            now,
            ApiRequest::Finish {
                queue: CommandQueue::from_raw(q),
            },
        )?;
    }
    let sync = now.since(t0);
    telemetry::span_end(
        "cpr",
        telemetry::QUIESCE_AFTER,
        *now,
        vec![("queues", queue_count.into())],
    );
    Ok(sync)
}

/// Per-buffer checkpoint plan: `(checl handle, vendor handle, context,
/// size)`.
type MemPlan = (u64, RawHandle, u64, u64);

/// Provenance facts of one snapshot attempt, recorded in the obs
/// ledger at commit: the buffer/byte/chunk accounting of the payload.
#[derive(Clone, Debug, Default)]
pub(crate) struct DumpProvenance {
    /// Live buffers considered.
    buffers: u64,
    /// Chunk frames written (streamed format only).
    chunks: u64,
    /// Logical bytes across all live buffers.
    logical_bytes: u64,
}

fn dump_provenance(mems: &[MemPlan], streamed: bool) -> DumpProvenance {
    let buffers = mems.len() as u64;
    DumpProvenance {
        buffers,
        chunks: if streamed { buffers } else { 0 },
        logical_bytes: mems.iter().map(|m| m.3).sum(),
    }
}

fn collect_mems(lib: &ChecLib) -> Vec<MemPlan> {
    lib.db
        .live_of_kind(HandleKind::Mem)
        .map(|e| {
            let (context, size) = match &e.record {
                ObjectRecord::Mem { context, size, .. } => (*context, *size),
                _ => unreachable!("kind filter"),
            };
            (e.checl, e.vendor, context, size)
        })
        .collect()
}

/// The sequential preprocess phase from `now`: copy each buffer of `mems`
/// to its record's `saved_data` (the device's payload, shared) and mark
/// it clean and saved in `path`. Returns when the last copy released.
fn save_to_host(
    lib: &mut ChecLib,
    mems: &[MemPlan],
    path: &str,
    mut now: SimTime,
) -> Result<SimTime, CheclCprError> {
    for &(checl_mem, vendor_mem, context, size) in mems {
        let (queue, _) = queue_and_device_in_context(lib, context)
            .ok_or(CheclCprError::Cl(ClError::InvalidContext))?;
        let (data, _, released) =
            read_device(lib, queue, vendor_mem, 0, size, now, |cost| now + cost)?;
        now = released;
        if let Some(e) = lib.db.get_mut(checl_mem) {
            if let ObjectRecord::Mem {
                saved_data,
                dirty,
                saved_in,
                ..
            } = &mut e.record
            {
                *saved_data = Some(data);
                *dirty = false;
                *saved_in = Some(path.to_string());
            }
        }
    }
    Ok(now)
}

/// The engine's one device-to-host copy: a blocking read of `size`
/// bytes at `offset` of vendor buffer `mem` on vendor queue `queue`,
/// forwarded at `start`, then the release of its event. `land` books
/// the read's duration (on a channel, or nowhere) and returns when the
/// copy landed; the release is forwarded from there. Returns the
/// bytes, when they landed, and when the release returned.
fn read_device(
    lib: &mut ChecLib,
    queue: RawHandle,
    mem: RawHandle,
    offset: u64,
    size: u64,
    start: SimTime,
    land: impl FnOnce(SimDuration) -> SimTime,
) -> Result<(Payload, SimTime, SimTime), ClError> {
    let mut t = start;
    let (data, event) = lib
        .forward(
            &mut t,
            ApiRequest::EnqueueReadBuffer {
                queue: CommandQueue::from_raw(queue),
                mem: Mem::from_raw(mem),
                blocking: true,
                offset,
                size,
                wait_list: vec![],
            },
        )?
        .into_data_event()?;
    let landed = land(t.since(start));
    let mut released = landed;
    lib.forward(&mut released, ApiRequest::ReleaseEvent { event })?;
    Ok((data, landed, released))
}

/// One I/O step on the storage channel `disk`: it starts once `disk`
/// is free and `ready` has passed, `io` charges its cost to `pid`'s
/// clock, and that elapsed time is placed on `disk` as `label`.
/// Returns `io`'s value and when the step ended.
fn on_disk<T>(
    cluster: &mut Cluster,
    pid: Pid,
    channels: &mut ChannelSet,
    disk: ChannelId,
    ready: SimTime,
    label: &str,
    io: impl FnOnce(&mut Cluster) -> Result<T, CprError>,
) -> Result<(T, SimTime), CprError> {
    let start = channels.free_at(disk).max(ready);
    cluster.process_mut(pid).clock = start;
    let value = io(cluster)?;
    let cost = cluster.process(pid).clock.since(start);
    Ok((value, channels.place(disk, start, cost, label).end))
}

/// Open the stream on `path` (`<path>.tmp` until sealed): its header
/// frame, the process image as it stands, goes first.
fn open_stream(
    cluster: &mut Cluster,
    pid: Pid,
    path: &str,
    channels: &mut ChannelSet,
    disk: ChannelId,
    ready: SimTime,
) -> Result<StreamWriter, CprError> {
    on_disk(
        cluster,
        pid,
        channels,
        disk,
        ready,
        "stream.header",
        |cluster| StreamWriter::begin(cluster, pid, path),
    )
    .map(|(writer, _)| writer)
}

/// Seal an open stream. Returns the file size and when the commit
/// landed.
fn seal_stream(
    cluster: &mut Cluster,
    pid: Pid,
    writer: &mut StreamWriter,
    channels: &mut ChannelSet,
    disk: ChannelId,
    ready: SimTime,
) -> Result<(ByteSize, SimTime), CprError> {
    let ((file_size, _), sealed) = on_disk(
        cluster,
        pid,
        channels,
        disk,
        ready,
        "stream.commit",
        |cluster| writer.finish(cluster),
    )?;
    Ok((file_size, sealed))
}

/// One payload frame of a buffer.
enum Frame<'a> {
    Chunk(Payload),
    Map {
        store: &'a str,
        total_len: u64,
        segments: Vec<(u64, u64)>,
    },
    /// `(offset, bytes)`: one run of a live-drained buffer.
    Slice(u64, Payload),
}

impl Frame<'_> {
    fn append(
        self,
        writer: &mut StreamWriter,
        cluster: &mut Cluster,
        handle: u64,
    ) -> Result<SimDuration, CprError> {
        match self {
            Frame::Chunk(data) => writer.append_chunk(cluster, handle, data),
            Frame::Map {
                store,
                total_len,
                segments,
            } => writer.append_chunk_map(cluster, handle, store, total_len, segments),
            Frame::Slice(offset, data) => writer.append_slice(cluster, handle, offset, data),
        }
    }
}

/// The overlapped copy/stream window of every stop-the-world streamed
/// snapshot: open the stream, then for each buffer place the D2H copy
/// on its device's PCIe channel and the payload frame on the storage
/// channel, and seal. The payload step is the only branch: an inline
/// chunk frame, or under `dedup` a chunk-map frame ([`DedupPass`],
/// whose store opens ahead of the header). Returns `(end of the last
/// copy, end of the commit, file size, dedup stats)`. On error the temp
/// is aborted; the caller rolls the bookkeeping back.
fn streamed_data_path(
    lib: &mut ChecLib,
    cluster: &mut Cluster,
    app_pid: Pid,
    path: &str,
    mems: &[MemPlan],
    channels: &mut ChannelSet,
    dedup: bool,
) -> Result<(SimTime, SimTime, ByteSize, Option<DedupStats>), CheclCprError> {
    let phase0 = channels.origin();
    let disk = channels.channel(storage_channel_name(cluster, app_pid, path));
    let ipc = channels.channel("ipc");
    let mut dedup = if dedup {
        Some(DedupPass::open(
            lib, cluster, app_pid, path, channels, disk,
        )?)
    } else {
        None
    };
    let mut writer = open_stream(cluster, app_pid, path, channels, disk, phase0)?;
    let mut stream = || -> Result<(SimTime, SimTime, ByteSize), CheclCprError> {
        let mut copies_done = phase0;
        for &(checl_mem, vendor_mem, context, size) in mems {
            // D2H copy: starts as soon as this device's PCIe link frees
            // up; the event release is cheap app↔proxy chatter on its
            // own channel.
            let mut copy = |lib: &mut ChecLib,
                            channels: &mut ChannelSet|
             -> Result<(Payload, SimTime), CheclCprError> {
                let (q_vendor, dev_index) = queue_and_device_in_context(lib, context)
                    .ok_or(CheclCprError::Cl(ClError::InvalidContext))?;
                let pcie = pcie_channel(channels, dev_index);
                let ready = channels.free_at(pcie).max(phase0);
                let (data, landed, released) =
                    read_device(lib, q_vendor, vendor_mem, 0, size, ready, |cost| {
                        channels.place(pcie, ready, cost, "d2h").end
                    })?;
                let rel = channels.place(ipc, landed, released.since(landed), "release");
                copies_done = copies_done.max(rel.end);
                Ok((data, landed))
            };
            let (ready, frame, label) = match &mut dedup {
                // Stream the chunk while the next copy is in flight;
                // encoding the shared payload is the one host copy.
                None => {
                    let (data, landed) = copy(lib, channels)?;
                    (landed, Frame::Chunk(data), "stream.chunk")
                }
                Some(pass) => {
                    let (staged, segments) =
                        pass.payload(lib, cluster, channels, checl_mem, size, copy)?;
                    let frame = Frame::Map {
                        store: &pass.store_path,
                        total_len: size,
                        segments,
                    };
                    (staged, frame, "stream.map")
                }
            };
            on_disk(cluster, app_pid, channels, disk, ready, label, |cluster| {
                frame.append(&mut writer, cluster, checl_mem)
            })?;
        }
        // Seal + atomically publish once the last frame has landed.
        let (file_size, sealed) =
            seal_stream(cluster, app_pid, &mut writer, channels, disk, copies_done)?;
        Ok((copies_done, sealed, file_size))
    };
    let (copies_done, sealed, file_size) = stream().inspect_err(|_| writer.abort(cluster))?;
    Ok((
        copies_done,
        sealed,
        file_size,
        dedup.map(|pass| pass.finish(lib)),
    ))
}

/// The content-addressed payload step of a dedup snapshot: each
/// buffer's payload is content-defined-chunked, deduplicated against
/// the shared chunk store (`checl.cas` beside the dump), compressed on
/// the `cpu.compress` CPU channel, and referenced from the stream by a
/// chunk-map frame instead of riding inline. Dirty-region tracking lets
/// chunks whose span no write touched since the last generation skip
/// even the hashing pass, and a buffer no write touched at all skip its
/// device read too.
struct DedupPass {
    /// The shared chunk store (`checl.cas` beside the dump).
    store_path: String,
    disk: ChannelId,
    compress: ChannelId,
    stats: DedupStats,
    /// Every chunk this dump's maps reference.
    referenced: Vec<(u64, u64)>,
}

impl DedupPass {
    /// Open (or reuse) the chunk store shared by dumps beside `path`. A
    /// cold open scans any existing records to rebuild the hash index —
    /// that read goes to the disk channel before anything else happens.
    fn open(
        lib: &mut ChecLib,
        cluster: &mut Cluster,
        app_pid: Pid,
        path: &str,
        channels: &mut ChannelSet,
        disk: ChannelId,
    ) -> Result<DedupPass, CprError> {
        let store_path = chunk_store_path(path);
        let compress = channels.channel("cpu.compress");
        if lib
            .chunk_store
            .as_ref()
            .map(|s| s.path() != store_path)
            .unwrap_or(true)
        {
            let ready = channels.origin();
            let (store, _) = on_disk(
                cluster,
                app_pid,
                channels,
                disk,
                ready,
                "store.open",
                |cluster| ChunkStore::open(cluster, app_pid, &store_path),
            )?;
            lib.chunk_store = Some(store);
        }
        Ok(DedupPass {
            store_path,
            disk,
            compress,
            stats: DedupStats::default(),
            referenced: Vec::new(),
        })
    }

    /// The chunk map of buffer `checl_mem` (`size` bytes) and when it
    /// is ready to append. `copy` is the buffer's D2H copy (the bytes
    /// and when they landed), skipped when the buffer is unchanged
    /// since its last dedup generation.
    #[allow(clippy::type_complexity)]
    fn payload(
        &mut self,
        lib: &mut ChecLib,
        cluster: &mut Cluster,
        channels: &mut ChannelSet,
        checl_mem: u64,
        size: u64,
        copy: impl FnOnce(&mut ChecLib, &mut ChannelSet) -> Result<(Payload, SimTime), CheclCprError>,
    ) -> Result<(SimTime, Vec<(u64, u64)>), CheclCprError> {
        // What the record knows about this buffer's history: the dirty
        // regions written since the last dedup generation, and that
        // generation's chunk list (offsets reconstructible by cumulative
        // sum). `saved_chunks` only survives while the tracking is
        // trustworthy — whole-extent invalidation (restore, failed or
        // aborted write, live cut) clears it, and whole-buffer dirtying
        // is recorded as one `(0, size)` region — so "previous chunk at
        // the same cut points, no intersecting dirty region" proves the
        // bytes are unchanged.
        let (regions, prev) = match lib.db.get(checl_mem).map(|e| &e.record) {
            Some(ObjectRecord::Mem {
                dirty_regions,
                saved_chunks,
                ..
            }) => (
                crate::objects::merge_regions(dirty_regions.clone()),
                saved_chunks.clone(),
            ),
            _ => (Vec::new(), None),
        };
        // The §IV-D incremental fast path: no write since the last
        // generation (an empty region list — every dirtying records a
        // region, so this also stands for the `dirty` bit, which the
        // caller already reset for this attempt) and a chunk list that
        // covers the buffer with every chunk still in the store. The
        // buffer re-emits its previous chunk map without a device read
        // and with exactly the stats a region-clean rescan would give.
        let store = lib.chunk_store.as_ref().expect("store opened");
        let unchanged = regions.is_empty()
            && prev.as_ref().is_some_and(|chunks| {
                chunks.iter().map(|&(_, len)| len).sum::<u64>() == size
                    && chunks.iter().all(|&(hash, _)| store.contains(hash))
            });
        let stats = &mut self.stats;
        let (staged, segments) = match prev {
            Some(segments) if unchanged => {
                let n = segments.len() as u64;
                stats.chunks_total += n;
                stats.chunks_deduped += n;
                stats.chunks_region_clean += n;
                stats.raw_bytes += size;
                stats.deduped_bytes += size;
                (channels.origin(), segments)
            }
            prev => {
                let (data, landed) = copy(lib, channels)?;
                let mut prev_at: BTreeMap<(u64, u64), u64> = BTreeMap::new();
                let mut off = 0u64;
                for (hash, len) in prev.into_iter().flatten() {
                    prev_at.insert((off, len), hash);
                    off += len;
                }
                let segs = cdc_chunks(&data);
                let mut segments: Vec<(u64, u64)> = Vec::with_capacity(segs.len());
                let mut cpu = SimDuration::ZERO;
                let mut io = SimDuration::ZERO;
                let store = lib.chunk_store.as_mut().expect("store opened");
                for &(off, len) in &segs {
                    stats.chunks_total += 1;
                    stats.raw_bytes += len;
                    // Dirty-region fast path: a chunk whose cut points
                    // match the previous generation and whose span no
                    // write touched holds the same bytes — reuse its
                    // hash without rescanning.
                    let clean = !crate::objects::intersects_regions(&regions, off, len)
                        && prev_at.get(&(off, len)).is_some_and(|h| store.contains(*h));
                    if clean {
                        let hash = prev_at[&(off, len)];
                        stats.chunks_deduped += 1;
                        stats.chunks_region_clean += 1;
                        stats.deduped_bytes += len;
                        segments.push((hash, len));
                        continue;
                    }
                    cpu += calib::chunking_bandwidth().transfer_time(ByteSize::bytes(len));
                    let slice = &data[off as usize..(off + len) as usize];
                    let (hash, outcome) = store.put(cluster, slice)?;
                    match outcome {
                        PutOutcome::Deduped(_) => {
                            stats.chunks_deduped += 1;
                            stats.deduped_bytes += len;
                        }
                        PutOutcome::Stored(meta, cost) => {
                            cpu += calib::compress_bandwidth().transfer_time(ByteSize::bytes(len));
                            stats.stored_bytes += meta.stored_len;
                            io += cost;
                        }
                    }
                    segments.push((hash, len));
                }
                // Chunking + compression overlap other buffers' PCIe and
                // disk work on the CPU channel; store appends and the map
                // frame then serialize on the disk channel behind them.
                let mut staged = landed;
                if cpu > SimDuration::ZERO {
                    let cready = channels.free_at(self.compress).max(landed);
                    let cp = channels.place(self.compress, cready, cpu, "chunk.compress");
                    stats.compress_ns += cpu.as_nanos();
                    staged = cp.end;
                }
                if io > SimDuration::ZERO {
                    let sready = channels.free_at(self.disk).max(staged);
                    staged = channels.place(self.disk, sready, io, "store.append").end;
                }
                (staged, segments)
            }
        };
        self.referenced.extend_from_slice(&segments);
        if let Some(e) = lib.db.get_mut(checl_mem) {
            if let ObjectRecord::Mem {
                dirty_regions,
                saved_chunks,
                ..
            } = &mut e.record
            {
                dirty_regions.clear();
                *saved_chunks = Some(segments.clone());
            }
        }
        Ok((staged, segments))
    }

    /// The pass's chunk accounting.
    fn finish(mut self, lib: &ChecLib) -> DedupStats {
        self.stats.store_referenced_bytes = lib
            .chunk_store
            .as_ref()
            .expect("store opened")
            .referenced_bytes(&self.referenced);
        self.stats
    }
}

/// Phase 4 + report assembly, shared by both data paths: free the host
/// copies, close the checkpoint span, bump the counters. `channels` is
/// present for the pipelined path only and contributes the
/// overlap-saved accounting.
#[allow(clippy::too_many_arguments)]
fn finish_snapshot(
    lib: &mut ChecLib,
    cluster: &mut Cluster,
    app_pid: Pid,
    mut now: SimTime,
    start: SimTime,
    sync: SimDuration,
    preprocess: SimDuration,
    write: SimDuration,
    file_size: ByteSize,
    channels: Option<&ChannelSet>,
    dedup: Option<DedupStats>,
) -> CheckpointReport {
    let t0 = now;
    telemetry::span_begin("cpr", "checkpoint.postprocess", t0, Vec::new());
    let mem_handles: Vec<u64> = lib
        .db
        .live_of_kind(HandleKind::Mem)
        .map(|e| e.checl)
        .collect();
    for h in mem_handles {
        if let Some(e) = lib.db.get_mut(h) {
            if let ObjectRecord::Mem { saved_data, .. } = &mut e.record {
                *saved_data = None;
            }
        }
        now += SimDuration::from_micros(15); // free()
    }
    cluster.process_mut(app_pid).image.take(CHECL_STATE_SEGMENT);
    cluster.process_mut(app_pid).clock = now;
    let postprocess = now.since(t0);
    telemetry::span_end("cpr", "checkpoint.postprocess", now, Vec::new());

    let report = CheckpointReport {
        sync,
        preprocess,
        write,
        postprocess,
        file_size,
        overlap_saved: channels
            .map(|c| c.overlap_saved())
            .unwrap_or(SimDuration::ZERO),
        dedup,
    };
    debug_assert_eq!(now.since(start), report.total());
    let mut close_args = vec![
        ("total_ns", report.total().into()),
        ("file_bytes", file_size.as_u64().into()),
    ];
    if channels.is_some() {
        close_args.push(("overlap_saved_ns", report.overlap_saved.into()));
    }
    telemetry::span_end("cpr", "checkpoint", now, close_args);
    if telemetry::enabled() {
        telemetry::counter_add("cpr.checkpoints", 1);
        telemetry::observe("cpr.checkpoint_ns", report.total().as_nanos());
        if channels.is_some() {
            telemetry::observe("cpr.overlap_saved_ns", report.overlap_saved.as_nanos());
        }
    }
    if let Some(channels) = channels {
        emit_channel_utilization(channels, now);
    }
    report
}

/// Record a per-channel utilization snapshot of one overlapped
/// operation (checkpoint, live drain or restore data path): a ledger
/// entry per channel, and in a trace an instant per channel.
fn emit_channel_utilization(channels: &ChannelSet, now: SimTime) {
    if !telemetry::enabled() {
        return;
    }
    for stat in channels.stats() {
        obs::emit(
            "channel",
            now,
            obs::EventKind::ChannelObserved {
                channel: stat.name.clone(),
                busy_ns: stat.busy.as_nanos(),
                ops: stat.ops,
            },
        );
    }
}

/// Restore a CheCL application from `path` on `node`, whatever policy
/// wrote the file — the one restart entry point. The process that
/// becomes the restored application reads the file once and sniffs its
/// format ([`blcr::sniff_dump`]): a sequential dump continues as the
/// classic BLCR restart from those bytes, a streamed dump through the
/// overlapped chunk-read/upload pipeline. Either way the shim is rebuilt
/// from its dumped state, a new proxy is forked with `vendor`, and every
/// OpenCL object is re-created.
pub fn restore(
    cluster: &mut Cluster,
    node: NodeId,
    path: &str,
    vendor: VendorConfig,
    target: RestoreTarget,
) -> Result<(ChecLib, Pid, RestoreReport), CheclCprError> {
    let pid = cluster.spawn(node);
    let t0 = cluster.process(pid).clock;
    let bytes = match cluster.read_file(pid, path) {
        Ok(bytes) => bytes,
        Err(e) => {
            cluster.kill(pid);
            return Err(CheclCprError::Cpr(CprError::Fs(e)));
        }
    };
    let parsed = match blcr::sniff_dump(&bytes) {
        Ok(SniffedDump::Streamed(parsed)) => Some(*parsed),
        Err(e) if blcr::is_stream_file(bytes.body()) => {
            cluster.kill(pid);
            return Err(CheclCprError::Cpr(CprError::Corrupt(e)));
        }
        // Anything else is a sequential BLCR image, valid or not: the
        // read above is the restart's one read, booked and installed
        // exactly as `blcr::restart` does.
        image => {
            let image = image.map(SniffedDump::into_image);
            blcr::finish_restart(cluster, pid, path, t0, bytes.len(), image)?;
            None
        }
    };
    drop(bytes);

    let _scope = telemetry::track_scope(telemetry::Track::process(pid.0 as u64));
    let format = if parsed.is_some() {
        "streamed"
    } else {
        "sequential"
    };
    obs::emit(
        "engine",
        t0,
        obs::EventKind::RestoreStarted {
            path: path.to_string(),
            format: format.to_string(),
        },
    );
    let mut stream = parsed.map(|parsed| StreamRestore::begin(cluster, pid, path, t0, parsed));
    let state = cluster.process(pid).image.get(CHECL_STATE_SEGMENT);
    let mut lib = match state.map(ChecLib::decode_state) {
        Some(Ok(lib)) => lib,
        Some(Err(e)) => {
            cluster.kill(pid);
            return Err(CheclCprError::BadState(e));
        }
        None => {
            cluster.kill(pid);
            return Err(CheclCprError::MissingState);
        }
    };
    let mut args = vec![("path", path.into())];
    if stream.is_some() {
        args.push(("pipelined", 1u64.into()));
    }
    telemetry::span_begin("cpr", "restart", cluster.process(pid).clock, args);
    refork_proxy(cluster, &mut lib, pid, vendor);
    let mut now = cluster.process(pid).clock;
    let restored = restore_checl(&mut lib, &mut now, target).and_then(|mut report| {
        if let Some(stream) = &mut stream {
            now = stream.upload(cluster, &mut lib, pid, now, &mut report)?;
        }
        Ok(report)
    });
    let report = match restored {
        Ok(report) => report,
        Err(e) => {
            // Restore failed (e.g. the host has no usable device):
            // surface the typed error, but don't leak the half-restored
            // process or its proxy.
            restart_cleanup(cluster, &mut lib, pid, now, &e);
            return Err(e);
        }
    };
    cluster.process_mut(pid).clock = now;
    telemetry::span_end(
        "cpr",
        "restart",
        now,
        vec![("restore_total_ns", report.total().into())],
    );
    if let Some(stream) = &stream {
        emit_channel_utilization(&stream.channels, now);
    }
    obs::emit(
        "engine",
        now,
        obs::EventKind::RestoreCompleted {
            path: path.to_string(),
            objects: report.counts.values().map(|&n| n as u64).sum(),
            cost_ns: now.since(t0).as_nanos(),
        },
    );
    Ok((lib, pid, report))
}

/// The overlapped data path of a streamed restore. The file's frames
/// are accounted as one progressive scan on the storage channel, and
/// each buffer uploads over its device's PCIe channel once its bytes
/// are in host memory and the objects exist.
struct StreamRestore {
    /// The parsed stream; its payload frames are consumed by
    /// [`StreamRestore::upload`].
    parsed: blcr::ParsedStream,
    channels: ChannelSet,
    disk: ChannelId,
    ipc: ChannelId,
    read_link: LinkModel,
    /// When the header frame (the process image) is in host memory.
    hdr_end: SimTime,
}

impl StreamRestore {
    /// Charge the header frame's read to `pid` and install the dumped
    /// process image.
    fn begin(
        cluster: &mut Cluster,
        pid: Pid,
        path: &str,
        t0: SimTime,
        mut parsed: blcr::ParsedStream,
    ) -> StreamRestore {
        // The whole-file read validated the stream but charged the
        // clock as one blocking read; rewind and re-account it as a
        // progressive scan on the storage channel, so later chunks are
        // still streaming in while the restore is already running.
        cluster.process_mut(pid).clock = t0;
        let read_link = {
            let node_id = cluster.process(pid).node;
            cluster
                .node(node_id)
                .resolve(path)
                .map(|(fs, _)| cluster.fs(fs).kind())
                .unwrap_or(FsKind::LocalDisk)
                .read_link()
        };
        let mut channels = ChannelSet::new(t0)
            .without_log()
            .with_telemetry(pid.0 as u64, CHANNEL_TRACK_BASE);
        let disk = channels.channel(storage_channel_name(cluster, pid, path));
        let ipc = channels.channel("ipc");
        let hdr = channels.place(
            disk,
            t0,
            read_link.cost(ByteSize::bytes(parsed.header_bytes)),
            "stream.header",
        );
        cluster.process_mut(pid).clock = hdr.end;
        cluster.process_mut(pid).image = std::mem::take(&mut parsed.header.image);
        StreamRestore {
            parsed,
            channels,
            disk,
            ipc,
            read_link,
            hdr_end: hdr.end,
        }
    }

    /// Read and upload every buffer payload of the stream, the objects
    /// having been re-created by `now`. Returns when the last upload and
    /// the file scan have both finished; the window past `now` counts
    /// toward the Mem row of `report` (the Fig. 7 breakdown).
    fn upload(
        &mut self,
        cluster: &mut Cluster,
        lib: &mut ChecLib,
        pid: Pid,
        now: SimTime,
        report: &mut RestoreReport,
    ) -> Result<SimTime, CheclCprError> {
        // The file scan, frame by frame in file order. Chunk stores the
        // chunk maps reference are read once each (serialized on the
        // storage channel behind the inline chunks) and decompressed on
        // the CPU channel, mirroring the dump-side compression.
        let chunk_read = self.read_frames(|p| &mut p.chunk_bytes, "stream.chunk");
        let mut store_ready: BTreeMap<String, SimTime> = BTreeMap::new();
        let stores = if self.parsed.maps.is_empty() {
            Stores::new()
        } else {
            let compress = self.channels.channel("cpu.compress");
            let maps = &self.parsed.maps;
            let (channels, disk, hdr_end) = (&mut self.channels, self.disk, self.hdr_end);
            load_stores(cluster, maps, |cluster, store| {
                let (loaded, loaded_at) = on_disk(
                    cluster,
                    pid,
                    channels,
                    disk,
                    hdr_end,
                    "store.load",
                    |cluster| ChunkStore::load_all(cluster, pid, store),
                )?;
                let raw: u64 = maps
                    .iter()
                    .filter(|m| m.store == store)
                    .map(|m| m.total_len)
                    .sum();
                let dready = channels.free_at(compress).max(loaded_at);
                let decompressed = channels.place(
                    compress,
                    dready,
                    calib::compress_bandwidth().transfer_time(ByteSize::bytes(raw)),
                    "chunk.decompress",
                );
                store_ready.insert(store.to_string(), decompressed.end);
                Ok(loaded)
            })?
        };
        let map_ready: Vec<SimTime> = self
            .read_frames(|p| &mut p.map_bytes, "stream.map")
            .into_iter()
            .zip(&self.parsed.maps)
            .map(|(read, map)| read.max(store_ready[&map.store]))
            .collect();
        let slice_read = self.read_frames(|p| &mut p.slice_bytes, "stream.slice");
        // The trailer + baseline padding finish the file scan.
        let tail = self.read_frame(self.parsed.tail_bytes, "stream.tail");

        // Each buffer uploads over its device's PCIe channel once all
        // the frames carrying its bytes are in host memory.
        let mut upload_end = now;
        for (handle, data, frames) in assemble_payloads(lib, &mut self.parsed, &stores)? {
            let in_memory = match frames {
                PayloadFrames::Chunk(i) => chunk_read[i],
                PayloadFrames::Map(i) => map_ready[i],
                PayloadFrames::Slices(slices) => slices
                    .into_iter()
                    .fold(self.hdr_end, |t, i| t.max(slice_read[i])),
            };
            let end = self.upload_buffer(lib, handle, data, in_memory, now)?;
            upload_end = upload_end.max(end);
        }
        let end = upload_end.max(tail).max(now);
        let stream_wall = end.since(now);
        if stream_wall > SimDuration::ZERO {
            *report
                .per_kind
                .entry(HandleKind::Mem)
                .or_insert(SimDuration::ZERO) += stream_wall;
        }
        Ok(end)
    }

    /// [`read_frame`](Self::read_frame) every frame of one section of
    /// the parsed stream, in file order.
    fn read_frames(
        &mut self,
        section: fn(&mut blcr::ParsedStream) -> &mut Vec<u64>,
        label: &str,
    ) -> Vec<SimTime> {
        std::mem::take(section(&mut self.parsed))
            .into_iter()
            .map(|len| self.read_frame(len, label))
            .collect()
    }

    /// Place the read of one `len`-byte frame on the storage channel;
    /// frames follow the header in file order. Returns when the frame
    /// is in host memory.
    fn read_frame(&mut self, len: u64, label: &str) -> SimTime {
        let cost = self.read_link.bandwidth.transfer_time(ByteSize::bytes(len));
        self.channels
            .place(self.disk, self.hdr_end, cost, label)
            .end
    }

    /// Upload `data` into buffer `handle` once it is in host memory
    /// (`in_memory`), the objects exist (`now`) and its device's PCIe
    /// link is free. Returns when the upload's event release lands.
    fn upload_buffer(
        &mut self,
        lib: &mut ChecLib,
        handle: u64,
        data: Payload,
        in_memory: SimTime,
        now: SimTime,
    ) -> Result<SimTime, CheclCprError> {
        let context = match lib.db.get(handle).map(|e| &e.record) {
            Some(ObjectRecord::Mem { context, .. }) => *context,
            _ => return Err(CheclCprError::MissingState),
        };
        let vendor_mem = lib
            .db
            .vendor_of(handle)
            .ok_or(CheclCprError::MissingState)?;
        let (q_vendor, dev_index) = queue_and_device_in_context(lib, context)
            .ok_or(CheclCprError::Cl(ClError::InvalidContext))?;
        let pcie = pcie_channel(&mut self.channels, dev_index);
        let ready = self.channels.free_at(pcie).max(in_memory).max(now);
        let mut t = ready;
        let ev = lib
            .forward(
                &mut t,
                ApiRequest::EnqueueWriteBuffer {
                    queue: CommandQueue::from_raw(q_vendor),
                    mem: Mem::from_raw(vendor_mem),
                    blocking: true,
                    offset: 0,
                    data,
                    wait_list: vec![],
                },
            )?
            .into_event()?;
        let up = self.channels.place(pcie, ready, t.since(ready), "h2d");
        let mut t2 = up.end;
        lib.forward(&mut t2, ApiRequest::ReleaseEvent { event: ev })?;
        Ok(self
            .channels
            .place(self.ipc, up.end, t2.since(up.end), "release")
            .end)
    }
}

/// Close the restart span and tear down the half-restored process and
/// its proxy after a mid-restart failure.
fn restart_cleanup(
    cluster: &mut Cluster,
    lib: &mut ChecLib,
    pid: Pid,
    now: SimTime,
    err: &CheclCprError,
) {
    cluster.process_mut(pid).clock = now;
    telemetry::span_end(
        "cpr",
        "restart",
        now,
        vec![("error", err.to_string().into())],
    );
    kill_proxy(cluster, lib);
    cluster.kill(pid);
}

/// Rebuild a [`ChecLib`] from a sniffed dump: fetch + decode the CheCL
/// state segment, and for a streamed dump re-attach the buffer payloads
/// ([`assemble_payloads`], reading the chunk stores its chunk maps
/// reference from `cluster`), so downstream code is format-agnostic.
/// Callers own the mapping of the sniff error itself.
pub(crate) fn shim_from_dump_on(
    cluster: &mut Cluster,
    pid: Pid,
    dump: SniffedDump,
) -> Result<ChecLib, CheclCprError> {
    let (image, parsed) = match dump {
        SniffedDump::Sequential(ck) => (ck.image, None),
        SniffedDump::Streamed(mut parsed) => {
            (std::mem::take(&mut parsed.header.image), Some(parsed))
        }
    };
    let state = image
        .get(CHECL_STATE_SEGMENT)
        .ok_or(CheclCprError::MissingState)?;
    let mut lib = ChecLib::decode_state(state).map_err(CheclCprError::BadState)?;
    if let Some(mut parsed) = parsed {
        let stores = load_stores(cluster, &parsed.maps, |cluster, store| {
            ChunkStore::load_all(cluster, pid, store)
        })?;
        for (handle, data, _) in assemble_payloads(&lib, &mut parsed, &stores)? {
            if let Some(e) = lib.db.get_mut(handle) {
                if let ObjectRecord::Mem { saved_data, .. } = &mut e.record {
                    *saved_data = Some(data);
                }
            }
        }
    }
    Ok(lib)
}

/// Loaded chunk stores: store path → chunk hash → raw chunk bytes.
type Stores = BTreeMap<String, BTreeMap<u64, Vec<u8>>>;

/// Read every chunk store `maps` reference, each once, in order of
/// first reference. `load` reads one store (and books its cost).
fn load_stores(
    cluster: &mut Cluster,
    maps: &[blcr::StreamChunkMap],
    mut load: impl FnMut(&mut Cluster, &str) -> Result<BTreeMap<u64, Vec<u8>>, CprError>,
) -> Result<Stores, CprError> {
    let mut stores = Stores::new();
    for map in maps {
        if !stores.contains_key(&map.store) {
            let chunks = load(cluster, &map.store)?;
            stores.insert(map.store.clone(), chunks);
        }
    }
    Ok(stores)
}

/// The frames one assembled payload came from, by index into the
/// parsed stream's chunk, chunk-map or slice frames.
enum PayloadFrames {
    Chunk(usize),
    Map(usize),
    Slices(Vec<usize>),
}

/// The one decoder from a streamed dump's payload frames to buffer
/// bytes, shared by the timed restore and the shim rebuild (post-write
/// verify, proxy respawn). Consumes the frames and returns exactly one
/// payload per live Mem record of `lib`, of exactly its recorded size,
/// with the frames it came from: chunks and chunk maps in file order,
/// then slice groups by handle. A frame naming an unknown or already
/// filled buffer, a payload of the wrong length, and a buffer no frame
/// fills are corruption. Payloads are moved, never cloned.
fn assemble_payloads(
    lib: &ChecLib,
    parsed: &mut blcr::ParsedStream,
    stores: &Stores,
) -> Result<Vec<(u64, Payload, PayloadFrames)>, CheclCprError> {
    // Live buffers still waiting for their payload, with their sizes.
    let mut unfilled: BTreeMap<u64, u64> = lib
        .db
        .live_of_kind(HandleKind::Mem)
        .filter_map(|e| match e.record {
            ObjectRecord::Mem { size, .. } => Some((e.checl, size)),
            _ => None,
        })
        .collect();
    let mut fill = |handle: u64| {
        unfilled
            .remove(&handle)
            .ok_or_else(|| corrupt("payload frame names no unfilled buffer"))
    };
    let mut payloads = Vec::with_capacity(parsed.chunks.len() + parsed.maps.len());
    for (i, chunk) in std::mem::take(&mut parsed.chunks).into_iter().enumerate() {
        if chunk.data.len() as u64 != fill(chunk.handle)? {
            return Err(corrupt("chunk frame length does not match its buffer"));
        }
        payloads.push((chunk.handle, chunk.data, PayloadFrames::Chunk(i)));
    }
    for (i, map) in std::mem::take(&mut parsed.maps).into_iter().enumerate() {
        if map.total_len != fill(map.handle)? {
            return Err(corrupt("chunk map length does not match its buffer"));
        }
        let data = assemble_from_store(stores, &map)?;
        payloads.push((map.handle, data.into(), PayloadFrames::Map(i)));
    }
    // Live-drained buffers arrive as out-of-order slice frames.
    type SliceGroup = (Vec<(u64, Payload)>, Vec<usize>);
    let mut groups: BTreeMap<u64, SliceGroup> = BTreeMap::new();
    for (i, slice) in std::mem::take(&mut parsed.slices).into_iter().enumerate() {
        let group = groups.entry(slice.handle).or_default();
        group.0.push((slice.offset, slice.data));
        group.1.push(i);
    }
    for (handle, (parts, frames)) in groups {
        let data = assemble_from_slices(fill(handle)?, parts)?;
        payloads.push((handle, data.into(), PayloadFrames::Slices(frames)));
    }
    if !unfilled.is_empty() {
        return Err(corrupt("a buffer has no payload frame"));
    }
    Ok(payloads)
}

/// A typed corruption error for a restore-side consistency check.
fn corrupt(why: &'static str) -> CheclCprError {
    CheclCprError::Cpr(CprError::Corrupt(simcore::CodecError::Invalid(why)))
}

/// Reassemble one buffer's payload from its chunk-map frame and the
/// already-loaded stores. A hash the store no longer yields means the
/// dump outlived its chunk store — surfaced as corruption. Every chunk
/// is resolved before anything is allocated, so a lying `total_len`
/// costs nothing but the error.
fn assemble_from_store(
    stores: &BTreeMap<String, BTreeMap<u64, Vec<u8>>>,
    map: &blcr::StreamChunkMap,
) -> Result<Vec<u8>, CheclCprError> {
    let store = stores
        .get(&map.store)
        .ok_or_else(|| corrupt("chunk map names a store that was not loaded"))?;
    let mut chunks: Vec<&[u8]> = Vec::with_capacity(map.segments.len());
    let mut total = 0u64;
    for &(hash, len) in &map.segments {
        let chunk = store
            .get(&hash)
            .ok_or_else(|| corrupt("chunk store is missing a referenced chunk"))?;
        if chunk.len() as u64 != len {
            return Err(corrupt("chunk store length mismatch"));
        }
        total += len;
        chunks.push(chunk);
    }
    if total != map.total_len {
        return Err(corrupt("chunk map reassembly length mismatch"));
    }
    Ok(chunks.concat())
}

/// Reassemble one buffer's payload from its out-of-order slice frames.
/// A committed live dump's slices exactly tile `[0, size)` — gaps,
/// overlaps, or overruns are surfaced as corruption. The tiling is
/// checked before anything is allocated, so `size` (read out of the
/// dumped state) is only trusted once the slices actually back it.
fn assemble_from_slices(
    size: u64,
    mut parts: Vec<(u64, Payload)>,
) -> Result<Vec<u8>, CheclCprError> {
    parts.sort_by_key(|p| p.0);
    let mut cur = 0u64;
    for (off, part) in &parts {
        if *off != cur {
            return Err(corrupt("slice frames do not tile the buffer"));
        }
        cur += part.len() as u64;
    }
    if cur != size {
        return Err(corrupt("slice frames do not cover the buffer"));
    }
    let mut data = Vec::with_capacity(size as usize);
    for (_, part) in parts {
        data.extend_from_slice(&part);
    }
    Ok(data)
}

/// Post-write verification for a snapshot in either format: the file
/// must be the expected length (catches short writes), its frame
/// checksums must hold (catches corruption in the live region), and
/// the CheCL state segment must decode. Corruption confined to the
/// zero padding of the process image is invisible here — and harmless,
/// since a restore never reads it.
fn verify_snapshot_file(
    cluster: &mut Cluster,
    pid: Pid,
    path: &str,
    expected_len: u64,
) -> Result<(), CheclCprError> {
    let bytes = cluster
        .read_file(pid, path)
        .map_err(|e| CheclCprError::Cpr(CprError::Fs(e)))?;
    if bytes.len() != expected_len {
        return Err(corrupt("checkpoint read-back length mismatch"));
    }
    let dump = blcr::sniff_dump(&bytes).map_err(|e| CheclCprError::Cpr(CprError::Corrupt(e)))?;
    shim_from_dump_on(cluster, pid, dump)?;
    Ok(())
}

/// Rewrite `saved_in` references from the temp name to the committed
/// name after a successful rename.
pub(crate) fn repoint_saves(lib: &mut ChecLib, from: &str, to: &str) {
    let mems: Vec<u64> = lib
        .db
        .live_of_kind(HandleKind::Mem)
        .map(|e| e.checl)
        .collect();
    for h in mems {
        if let Some(entry) = lib.db.get_mut(h) {
            if let ObjectRecord::Mem { saved_in, .. } = &mut entry.record {
                if saved_in.as_deref() == Some(from) {
                    *saved_in = Some(to.to_string());
                }
            }
        }
    }
}

/// Roll back a failed or aborted attempt's buffer bookkeeping: forget
/// references to the file at `path` (a temp that was deleted, or a
/// write that never landed) and re-dirty the affected buffers (whole
/// extent), so the next dedup generation re-reads and re-chunks them
/// instead of trusting chunk lists from the abandoned attempt.
pub(crate) fn invalidate_saves(lib: &mut ChecLib, path: &str) {
    let mems: Vec<u64> = lib
        .db
        .live_of_kind(HandleKind::Mem)
        .map(|e| e.checl)
        .collect();
    for h in mems {
        if let Some(entry) = lib.db.get_mut(h) {
            if let ObjectRecord::Mem {
                saved_data,
                saved_in,
                dirty,
                dirty_regions,
                saved_chunks,
                ..
            } = &mut entry.record
            {
                if saved_in.as_deref() == Some(path) {
                    *saved_data = None;
                    *saved_in = None;
                    *dirty = true;
                    dirty_regions.clear();
                    *saved_chunks = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boot::boot_checl;
    use crate::runtime::CheclConfig;
    use clspec::types::{DeviceType, MemFlags, QueueProps};
    use clspec::Ocl;

    /// The preprocess phase saves each buffer without a host copy, and a
    /// later write to the buffer leaves the saved bytes as they were.
    #[test]
    fn a_sequential_snapshot_saves_each_buffer_shared_with_the_device() {
        let mut cluster = Cluster::with_standard_nodes(1);
        let pid = cluster.spawn(cluster.node_ids()[0]);
        let vendor = cldriver::vendor::nimbus();
        let mut lib = boot_checl(&mut cluster, pid, vendor, CheclConfig::default()).lib;
        let mut now = cluster.process(pid).clock;
        let host = Payload::from(vec![5u8; 256]);
        let mut ocl = Ocl::new(&mut lib, &mut now);
        let p = ocl.get_platform_ids().unwrap();
        let d = ocl.get_device_ids(p[0], DeviceType::All).unwrap();
        let ctx = ocl.create_context(&d[..1]).unwrap();
        let queue = ocl
            .create_command_queue(ctx, d[0], QueueProps::default())
            .unwrap();
        let flags = MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR;
        let mem = ocl
            .create_buffer(ctx, flags, 256, Some(host.clone()))
            .unwrap();

        let mems = collect_mems(&lib);
        now = save_to_host(&mut lib, &mems, "/local/a.ckpt", now).unwrap();
        let saved = match &lib.db.get(mem.raw().0).unwrap().record {
            ObjectRecord::Mem {
                saved_data: Some(data),
                ..
            } => data.clone(),
            other => panic!("not saved: {other:?}"),
        };
        assert!(saved.ptr_eq(&host));

        let mut ocl = Ocl::new(&mut lib, &mut now);
        ocl.enqueue_write_buffer(queue, mem, true, 0, vec![9u8; 16].into(), &[])
            .unwrap();
        assert_eq!(saved[..], [5u8; 256]);
    }
}
