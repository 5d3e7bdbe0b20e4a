//! The checkpoint/restart report and error types, and the §III-C
//! object replay.
//!
//! Checkpoint = synchronize → preprocess (device→host copies) → write
//! (BLCR dump) → postprocess (free the copies). Restart = BLCR restore
//! → fork a new proxy → re-create OpenCL objects in dependency order →
//! upload user data → mint dummy events.
//!
//! Both procedures run in [`crate::engine`]: [`crate::snapshot`] under
//! a [`crate::CprPolicy`], and [`crate::restore`] for a dump of any
//! format. This module holds what they report ([`CheckpointReport`],
//! [`RestoreReport`]) and how they fail ([`CheclCprError`]), plus object
//! re-creation itself ([`restore_checl`]): the §III-C dependency-order
//! replay, shared by every restore path and by proxy respawn.
//!
//! Replay runs the shim's path backwards. For each live record, in
//! [`HandleKind::RESTORE_ORDER`]:
//!
//! 1. [`ObjectRecord::recreate_request`] gives the creation request in
//!    CheCL handle space — the inverse of the
//!    [`ObjectRecord::created_by`] that recorded it;
//! 2. [`ApiRequest::try_map_handles`] translates it to the vendor
//!    handles of the objects re-created before it. This translation has
//!    no kind check and is not counted as an application translation,
//!    and a dead reference fails with `InvalidValue`;
//! 3. the request is forwarded to the fresh proxy;
//! 4. a kind-specific tail finishes the object: a buffer gets its saved
//!    data uploaded, a built program is rebuilt, and a kernel has its
//!    argument history replayed.
//!
//! Platforms and devices have no creation request: they are
//! re-enumerated on the restore host and picked by recorded position. A
//! program built from a binary is re-created on the first live device.

use crate::objects::{ObjectRecord, RecordedArg};
use crate::runtime::{ChecLib, StructArgPolicy};
use blcr::CprError;
use clspec::api::{ApiRequest, ApiResponse};
use clspec::error::ClError;
use clspec::handles::{
    CommandQueue, Context, DeviceId, HandleKind, Kernel, Mem, PlatformId, Program, RawHandle,
};
use clspec::types::{ArgValue, DeviceType};
use osproc::{Cluster, FsKind, Pid};
use simcore::codec::CodecError;
use simcore::{telemetry, ByteSize, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// When checkpointing happens relative to the triggering signal
/// (§III-C).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CheckpointMode {
    /// Synchronize and checkpoint as soon as the signal is seen, even
    /// if commands are in flight (pays the synchronization wait).
    #[default]
    Immediate,
    /// Postpone until the application reaches its next natural
    /// synchronization point (`clFinish`), hiding the sync cost.
    Delayed,
}

/// Byte accounting of one dedup (content-addressed) checkpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Content-defined chunks across every streamed buffer.
    pub chunks_total: u64,
    /// Chunks whose hash already lived in the store (zero bytes
    /// written).
    pub chunks_deduped: u64,
    /// Dedup hits proven by dirty-region tracking alone — no hashing
    /// CPU was spent on them.
    pub chunks_region_clean: u64,
    /// Raw payload bytes across every streamed buffer.
    pub raw_bytes: u64,
    /// Raw bytes the dedup hits avoided writing.
    pub deduped_bytes: u64,
    /// Bytes actually appended to the chunk store (post-compression,
    /// framing included).
    pub stored_bytes: u64,
    /// On-store bytes the dump's chunk maps reference — what a
    /// migration must move alongside the stream file.
    pub store_referenced_bytes: u64,
    /// CPU time spent on the `cpu.compress` channel (chunking +
    /// compression), in virtual nanoseconds.
    pub compress_ns: u64,
}

/// Per-phase timing of one checkpoint — the Fig. 5 breakdown.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckpointReport {
    /// Waiting for the host and all command queues to drain.
    pub sync: SimDuration,
    /// Copying all user data from device to host memory.
    pub preprocess: SimDuration,
    /// BLCR writing the process image to the checkpoint file.
    pub write: SimDuration,
    /// Deleting the host copies.
    pub postprocess: SimDuration,
    /// Size of the checkpoint file.
    pub file_size: ByteSize,
    /// Wall-clock the overlapped (pipelined) data path saved versus
    /// running the same transfers and writes back-to-back — i.e. the
    /// per-channel busy time that hid behind other channels. Always
    /// zero for the sequential engine.
    pub overlap_saved: SimDuration,
    /// Chunk-store byte accounting; present only for a dedup policy.
    pub dedup: Option<DedupStats>,
}

impl CheckpointReport {
    /// Total checkpoint time across all four phases. For the pipelined
    /// engine the copy/write phases are wall-clock windows (they share
    /// hardware channels under the hood), so this is wall-clock for
    /// both engines and remains the Fig. 5 quantity.
    pub fn total(&self) -> SimDuration {
        self.sync + self.preprocess + self.write + self.postprocess
    }

    /// What the same operations would have cost without channel
    /// overlap: `total() + overlap_saved`. Equals `total()` for the
    /// sequential engine.
    pub fn serialized_total(&self) -> SimDuration {
        self.total() + self.overlap_saved
    }
}

/// Per-kind object recreation timing of one restart — the Fig. 7
/// breakdown.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RestoreReport {
    /// Time spent re-creating each kind of object, in restore order.
    pub per_kind: BTreeMap<HandleKind, SimDuration>,
    /// Number of objects re-created per kind.
    pub counts: BTreeMap<HandleKind, usize>,
}

impl RestoreReport {
    /// Total object-recreation time.
    pub fn total(&self) -> SimDuration {
        self.per_kind.values().copied().sum()
    }
}

/// Device selection override at restore time — the runtime processor
/// selection of §IV-C (e.g. re-create everything on the CPU instead of
/// the GPU).
#[derive(Clone, Copy, Debug, Default)]
pub struct RestoreTarget {
    /// If set, device queries are re-issued with this type instead of
    /// the recorded one.
    pub device_type: Option<DeviceType>,
}

/// CheCL CPR failures.
#[derive(Debug)]
pub enum CheclCprError {
    /// An OpenCL call failed during preprocess/restore.
    Cl(ClError),
    /// The underlying CPR system failed.
    Cpr(CprError),
    /// No proxy is attached when one was needed.
    NoProxy,
    /// A binary-created program cannot be restored here (§IV-D: "the
    /// binary code used when being checkpointed is not always valid for
    /// the node, on which the process restarts").
    BinaryNotPortable,
    /// The dumped CheCL state segment is missing or corrupt.
    BadState(CodecError),
    /// The dump did not contain a CheCL state segment.
    MissingState,
    /// The snapshot policy (named by its label) combines settings the
    /// engine cannot honour together: a live drain writes its payload
    /// inline under its own temp-and-rename commit, so `live` composes
    /// with neither `dedup` nor `recovery`.
    UnsupportedPolicy(String),
    /// The restore host enumerates no platform/device that can satisfy
    /// a recorded query — e.g. restarting on a box with no OpenCL
    /// implementation, or with no device of the requested type.
    NoSuchDevice {
        /// What could not be re-created.
        kind: HandleKind,
        /// The index recorded at creation time.
        index: u32,
        /// How many candidates the restore host offered.
        available: usize,
    },
    /// The driver answered the re-creation of an object of this kind
    /// with a response that names no object.
    NotRecreated(HandleKind),
}

impl fmt::Display for CheclCprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheclCprError::Cl(e) => write!(f, "OpenCL failure during CPR: {e}"),
            CheclCprError::Cpr(e) => write!(f, "CPR system failure: {e}"),
            CheclCprError::NoProxy => write!(f, "no API proxy attached"),
            CheclCprError::BinaryNotPortable => {
                write!(f, "binary-created program not restorable on this node")
            }
            CheclCprError::BadState(e) => write!(f, "CheCL state segment corrupt: {e}"),
            CheclCprError::MissingState => write!(f, "no CheCL state in checkpoint"),
            CheclCprError::UnsupportedPolicy(label) => write!(
                f,
                "unsupported snapshot policy {label}: a live drain composes with \
                 neither dedup nor recovery"
            ),
            CheclCprError::NoSuchDevice {
                kind,
                index,
                available,
            } => write!(
                f,
                "cannot restore {} #{index}: restore host enumerates only {available} candidate(s)",
                kind.short_name()
            ),
            CheclCprError::NotRecreated(kind) => write!(
                f,
                "cannot restore {}: its re-creation returned no object",
                kind.short_name()
            ),
        }
    }
}

impl std::error::Error for CheclCprError {}

impl From<ClError> for CheclCprError {
    fn from(e: ClError) -> Self {
        CheclCprError::Cl(e)
    }
}

impl From<CprError> for CheclCprError {
    fn from(e: CprError) -> Self {
        CheclCprError::Cpr(e)
    }
}

/// Name of the image segment the CheCL state is dumped into.
pub const CHECL_STATE_SEGMENT: &str = "checl-state";

/// Find a restored queue in the same context, for internal transfers.
pub(crate) fn queue_in_context(lib: &ChecLib, context: u64) -> Option<(u64, RawHandle)> {
    lib.db
        .live_of_kind(HandleKind::CommandQueue)
        .find(|e| matches!(e.record, ObjectRecord::Queue { context: c, .. } if c == context))
        .map(|e| (e.checl, e.vendor))
}

/// Like [`queue_in_context`], but also resolve the creation-order index
/// of the device the queue drives — the pipelined engine names one PCIe
/// channel per device index, so transfers on distinct devices overlap.
pub(crate) fn queue_and_device_in_context(lib: &ChecLib, context: u64) -> Option<(RawHandle, u32)> {
    let (vendor, device) = lib
        .db
        .live_of_kind(HandleKind::CommandQueue)
        .find_map(|e| match e.record {
            ObjectRecord::Queue {
                context: c, device, ..
            } if c == context => Some((e.vendor, device)),
            _ => None,
        })?;
    let index = match lib.db.get(device).map(|e| &e.record) {
        Some(ObjectRecord::Device { index, .. }) => *index,
        _ => 0,
    };
    Some((vendor, index))
}

/// Channel name of the storage medium `path` resolves to on `pid`'s
/// node, so checkpoints to NFS and to the local disk occupy distinct
/// timelines.
pub(crate) fn storage_channel_name(cluster: &Cluster, pid: Pid, path: &str) -> &'static str {
    let node = cluster.process(pid).node;
    match cluster
        .node(node)
        .resolve(path)
        .map(|(fs, _)| cluster.fs(fs).kind())
    {
        Some(FsKind::RamDisk) => "disk.ram",
        Some(FsKind::Nfs) => "nfs",
        _ => "disk.local",
    }
}

/// Re-create every OpenCL object recorded in the database, in the
/// dependency order of §III-C, against a freshly attached proxy.
/// Returns the Fig. 7 per-kind timing breakdown.
pub fn restore_checl(
    lib: &mut ChecLib,
    now: &mut SimTime,
    target: RestoreTarget,
) -> Result<RestoreReport, CheclCprError> {
    if !lib.has_proxy() {
        return Err(CheclCprError::NoProxy);
    }
    let mut report = RestoreReport::default();

    for kind in HandleKind::RESTORE_ORDER {
        let t0 = *now;
        // Cloning a record shares its saved payloads, so the snapshot
        // below copies no checkpoint data.
        let entries: Vec<(u64, ObjectRecord)> = lib
            .db
            .live_of_kind(kind)
            .map(|e| (e.checl, e.record.clone()))
            .collect();
        let count = entries.len();
        if count > 0 && telemetry::enabled() {
            telemetry::span_begin(
                "cpr",
                &format!("restore.{}", kind.short_name()),
                t0,
                vec![("objects", count.into())],
            );
        }
        for (checl, record) in entries {
            let vendor = restore_one(lib, now, checl, &record, target)?;
            if let Some(e) = lib.db.get_mut(checl) {
                e.vendor = vendor;
            }
        }
        if count > 0 {
            if telemetry::enabled() {
                telemetry::span_end(
                    "cpr",
                    &format!("restore.{}", kind.short_name()),
                    *now,
                    Vec::new(),
                );
            }
            report.per_kind.insert(kind, now.since(t0));
            report.counts.insert(kind, count);
        }
    }
    Ok(report)
}

/// Restore-side translation of a CheCL handle a record names. The object
/// was re-created earlier in this pass, so there is no kind check, and
/// nothing counts as an application translation.
fn vendor_of(lib: &ChecLib, h: u64) -> Result<RawHandle, CheclCprError> {
    lib.db
        .vendor_of(h)
        .ok_or(CheclCprError::Cl(ClError::InvalidValue))
}

/// The vendor handle of the object a re-creation request's response
/// names, or [`CheclCprError::NotRecreated`] when it names none.
fn recreated_object(kind: HandleKind, mut resp: ApiResponse) -> Result<RawHandle, CheclCprError> {
    resp.object_mut()
        .map(|h| *h)
        .ok_or(CheclCprError::NotRecreated(kind))
}

fn restore_one(
    lib: &mut ChecLib,
    now: &mut SimTime,
    checl: u64,
    record: &ObjectRecord,
    target: RestoreTarget,
) -> Result<RawHandle, CheclCprError> {
    let vendor = match record.recreate_request() {
        Some(mut req) => {
            req.try_map_handles(|_, h| vendor_of(lib, h.0))?;
            let resp = lib.forward(now, req)?;
            recreated_object(record.kind(), resp)?
        }
        None => recreate_special(lib, now, record, target)?,
    };
    // The kind-specific tails.
    match record {
        ObjectRecord::Mem {
            context,
            saved_data,
            host_cache,
            ..
        } => {
            // "Send the user data back to the device memory" (§III-C):
            // the checkpoint payload, else the recorded host cache. The
            // device shares either; the record keeps its own until the
            // upload succeeds, so a failed restore loses no saved data.
            if let Some(data) = saved_data.as_ref().or(host_cache.as_ref()) {
                let (_qc, q_vendor) = queue_in_context(lib, *context)
                    .ok_or(CheclCprError::Cl(ClError::InvalidContext))?;
                let ev = lib
                    .forward(
                        now,
                        ApiRequest::EnqueueWriteBuffer {
                            queue: CommandQueue::from_raw(q_vendor),
                            mem: Mem::from_raw(vendor),
                            blocking: true,
                            offset: 0,
                            data: data.clone(),
                            wait_list: vec![],
                        },
                    )?
                    .into_event()?;
                lib.forward(now, ApiRequest::ReleaseEvent { event: ev })?;
            }
            // Drop the host copy now that the device owns the data, and
            // forget the dump it came from: the chunk lists recorded
            // against the *old* node's store say nothing about this
            // one, so the next dedup generation re-reads the buffer.
            if let Some(e) = lib.db.get_mut(checl) {
                if let ObjectRecord::Mem {
                    saved_data,
                    saved_in,
                    dirty,
                    dirty_regions,
                    saved_chunks,
                    ..
                } = &mut e.record
                {
                    *saved_data = None;
                    *saved_in = None;
                    *dirty = true;
                    dirty_regions.clear();
                    *saved_chunks = None;
                }
            }
        }
        ObjectRecord::Program {
            build_options: Some(options),
            ..
        } => {
            // The program was built before the checkpoint: rebuild
            // (recompile) — the Tr term of the migration model.
            lib.forward(
                now,
                ApiRequest::BuildProgram {
                    program: Program::from_raw(vendor),
                    options: options.clone(),
                },
            )?;
        }
        ObjectRecord::Kernel { args, .. } => {
            // Replay the argument history against the new objects.
            for (index, arg) in args {
                let value = match arg {
                    RecordedArg::Handle(h) => ArgValue::handle(vendor_of(lib, *h)?),
                    RecordedArg::Bytes(b) => {
                        let mut blob = b.clone();
                        if lib.config().struct_arg_policy == StructArgPolicy::ScanAndTranslate {
                            let db = &lib.db;
                            crate::guess::rewrite_handles_in_struct(db, &mut blob, |h| {
                                db.vendor_of(h).map(|v| v.0)
                            });
                        }
                        ArgValue::Bytes(blob)
                    }
                    RecordedArg::Local(n) => ArgValue::LocalMem(*n),
                };
                lib.forward(
                    now,
                    ApiRequest::SetKernelArg {
                        kernel: Kernel::from_raw(vendor),
                        index: *index,
                        value,
                    },
                )?;
            }
        }
        _ => {}
    }
    Ok(vendor)
}

/// Re-create what no recorded request can, returning the new vendor
/// handle: platforms and devices are re-enumerated on the restore host
/// and picked by recorded position, and a program built from a binary is
/// re-created on the first live device.
fn recreate_special(
    lib: &mut ChecLib,
    now: &mut SimTime,
    record: &ObjectRecord,
    target: RestoreTarget,
) -> Result<RawHandle, CheclCprError> {
    match record {
        ObjectRecord::Platform { index } => {
            let platforms = lib
                .forward(now, ApiRequest::GetPlatformIds)?
                .into_platforms()?;
            // A degraded restore host may enumerate nothing at all —
            // `len() - 1` would underflow, so refuse with a typed error
            // instead.
            if platforms.is_empty() {
                return Err(CheclCprError::NoSuchDevice {
                    kind: HandleKind::Platform,
                    index: *index,
                    available: 0,
                });
            }
            let i = (*index as usize).min(platforms.len() - 1);
            Ok(platforms[i].raw())
        }
        ObjectRecord::Device {
            platform,
            query_type,
            index,
        } => {
            let v_platform = vendor_of(lib, *platform)?;
            let qt = target.device_type.unwrap_or(*query_type);
            // The driver reports "no device of this type" as an error;
            // treat it as an empty enumeration so both shapes of a
            // degraded host take the typed-error path below.
            let devices = match lib.forward(
                now,
                ApiRequest::GetDeviceIds {
                    platform: PlatformId::from_raw(v_platform),
                    device_type: qt,
                },
            ) {
                Ok(resp) => resp.into_devices()?,
                Err(ClError::DeviceNotFound) => Vec::new(),
                Err(e) => return Err(CheclCprError::Cl(e)),
            };
            if devices.is_empty() {
                return Err(CheclCprError::NoSuchDevice {
                    kind: HandleKind::Device,
                    index: *index,
                    available: 0,
                });
            }
            // Clamp: the new platform may expose fewer devices of this
            // type than the source did.
            let i = (*index as usize).min(devices.len() - 1);
            Ok(devices[i].raw())
        }
        ObjectRecord::Program {
            context, binary, ..
        } => {
            let v_ctx = vendor_of(lib, *context)?;
            let bin = binary
                .clone()
                .ok_or(CheclCprError::Cl(ClError::InvalidProgram))?;
            // Deprecated path: works only if the new node's vendor
            // accepts the old binary.
            let device = lib
                .db
                .live_of_kind(HandleKind::Device)
                .next()
                .map(|e| e.vendor)
                .ok_or(CheclCprError::Cl(ClError::InvalidDevice))?;
            Ok(lib
                .forward(
                    now,
                    ApiRequest::CreateProgramWithBinary {
                        context: Context::from_raw(v_ctx),
                        device: DeviceId::from_raw(device),
                        binary: bin,
                    },
                )
                .map_err(|e| match e {
                    ClError::InvalidBinary => CheclCprError::BinaryNotPortable,
                    other => CheclCprError::Cl(other),
                })?
                .into_program()?
                .raw())
        }
        _ => unreachable!("every other record has a re-creation request"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clspec::handles::Event;

    #[test]
    fn a_recreation_answered_without_an_object_is_an_error_not_a_panic() {
        let mem = ApiResponse::Mem(Mem::from_raw(RawHandle(7)));
        assert_eq!(
            recreated_object(HandleKind::Mem, mem).unwrap(),
            RawHandle(7)
        );
        let event = ApiResponse::DataEvent {
            data: vec![1].into(),
            event: Event::from_raw(RawHandle(9)),
        };
        assert_eq!(
            recreated_object(HandleKind::Event, event).unwrap(),
            RawHandle(9)
        );
        for resp in [ApiResponse::Unit, ApiResponse::Platforms(Vec::new())] {
            let err = recreated_object(HandleKind::Kernel, resp).unwrap_err();
            assert!(
                matches!(err, CheclCprError::NotRecreated(HandleKind::Kernel)),
                "{err}"
            );
            assert_eq!(
                err.to_string(),
                "cannot restore kernel: its re-creation returned no object"
            );
        }
    }
}
