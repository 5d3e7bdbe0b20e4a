//! Checkpoint and restart operations.

use crate::ckptfile::CheckpointFile;
use osproc::{Cluster, DeviceMapping, FsError, MemImage, NodeId, Pid};
use simcore::codec::CodecError;
use simcore::{telemetry, ByteSize, SimTime};
use std::fmt;

/// CPR failures.
#[derive(Debug, Clone, PartialEq)]
pub enum CprError {
    /// The target address space has device-mapped regions the CPR
    /// system does not understand (§II). The mappings are reported so
    /// the caller can see *which* driver poisoned the process.
    DeviceMapped {
        /// Process that could not be dumped.
        pid: Pid,
        /// The offending mappings.
        mappings: Vec<DeviceMapping>,
    },
    /// A child of the target (DMTCP dumps whole trees) has device
    /// mappings — the paper's DMTCP-vs-proxy conflict (§V).
    ChildDeviceMapped {
        /// The checkpoint target.
        pid: Pid,
        /// The child that blocked it.
        child: Pid,
    },
    /// Target process is not running.
    ProcessDead(Pid),
    /// Filesystem trouble.
    Fs(FsError),
    /// The checkpoint file failed validation.
    Corrupt(CodecError),
    /// Stream-writer lifecycle misuse (append/finish after the stream
    /// was already sealed or aborted).
    Stream(crate::stream::StreamError),
    /// A chunk of this many bytes was offered to a chunk store, over
    /// [`CDC_MAX_CHUNK`](crate::chunkstore::CDC_MAX_CHUNK).
    ChunkTooLong(u64),
}

impl fmt::Display for CprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CprError::DeviceMapped { pid, mappings } => write!(
                f,
                "cannot checkpoint {pid}: {} device-mapped region(s), first {}",
                mappings.len(),
                mappings.first().map(|m| m.device.as_str()).unwrap_or("?")
            ),
            CprError::ChildDeviceMapped { pid, child } => write!(
                f,
                "cannot checkpoint process tree of {pid}: child {child} uses mapped devices"
            ),
            CprError::ProcessDead(pid) => write!(f, "{pid} is not running"),
            CprError::Fs(e) => write!(f, "checkpoint I/O failed: {e}"),
            CprError::Corrupt(e) => write!(f, "checkpoint file invalid: {e}"),
            CprError::Stream(e) => write!(f, "stream writer misuse: {e}"),
            CprError::ChunkTooLong(len) => write!(
                f,
                "chunk of {len} bytes exceeds the store's {}-byte limit",
                crate::chunkstore::CDC_MAX_CHUNK
            ),
        }
    }
}

impl std::error::Error for CprError {}

impl From<FsError> for CprError {
    fn from(e: FsError) -> Self {
        CprError::Fs(e)
    }
}

/// BLCR-style checkpoint: dump `pid`'s host memory image to `path`
/// (resolved through `pid`'s mount table). Returns the file size.
///
/// Charges the dump I/O to `pid`'s clock — the "writing" phase of the
/// paper's checkpoint breakdown (Fig. 5), which dominates total
/// checkpoint time because disk bandwidth is far below PCIe bandwidth.
pub fn checkpoint(cluster: &mut Cluster, pid: Pid, path: &str) -> Result<ByteSize, CprError> {
    let (image, host) = {
        let p = cluster.process(pid);
        if !p.is_alive() {
            return Err(CprError::ProcessDead(pid));
        }
        if p.has_device_mappings() {
            return Err(CprError::DeviceMapped {
                pid,
                mappings: p.device_mappings.clone(),
            });
        }
        (p.image.clone(), cluster.node(p.node).name.clone())
    };
    let file = CheckpointFile {
        source_pid: pid.0,
        source_host: host,
        image,
    };
    let bytes = file.to_file_bytes();
    let size = ByteSize::bytes(bytes.len());
    let t0 = cluster.process(pid).clock;
    cluster.write_file(pid, path, bytes)?;
    if telemetry::enabled() {
        let t1 = cluster.process(pid).clock;
        let dur = t1.since(t0).as_secs_f64();
        let mb_per_s = if dur > 0.0 {
            size.as_mib_f64() / dur
        } else {
            0.0
        };
        let _scope = telemetry::track_scope(telemetry::Track::process(pid.0 as u64));
        telemetry::span_begin(
            "blcr",
            "blcr.write",
            t0,
            vec![("path", path.into()), ("bytes", size.as_u64().into())],
        );
        telemetry::span_end(
            "blcr",
            "blcr.write",
            t1,
            vec![("mb_per_s", mb_per_s.into())],
        );
        telemetry::counter_add("blcr.checkpoints", 1);
        telemetry::counter_add("blcr.bytes_written", size.as_u64());
        telemetry::observe("blcr.write_ns", t1.since(t0).as_nanos());
    }
    Ok(size)
}

/// DMTCP-style checkpoint: dumps the *whole process tree* rooted at
/// `pid`. Fails if any live child maps devices — exactly why stock
/// DMTCP cannot checkpoint a CheCL application while its API proxy is
/// alive (§V). Kill the proxy first and this succeeds.
pub fn dmtcp_checkpoint(cluster: &mut Cluster, pid: Pid, path: &str) -> Result<ByteSize, CprError> {
    let children = cluster.process(pid).children.clone();
    for child in children {
        let c = cluster.process(child);
        if c.is_alive() && c.has_device_mappings() {
            return Err(CprError::ChildDeviceMapped { pid, child });
        }
    }
    checkpoint(cluster, pid, path)
}

/// Restart from a checkpoint file: spawn a fresh process on `node`,
/// read and validate the file, and install the dumped memory image.
/// The read I/O is charged to the new process's clock — part of the
/// restart cost in Fig. 7 / Fig. 8.
pub fn restart(cluster: &mut Cluster, node: NodeId, path: &str) -> Result<Pid, CprError> {
    let pid = cluster.spawn(node);
    let t0 = cluster.process(pid).clock;
    let bytes = match cluster.read_file(pid, path) {
        Ok(bytes) => bytes,
        Err(e) => {
            // Failed exec: don't leak the half-started process.
            cluster.kill(pid);
            return Err(CprError::Fs(e));
        }
    };
    let image = CheckpointFile::from_file_bytes(bytes.body()).map(|file| file.image);
    finish_restart(cluster, pid, path, t0, bytes.len(), image)?;
    Ok(pid)
}

/// The tail of a restart once `pid` has read the `file_len`-byte
/// checkpoint at `path` (starting at `t0`) and parsed it: book the read
/// — the `blcr.read` span and the `blcr.restarts`/`blcr.bytes_read`
/// counters, for a corrupt file too — then install the parsed image,
/// or kill `pid` if the parse failed. Shared by [`restart`] and by
/// restore paths that sniff the format from bytes they already read.
pub fn finish_restart(
    cluster: &mut Cluster,
    pid: Pid,
    path: &str,
    t0: SimTime,
    file_len: u64,
    image: Result<MemImage, CodecError>,
) -> Result<(), CprError> {
    if telemetry::enabled() {
        let t1 = cluster.process(pid).clock;
        let size = ByteSize::bytes(file_len);
        let dur = t1.since(t0).as_secs_f64();
        let mb_per_s = if dur > 0.0 {
            size.as_mib_f64() / dur
        } else {
            0.0
        };
        let _scope = telemetry::track_scope(telemetry::Track::process(pid.0 as u64));
        telemetry::span_begin(
            "blcr",
            "blcr.read",
            t0,
            vec![("path", path.into()), ("bytes", size.as_u64().into())],
        );
        telemetry::span_end("blcr", "blcr.read", t1, vec![("mb_per_s", mb_per_s.into())]);
        telemetry::counter_add("blcr.restarts", 1);
        telemetry::counter_add("blcr.bytes_read", size.as_u64());
    }
    match image {
        Ok(image) => {
            cluster.process_mut(pid).image = image;
            Ok(())
        }
        Err(e) => {
            cluster.kill(pid);
            Err(CprError::Corrupt(e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_restart_roundtrips_image() {
        let mut c = Cluster::with_standard_nodes(2);
        let nodes = c.node_ids();
        let p = c.spawn(nodes[0]);
        c.process_mut(p).image.put("state", vec![5, 6, 7]);
        let size = checkpoint(&mut c, p, "/nfs/a.ckpt").unwrap();
        assert!(size > ByteSize::mib(20)); // baseline included
                                           // Restart on the *other* node via the shared NFS mount:
                                           // process migration.
        let p2 = restart(&mut c, nodes[1], "/nfs/a.ckpt").unwrap();
        assert_ne!(p, p2);
        assert_eq!(c.process(p2).image.get("state"), Some(&[5u8, 6, 7][..]));
        assert_eq!(c.process(p2).node, nodes[1]);
    }

    #[test]
    fn device_mappings_block_checkpoint() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        c.process_mut(p)
            .map_device("/dev/nimbus0", ByteSize::mib(64));
        let err = checkpoint(&mut c, p, "/local/x.ckpt").unwrap_err();
        match err {
            CprError::DeviceMapped { pid, mappings } => {
                assert_eq!(pid, p);
                assert_eq!(mappings[0].device, "/dev/nimbus0");
            }
            other => panic!("wrong error: {other}"),
        }
        // Unmapping (driver unloaded) unblocks it.
        c.process_mut(p).unmap_device("/dev/nimbus0");
        checkpoint(&mut c, p, "/local/x.ckpt").unwrap();
    }

    #[test]
    fn dead_process_cannot_checkpoint() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        c.kill(p);
        assert_eq!(
            checkpoint(&mut c, p, "/local/x.ckpt").unwrap_err(),
            CprError::ProcessDead(p)
        );
    }

    #[test]
    fn dmtcp_fails_with_live_gpu_child_succeeds_after_kill() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let app = c.spawn(n);
        let proxy = c.fork(app, simcore::SimDuration::from_millis(80));
        c.process_mut(proxy)
            .map_device("/dev/nimbus0", ByteSize::mib(64));
        // Stock DMTCP: checkpoints the tree, trips over the proxy.
        let err = dmtcp_checkpoint(&mut c, app, "/local/a.ckpt").unwrap_err();
        assert_eq!(
            err,
            CprError::ChildDeviceMapped {
                pid: app,
                child: proxy
            }
        );
        // Paper's workaround: kill the proxy before checkpointing.
        c.kill(proxy);
        dmtcp_checkpoint(&mut c, app, "/local/a.ckpt").unwrap();
    }

    #[test]
    fn dumps_carry_the_baseline_as_a_length() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        c.process_mut(p).image.put("data", vec![3u8; 4096]);
        let base = simcore::calib::base_process_image().as_u64();
        checkpoint(&mut c, p, "/local/seq.ckpt").unwrap();
        let mut w = crate::StreamWriter::begin(&mut c, p, "/local/str.ckpt").unwrap();
        w.append_chunk(&mut c, 1, vec![4u8; 4096]).unwrap();
        w.finish(&mut c).unwrap();
        for path in ["/local/seq.ckpt", "/local/str.ckpt"] {
            let a = c.read_file(p, path).unwrap();
            let b = c.read_file(p, path).unwrap();
            assert_eq!(a.body().as_ptr(), b.body().as_ptr());
            assert!(a.body().len() < 64 << 10, "{path}");
            assert!(a.len() >= base, "{path}");
        }
        // The vault's mirror shares the primary's body.
        let mut vault = crate::DumpVault::new("/local/v", "/nfs/v", 1);
        let g = vault.commit_at(&mut c, p, "/local/seq.ckpt").unwrap();
        let primary = c.peek_file_on(n, &g.primary).unwrap();
        let mirror = c.peek_file_on(n, &g.mirror).unwrap();
        assert_eq!(primary.body().as_ptr(), mirror.body().as_ptr());
    }

    #[test]
    fn checkpoint_time_tracks_medium() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        // Same image written to disk vs RAM disk: disk is much slower.
        let p1 = c.spawn(n);
        c.process_mut(p1).image.put("data", vec![0u8; 8 << 20]);
        let t0 = c.process(p1).clock;
        checkpoint(&mut c, p1, "/local/a.ckpt").unwrap();
        let disk_time = c.process(p1).clock.since(t0);

        let p2 = c.spawn(n);
        c.process_mut(p2).image.put("data", vec![0u8; 8 << 20]);
        let t0 = c.process(p2).clock;
        checkpoint(&mut c, p2, "/ram/a.ckpt").unwrap();
        let ram_time = c.process(p2).clock.since(t0);
        assert!(
            disk_time.as_secs_f64() > 10.0 * ram_time.as_secs_f64(),
            "disk {disk_time} vs ram {ram_time}"
        );
    }

    #[test]
    fn restart_from_missing_or_corrupt_file() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        assert!(matches!(
            restart(&mut c, n, "/local/none.ckpt"),
            Err(CprError::Fs(_))
        ));
        let p = c.spawn(n);
        c.write_file(p, "/local/junk.ckpt", vec![0u8; 128]).unwrap();
        assert!(matches!(
            restart(&mut c, n, "/local/junk.ckpt"),
            Err(CprError::Corrupt(_))
        ));
    }

    #[test]
    fn restart_clock_pays_read_cost() {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        c.process_mut(p).image.put("data", vec![0u8; 4 << 20]);
        checkpoint(&mut c, p, "/local/a.ckpt").unwrap();
        let p2 = restart(&mut c, n, "/local/a.ckpt").unwrap();
        // ~28 MB at 106 MB/s ≈ 0.26 s.
        let t = c.process(p2).clock.since(SimTime::ZERO).as_secs_f64();
        assert!((0.1..0.6).contains(&t), "restart read took {t}");
    }
}
