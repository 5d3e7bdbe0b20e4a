//! Helpers the workloads share: seeded inputs, resuming a restored
//! process as a session, and reading layer books from the library's
//! public reports.

use crate::measure::Layers;
use checl::ChecLib;
use osproc::{Cluster, FsKind, Pid};
use simcore::codec::Codec;
use simcore::SplitMix64;
use std::collections::BTreeSet;
use workloads::{AppProgram, BufInit, CheclSession, Op, Script, APP_SEGMENT};

const MIB: f64 = (1u64 << 20) as f64;

/// Give every random buffer initialiser of `script` a seed derived
/// from `seed`: the data changes with the seed, the shapes, sizes and
/// op sequence (and so the work) do not.
pub fn reseed(mut script: Script, seed: u64) -> Script {
    for op in &mut script.ops {
        let init = match op {
            Op::CreateBuffer { init: Some(i), .. } | Op::CreateImage { init: Some(i), .. } => i,
            Op::WriteBuffer { init, .. } => init,
            _ => continue,
        };
        if let BufInit::RandomF32 { seed: s, .. } | BufInit::RandomU32 { seed: s } = init {
            *s = SplitMix64::new(*s ^ seed.rotate_left(17)).next_u64();
        }
    }
    script
}

/// Bytes of workload data the hot-path probes run over.
const SAMPLE_BYTES: usize = 4 << 20;

/// The workload's own bytes and kernel sources for the hot-path probes:
/// up to [`SAMPLE_BYTES`] of the data `scripts` initialise their buffers
/// with, and the source of every program they build.
pub fn sample(scripts: &[&Script]) -> (Vec<u8>, String) {
    (script_bytes(scripts, SAMPLE_BYTES), script_sources(scripts))
}

/// Up to `cap` bytes of the data `scripts` initialise their buffers
/// with, concatenated.
fn script_bytes(scripts: &[&Script], cap: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for op in scripts.iter().flat_map(|s| &s.ops) {
        let (init, size) = match op {
            Op::CreateBuffer {
                init: Some(i),
                size,
                ..
            } => (i, *size),
            Op::WriteBuffer { init, size, .. } => (init, *size),
            _ => continue,
        };
        let want = (size as usize).min(cap - out.len());
        out.extend_from_slice(&init.generate(want as u64));
        if out.len() >= cap {
            break;
        }
    }
    out
}

/// Kernel sources of every program `scripts` build, each once.
fn script_sources(scripts: &[&Script]) -> String {
    let names: BTreeSet<&str> = scripts
        .iter()
        .flat_map(|s| &s.ops)
        .filter_map(|op| match op {
            Op::CreateProgram { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    names
        .into_iter()
        .filter_map(clkernels::program_source)
        .map(|p| p.source)
        .collect()
}

/// Wrap a process `checl::restore` rebuilt into a runnable session by
/// decoding the application state its image carries.
pub fn resume(cluster: &Cluster, pid: Pid, lib: ChecLib) -> Option<CheclSession> {
    let bytes = cluster.process(pid).image.get(APP_SEGMENT)?;
    let program = AppProgram::from_bytes(bytes).ok()?;
    Some(CheclSession { pid, lib, program })
}

/// Fold the shim's forwarding counters into `layers`.
pub fn checl_layers(lib: &ChecLib, layers: &mut Layers) {
    let s = lib.stats();
    layers.add("checl.runtime.forwarded_calls", s.forwarded_calls as f64);
    layers.add("checl.runtime.ipc_mb", s.ipc_bytes as f64 / MIB);
    layers.add(
        "checl.runtime.handle_translations",
        s.handle_translations as f64,
    );
}

/// Fold the I/O books of every local-disk and NFS filesystem mounted in
/// `cluster` into `layers` (a filesystem shared by several nodes counts
/// once).
pub fn fs_layers(cluster: &Cluster, layers: &mut Layers) {
    let mut seen = BTreeSet::new();
    for node in cluster.node_ids() {
        for &fs in cluster.node(node).mounts.values() {
            if !seen.insert(fs) {
                continue;
            }
            let fs = cluster.fs(fs);
            let s = fs.stats();
            let [read_mb, write_mb, reads, writes] = match fs.kind() {
                FsKind::LocalDisk => [
                    "osproc.fs.local.read_mb",
                    "osproc.fs.local.write_mb",
                    "osproc.fs.local.reads",
                    "osproc.fs.local.writes",
                ],
                FsKind::Nfs => [
                    "osproc.fs.nfs.read_mb",
                    "osproc.fs.nfs.write_mb",
                    "osproc.fs.nfs.reads",
                    "osproc.fs.nfs.writes",
                ],
                FsKind::RamDisk => continue,
            };
            layers.add(read_mb, s.bytes_read as f64 / MIB);
            layers.add(write_mb, s.bytes_written as f64 / MIB);
            layers.add(reads, s.reads as f64);
            layers.add(writes, s.writes as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reseed_changes_data_not_shape() {
        let cfg = workloads::WorkloadCfg {
            scale: 1.0 / 64.0,
            ..Default::default()
        };
        let w = workloads::workload_by_name("Triad").expect("Triad is on the roster");
        let a = reseed(w.script(&cfg), 1);
        let b = reseed(w.script(&cfg), 2);
        assert_eq!(a.ops.len(), b.ops.len());
        assert_ne!(a, b);
        assert_eq!(a, reseed(w.script(&cfg), 1));
        assert_ne!(script_bytes(&[&a], 4096), script_bytes(&[&b], 4096));
        assert_eq!(script_bytes(&[&a], 4096).len(), 4096);
        assert!(script_sources(&[&a]).contains("__kernel"));
    }
}
