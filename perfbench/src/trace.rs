//! The traced run's extra books: the library's existing telemetry
//! counters and obs channel ledger, switched on around a round, and
//! host-speed probes of the hot paths on the workload's own bytes.

use crate::measure::Layers;
use osproc::{Cluster, MemImage};
use simcore::codec::Codec;
use simcore::telemetry::{self, TraceEvent, TraceSink};
use simcore::{obs, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

const MIB: f64 = (1u64 << 20) as f64;

/// Keeps telemetry counters and drops every event, so a long round does
/// not hold its whole trace in memory.
struct Counters(Rc<RefCell<BTreeMap<String, u64>>>);

impl TraceSink for Counters {
    fn event(&mut self, _ev: TraceEvent) {}
    fn counter_add(&mut self, name: &str, delta: u64) {
        *self.0.borrow_mut().entry(name.to_string()).or_insert(0) += delta;
    }
}

/// Telemetry counters and the obs ledger, recording on this thread.
pub struct Recording(Rc<RefCell<BTreeMap<String, u64>>>);

impl Recording {
    /// Start both recorders.
    pub fn start() -> Recording {
        let counters = Rc::new(RefCell::new(BTreeMap::new()));
        telemetry::install(Box::new(Counters(counters.clone())));
        obs::start_recording();
        Recording(counters)
    }

    /// Stop both recorders and fold what they saw into `layers`.
    pub fn finish(self, layers: &mut Layers) {
        telemetry::uninstall();
        let counters = self.0.borrow();
        let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
        layers.set("cldriver.commands", count("driver.commands"));
        layers.set("blcr.bytes_written_mb", count("blcr.bytes_written") / MIB);
        layers.set("blcr.bytes_read_mb", count("blcr.bytes_read") / MIB);
        let ledger = obs::stop_recording().unwrap_or_default();
        for (channel, (busy_ns, _ops)) in ledger.channel_utilization() {
            layers.add(channel_metric(&channel), busy_ns as f64 / 1e9);
        }
    }
}

/// The per-layer metric a resource channel's busy time lands in.
fn channel_metric(channel: &str) -> &'static str {
    match channel {
        c if c.starts_with("pcie.") => "simcore.channels.pcie.busy_s",
        "disk.local" => "simcore.channels.disk_local.busy_s",
        "disk.ram" => "simcore.channels.disk_ram.busy_s",
        "nfs" => "simcore.channels.nfs.busy_s",
        "cpu.compress" => "simcore.channels.cpu_compress.busy_s",
        "cpu.fork" => "simcore.channels.cpu_fork.busy_s",
        _ => "simcore.channels.other.busy_s",
    }
}

/// How long each probe repeats its call.
const PROBE_WINDOW: Duration = Duration::from_millis(150);

/// Mean host seconds of one `f()` call: one warm-up call, then calls
/// until [`PROBE_WINDOW`] has passed (at least three).
fn per_call_s(mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || start.elapsed() < PROBE_WINDOW {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / calls as f64
}

/// Time the library's hot paths on `bytes` (the workload's buffer
/// data) and `sources` (its kernel sources), as `benches/micro.rs`
/// does, and record the rates.
pub fn probe_hot_paths(bytes: &[u8], sources: &str, layers: &mut Layers) {
    let mib = bytes.len() as f64 / MIB;
    let rate = |s: f64| if s > 0.0 { mib / s } else { 0.0 };
    layers.set(
        "simcore.checksum.fnv1a64_mib_s",
        rate(per_call_s(|| {
            black_box(simcore::fnv1a64(black_box(bytes)));
        })),
    );
    let chunks = blcr::cdc_chunks(bytes);
    layers.set(
        "blcr.chunkstore.cdc_mib_s",
        rate(per_call_s(|| {
            black_box(blcr::cdc_chunks(black_box(bytes)));
        })),
    );
    layers.set(
        "blcr.chunkstore.compress_mib_s",
        rate(per_call_s(|| {
            for &(off, len) in &chunks {
                let chunk = &bytes[off as usize..(off + len) as usize];
                black_box(blcr::chunkstore::compress(black_box(chunk)));
            }
        })),
    );
    let mut image = MemImage::new();
    image.put("data", bytes.to_vec());
    let encoded = image.to_bytes();
    layers.set(
        "osproc.memimage.encode_mib_s",
        rate(per_call_s(|| {
            black_box(black_box(&image).to_bytes());
        })),
    );
    layers.set(
        "osproc.memimage.decode_mib_s",
        rate(per_call_s(|| {
            black_box(MemImage::from_bytes(black_box(&encoded)).ok());
        })),
    );
    let src_mib = sources.len() as f64 / MIB;
    let parse_s = per_call_s(|| {
        black_box(clspec::sig::parse_kernel_sigs(black_box(sources)).ok());
    });
    layers.set(
        "clspec.sig.parse_mib_s",
        if parse_s > 0.0 {
            src_mib / parse_s
        } else {
            0.0
        },
    );
    layers.set("checl.runtime.forward_ns", forward_ns());
}

/// Host nanoseconds of one interposed `clGetPlatformIDs`: translate,
/// pipe accounting, driver dispatch and wrap.
fn forward_ns() -> f64 {
    use clspec::api::ClApi;
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let pid = cluster.spawn(node);
    let mut booted = checl::boot_checl(
        &mut cluster,
        pid,
        cldriver::vendor::nimbus(),
        checl::CheclConfig::default(),
    );
    let mut now = SimTime::ZERO;
    let per_batch = per_call_s(|| {
        for _ in 0..100 {
            black_box(
                booted
                    .lib
                    .call(&mut now, clspec::ApiRequest::GetPlatformIds)
                    .ok(),
            );
        }
    });
    per_batch / 100.0 * 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channels_map_onto_fixed_metrics() {
        assert_eq!(channel_metric("pcie.dev3"), "simcore.channels.pcie.busy_s");
        assert_eq!(channel_metric("nfs"), "simcore.channels.nfs.busy_s");
        assert_eq!(channel_metric("gpu.x"), "simcore.channels.other.busy_s");
    }

    #[test]
    fn hot_path_probes_report_positive_rates() {
        let bytes: Vec<u8> = (0..1u32 << 16).map(|i| (i * 7 % 251) as u8).collect();
        let mut layers = Layers::default();
        probe_hot_paths(&bytes, "__kernel void k(__global float* a) {}", &mut layers);
        for (name, v) in layers.iter() {
            assert!(v > 0.0, "{name} = {v}");
        }
        assert_eq!(layers.iter().count(), 7);
    }
}
