//! The declared metrics and their two printed forms: one
//! `name value unit [n=samples]` line each, and the closing JSON
//! object. `BENCHMARK.json` declares the same names and units (a test
//! holds the two in step).

/// End-to-end metrics, printed by an untraced run: host time on every
/// workload. Virtual-time results and peak memory are per-layer (see
/// the README for why).
pub const END_TO_END: &[(&str, &str)] = &[("host_s", "s"), ("setup_s", "s")];

/// Per-layer metrics, printed by a traced run: all of them on every
/// workload, 0 where a layer does no work.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Host spans around the bench's calls; they sum to host.round_s.
    ("host.round_s", "s"),
    ("host.session.launch_s", "s"),
    ("host.session.checl_s", "s"),
    ("host.session.kill_s", "s"),
    ("host.engine.snapshot_s", "s"),
    ("host.engine.drain_s", "s"),
    ("host.cpr.restart_s", "s"),
    ("host.migrate_s", "s"),
    ("host.fleet.run_fleet_s", "s"),
    ("host.verify_s", "s"),
    ("host.other_s", "s"),
    ("host.engine.snapshot_ms.p50", "ms"),
    ("host.cpr.restart_ms.p50", "ms"),
    ("host.migrate_ms.p50", "ms"),
    ("host.checl.runtime_s", "s"),
    ("trace_overhead_pct", "%"),
    ("peak_rss_mb", "MiB"),
    // Hot-path probes on the workload's own bytes.
    ("simcore.checksum.fnv1a64_mib_s", "MiB/s"),
    ("blcr.chunkstore.cdc_mib_s", "MiB/s"),
    ("blcr.chunkstore.compress_mib_s", "MiB/s"),
    ("osproc.memimage.encode_mib_s", "MiB/s"),
    ("osproc.memimage.decode_mib_s", "MiB/s"),
    ("clspec.sig.parse_mib_s", "MiB/s"),
    ("checl.runtime.forward_ns", "ns"),
    // Workload outcomes in virtual time. `virt_ms` is the virtual
    // latency of the workload's unit operation: an application run
    // (`interpose`), a checkpoint's stall (`ckpt_write`), a restart
    // (`restore`), a job (`fleet`).
    ("virt_ms.mean", "ms"),
    ("virt_ms.p50", "ms"),
    ("virt_ms.p90", "ms"),
    ("fail_pct", "%"),
    ("overhead_pct", "%"),
    ("ckpt_stall_ms.p50", "ms"),
    ("ckpt_stall_ms.p90", "ms"),
    ("ckpt_mb_per_gen", "MiB"),
    ("restart_ms.p50", "ms"),
    ("restart_ms.p90", "ms"),
    ("migrate_ms.p50", "ms"),
    ("job_latency_ms.p50", "ms"),
    ("job_latency_ms.p99", "ms"),
    ("jobs_per_s", "1/s"),
    ("slo_pct", "%"),
    // CheCL forwarding layer (ChecLib::stats).
    ("checl.runtime.forwarded_calls", "count"),
    ("checl.runtime.ipc_mb", "MiB"),
    ("checl.runtime.handle_translations", "count"),
    ("checl.runtime.overhead_s", "s"),
    // Checkpoint engine: the Fig. 5 split and per-policy stalls.
    ("checl.engine.sync_s", "s"),
    ("checl.engine.preprocess_s", "s"),
    ("checl.engine.write_s", "s"),
    ("checl.engine.postprocess_s", "s"),
    ("checl.engine.overlap_saved_s", "s"),
    ("checl.engine.sequential.stall_ms.p50", "ms"),
    ("checl.engine.pipelined.stall_ms.p50", "ms"),
    ("checl.engine.pipelined_dedup.stall_ms.p50", "ms"),
    ("checl.engine.live.stall_ms.p50", "ms"),
    ("checl.engine.live.drain_ms.p50", "ms"),
    ("checl.engine.live.forked_mb", "MiB"),
    ("checl.engine.live.fork_stall_s", "s"),
    // Content-addressed chunk store (DedupStats).
    ("blcr.chunkstore.chunks", "count"),
    ("blcr.chunkstore.dedup_hit_ratio", "ratio"),
    ("blcr.chunkstore.region_clean_ratio", "ratio"),
    ("blcr.chunkstore.raw_mb", "MiB"),
    ("blcr.chunkstore.stored_mb", "MiB"),
    ("blcr.chunkstore.compress_s", "s"),
    // Restart: the Fig. 7 split, and migration (Fig. 8).
    ("checl.cpr.restore.platform_s", "s"),
    ("checl.cpr.restore.device_s", "s"),
    ("checl.cpr.restore.context_s", "s"),
    ("checl.cpr.restore.queue_s", "s"),
    ("checl.cpr.restore.mem_s", "s"),
    ("checl.cpr.restore.program_s", "s"),
    ("checl.cpr.restore.kernel_s", "s"),
    ("checl.cpr.restore.other_s", "s"),
    ("checl.migrate.moved_mb", "MiB"),
    ("checl.migrate.pred_err_pct", "%"),
    // Filesystems (FsStats via the node mounts).
    ("osproc.fs.local.read_mb", "MiB"),
    ("osproc.fs.local.write_mb", "MiB"),
    ("osproc.fs.local.reads", "count"),
    ("osproc.fs.local.writes", "count"),
    ("osproc.fs.nfs.read_mb", "MiB"),
    ("osproc.fs.nfs.write_mb", "MiB"),
    ("osproc.fs.nfs.reads", "count"),
    ("osproc.fs.nfs.writes", "count"),
    // Resource channels (obs ledger) and telemetry counters.
    ("simcore.channels.pcie.busy_s", "s"),
    ("simcore.channels.disk_local.busy_s", "s"),
    ("simcore.channels.disk_ram.busy_s", "s"),
    ("simcore.channels.nfs.busy_s", "s"),
    ("simcore.channels.cpu_compress.busy_s", "s"),
    ("simcore.channels.cpu_fork.busy_s", "s"),
    ("simcore.channels.other.busy_s", "s"),
    ("cldriver.commands", "count"),
    ("blcr.bytes_written_mb", "MiB"),
    ("blcr.bytes_read_mb", "MiB"),
    // Discrete-event core and fleet scheduler.
    ("simcore.des.sched_events", "count"),
    ("simcore.des.ops_per_event", "count"),
    ("fleet.preemptions", "count"),
    ("fleet.migrations_cold", "count"),
    ("fleet.migrations_live", "count"),
    ("fleet.generations", "count"),
];

/// One printed metric.
#[derive(Debug)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Value as measured, full precision.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
    /// Samples behind a median or percentile.
    pub n: Option<usize>,
}

impl Metric {
    /// A metric; panics on a non-finite value, which only a harness bug
    /// produces.
    pub fn new(name: &'static str, value: f64, unit: &'static str, n: Option<usize>) -> Metric {
        assert!(value.is_finite(), "metric {name} is {value}");
        Metric {
            name,
            value,
            unit,
            n,
        }
    }

    /// `name value unit [n=samples]`.
    pub fn line(&self) -> String {
        let mut out = format!("{} {} {}", self.name, self.value, self.unit);
        if let Some(n) = self.n {
            out.push_str(&format!(" n={n}"));
        }
        out
    }
}

/// The closing JSON object. Names and units are plain ASCII without
/// quotes or backslashes, and `{}` prints an `f64` in full without an
/// exponent, so no escaping is needed.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
