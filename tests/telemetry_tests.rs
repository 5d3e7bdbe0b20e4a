//! End-to-end tests of the virtual-time telemetry layer: structural
//! validation of recorded traces, agreement between checkpoint phase
//! spans and the `CheckpointReport` arithmetic, and byte-exact
//! determinism of the Chrome trace export.

use checl::{CheclConfig, CprPolicy, RestoreTarget};
use checl_repro as _;
use osproc::Cluster;
use simcore::qcheck::qcheck;
use simcore::telemetry::{self, Recorder, Track};
use simcore::{SimDuration, SimTime};
use workloads::{workload_by_name, CheclSession, StopCondition, WorkloadCfg};

/// Emit a random well-nested forest of spans (plus instants and async
/// pairs) and check that `validate` accepts it and counts correctly.
#[test]
fn random_balanced_traces_validate() {
    qcheck("random_balanced_traces_validate", 64, |g| {
        telemetry::start_recording();
        let names = ["alpha", "beta", "gamma", "delta"];
        let mut expected_spans = 0usize;
        let mut expected_instants = 0usize;
        let mut expected_async = 0usize;
        for pid in 1..=g.range(1, 4) {
            let _track = telemetry::track_scope(Track::process(pid));
            let mut t = SimTime::ZERO;
            // A few sibling span trees of random depth on this track.
            for _ in 0..g.usize_in(1, 5) {
                let depth = g.usize_in(1, 5);
                let mut stack = Vec::new();
                for level in 0..depth {
                    let name = *g.pick(&names);
                    t += SimDuration::from_nanos(g.range(1, 1000));
                    telemetry::span_begin("test", name, t, Vec::new());
                    stack.push(name);
                    if g.bool() {
                        t += SimDuration::from_nanos(g.range(0, 100));
                        telemetry::instant("test", "tick", t, Vec::new());
                        expected_instants += 1;
                    }
                    let _ = level;
                }
                while let Some(name) = stack.pop() {
                    t += SimDuration::from_nanos(g.range(0, 1000));
                    telemetry::span_end("test", name, t, Vec::new());
                    expected_spans += 1;
                }
            }
            // A couple of async pairs on a queue row of this process.
            for id in 0..g.range(0, 3) {
                let track = Track::process(pid).with_tid(100 + id);
                let start = t + SimDuration::from_nanos(g.range(1, 500));
                let end = start + SimDuration::from_nanos(g.range(1, 500));
                telemetry::async_begin("test", "job", start, track, id, Vec::new());
                telemetry::async_end("test", "job", end, track, id, Vec::new());
                expected_async += 1;
            }
        }
        let rec = telemetry::stop_recording().unwrap();
        let stats = telemetry::validate(&rec.events).expect("balanced trace must validate");
        assert_eq!(stats.spans, expected_spans);
        assert_eq!(stats.instants, expected_instants);
        assert_eq!(stats.async_pairs, expected_async);
        assert!(stats.max_depth >= 1);
    });
}

/// Structural violations are caught: an unclosed span, a stray end,
/// and a mismatched nesting order all fail validation.
#[test]
fn validate_rejects_malformed_traces() {
    // Unclosed span.
    telemetry::start_recording();
    telemetry::span_begin("test", "open", SimTime::ZERO, Vec::new());
    let rec = telemetry::stop_recording().unwrap();
    assert!(telemetry::validate(&rec.events).is_err());

    // End with no begin.
    telemetry::start_recording();
    telemetry::span_end("test", "stray", SimTime::ZERO, Vec::new());
    let rec = telemetry::stop_recording().unwrap();
    assert!(telemetry::validate(&rec.events).is_err());

    // Interleaved (non-nested) spans: a closes while b is innermost.
    telemetry::start_recording();
    let t = |n| SimTime::ZERO + SimDuration::from_nanos(n);
    telemetry::span_begin("test", "a", t(1), Vec::new());
    telemetry::span_begin("test", "b", t(2), Vec::new());
    telemetry::span_end("test", "a", t(3), Vec::new());
    telemetry::span_end("test", "b", t(4), Vec::new());
    let rec = telemetry::stop_recording().unwrap();
    assert!(telemetry::validate(&rec.events).is_err());
}

/// Run a real workload to a checkpoint under recording; returns the
/// recorder and the report.
fn record_checkpoint() -> (Recorder, checl::CheckpointReport) {
    telemetry::start_recording();
    let w = workload_by_name("oclMatrixMul").unwrap();
    let cfg = WorkloadCfg {
        scale: 1.0 / 64.0,
        ..WorkloadCfg::default()
    };
    let mut cluster = Cluster::with_standard_nodes(2);
    let node = cluster.node_ids()[0];
    let mut s = CheclSession::launch(
        &mut cluster,
        node,
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
        w.script(&cfg),
    );
    s.run(&mut cluster, StopCondition::AfterKernel(1)).unwrap();
    let report = s
        .checkpoint_with_policy(
            &mut cluster,
            "/nfs/telemetry.ckpt",
            &CprPolicy::sequential(),
        )
        .unwrap()
        .report;

    // Cross-vendor restart so restore spans land in the trace too.
    s.kill(&mut cluster);
    let nodes = cluster.node_ids();
    let resumed = CheclSession::restart(
        &mut cluster,
        nodes[1],
        "/nfs/telemetry.ckpt",
        cldriver::vendor::crimson(),
        RestoreTarget::default(),
    )
    .unwrap();
    drop(resumed);
    (telemetry::stop_recording().unwrap(), report)
}

/// The four checkpoint phase spans exist, validate cleanly (including
/// the quiescence invariant), and their durations sum to exactly the
/// printed `CheckpointReport::total()`.
#[test]
fn checkpoint_phase_spans_match_report() {
    let (rec, report) = record_checkpoint();
    telemetry::validate(&rec.events).expect("checkpoint trace must validate");

    let durations = telemetry::span_durations(&rec.events);
    assert_eq!(durations["checkpoint.sync"], report.sync);
    assert_eq!(durations["checkpoint.preprocess"], report.preprocess);
    assert_eq!(durations["checkpoint.write"], report.write);
    assert_eq!(durations["checkpoint.postprocess"], report.postprocess);
    assert_eq!(durations["checkpoint"], report.total());
    assert_eq!(
        durations["checkpoint.sync"]
            + durations["checkpoint.preprocess"]
            + durations["checkpoint.write"]
            + durations["checkpoint.postprocess"],
        report.total()
    );
    // The restart produced restore spans and a blcr read span.
    assert!(durations.contains_key("restart"));
    assert!(durations.contains_key("blcr.read"));
    assert!(durations.keys().any(|k| k.starts_with("restore.")));
    // Metrics single-source: one checkpoint, one restart.
    assert_eq!(rec.metrics.counter("cpr.checkpoints"), 1);
    assert_eq!(rec.metrics.counter("cpr.restarts"), 1);
    assert!(rec.metrics.counter("checl.api_calls") > 0);
    assert!(rec.metrics.counter("ipc.bytes") > 0);
}

/// Two identical runs produce byte-identical Chrome trace exports —
/// the virtual clock and the salt-free stable ids make the telemetry
/// fully deterministic.
#[test]
fn trace_export_is_deterministic() {
    let (rec_a, _) = record_checkpoint();
    let (rec_b, _) = record_checkpoint();
    let a = telemetry::export_chrome_trace(&rec_a);
    let b = telemetry::export_chrome_trace(&rec_b);
    assert!(!a.is_empty());
    assert_eq!(a, b, "identical runs must export identical traces");
}

/// A full MPI coordinated checkpoint trace validates, including the
/// per-rank quiescence windows and the cluster-track snapshot span.
#[test]
fn mpi_global_snapshot_trace_validates() {
    telemetry::start_recording();
    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let world = mpisim::MpiWorld::init(&mut cluster, &nodes, 4);
    world.barrier(&mut cluster);
    world.allreduce(&mut cluster, simcore::ByteSize::mib(1));
    world.send(&mut cluster, 0, 1, simcore::ByteSize::kib(64));
    for &p in world.pids() {
        cluster.process_mut(p).image.put("data", vec![7u8; 1 << 16]);
    }
    let snap = mpisim::coordinated_checkpoint(&mut cluster, &world, "/nfs/tele", blcr::checkpoint)
        .unwrap();
    assert_eq!(snap.files.len(), 4);
    let rec = telemetry::stop_recording().unwrap();
    let stats = telemetry::validate(&rec.events).expect("mpi trace must validate");
    assert!(stats.spans > 0);
    let durations = telemetry::span_durations(&rec.events);
    assert_eq!(durations["mpi.global_snapshot"], snap.elapsed);
    assert_eq!(rec.metrics.counter("mpi.global_snapshots"), 1);
    assert_eq!(rec.metrics.counter("blcr.checkpoints"), 4);
    // Rank tracks were named.
    assert!(rec.process_names.values().any(|n| n.starts_with("rank 0")));
}
