//! Properties of the observability plane ([`simcore::obs`] +
//! [`checl::obs`]): the ledger is a pure observer (bit-exact under
//! seeded replay, with and without fault plans), the provenance graph
//! verifies against on-disk bytes at every policy lattice point and
//! fails loudly on out-of-band corruption, the SLO ledger reproduces
//! the supervisor's accounting exactly, and percentile digests merge
//! order-insensitively.

use checl::obs::{reconcile_faults, verify_all, verify_lineage, LineageError};
use checl::supervisor::{SupervisorError, SupervisorReport};
use checl::{CheclConfig, CprPolicy, RecoveryPolicy};
use checl_repro as _;
use clspec::types::DeviceType;
use osproc::{Cluster, FaultPlan, NodeId};
use simcore::obs::{self, Ledger, ProvenanceGraph, SloSummary};
use simcore::qcheck::{qcheck, Gen};
use simcore::telemetry::{self, Histogram, TraceEvent, TraceSink};
use simcore::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use workloads::{
    run_supervised, workload_by_name, BufInit, CheclSession, Op, Reg, Script, StopCondition,
    SuperviseSetup, WorkloadCfg,
};

const KIB: u64 = 1 << 10;

// ---------------------------------------------------------------------
// Shared fixtures (mirrors tests/engine_tests.rs and supervisor_tests)
// ---------------------------------------------------------------------

/// Single-device script with a clean half and a dirty half, so a dedup
/// head takes both the clean-buffer fast path and the re-chunking path.
fn dirty_script(sizes: &[u64]) -> (Script, u64, u64) {
    let mut ops = vec![
        Op::GetPlatform { out: 0 },
        Op::GetDevices {
            platform: 0,
            dtype: DeviceType::Gpu,
            out: 1,
            count: 1,
        },
        Op::CreateContext { device: 1, out: 2 },
        Op::CreateQueue {
            context: 2,
            device: 1,
            out: 3,
        },
    ];
    let buf0: Reg = 4;
    for (i, &size) in sizes.iter().enumerate() {
        ops.push(Op::CreateBuffer {
            context: 2,
            flags: clspec::types::MemFlags::READ_WRITE,
            size,
            init: Some(BufInit::RandomU32 {
                seed: 0x0b5 + i as u64,
            }),
            out: buf0 + i as Reg,
        });
    }
    let stop_create = ops.len() as u64;
    for (i, &size) in sizes.iter().enumerate().take(sizes.len().div_ceil(2)) {
        ops.push(Op::WriteBuffer {
            queue: 3,
            buf: buf0 + i as Reg,
            size,
            init: BufInit::RandomU32 {
                seed: 0x0b5d + i as u64,
            },
        });
    }
    let stop_dirty = ops.len() as u64;
    for (i, &size) in sizes.iter().enumerate() {
        ops.push(Op::ReadBufferChecksum {
            queue: 3,
            buf: buf0 + i as Reg,
            size,
        });
    }
    (Script { ops }, stop_create, stop_dirty)
}

/// One point of the policy lattice: pipelined × dedup × recovery.
fn arbitrary_policy(g: &mut Gen) -> CprPolicy {
    let mut policy = CprPolicy::sequential();
    if g.bool() {
        policy.pipelined = true;
    }
    policy = policy.dedup(g.bool());
    if g.bool() {
        policy = policy.with_recovery(RecoveryPolicy {
            retry: blcr::RetryPolicy {
                verify: g.bool(),
                ..blcr::RetryPolicy::default()
            },
            fallback_targets: Vec::new(),
        });
    }
    policy
}

fn quick() -> WorkloadCfg {
    WorkloadCfg {
        scale: 1.0 / 64.0,
        ..WorkloadCfg::default()
    }
}

fn launch_on(cluster: &mut Cluster, node: NodeId) -> CheclSession {
    let w = workload_by_name("oclVectorAdd").unwrap();
    CheclSession::launch(
        cluster,
        node,
        cldriver::vendor::nimbus(),
        checl::CheclConfig::default(),
        w.script(&quick()),
    )
}

fn supervise_setup(spares: Vec<NodeId>) -> SuperviseSetup {
    let mut setup = SuperviseSetup::new(cldriver::vendor::nimbus(), "/local/obs", "/nfs/obs");
    setup.spares = spares;
    setup.config.min_interval = SimDuration::from_millis(5);
    setup.config.max_interval = SimDuration::from_secs(2);
    setup.config.initial_mtbf = SimDuration::from_millis(200);
    setup.config.max_failures = 24;
    setup.policy = CprPolicy::sequential().with_recovery(RecoveryPolicy {
        retry: blcr::RetryPolicy::default(),
        fallback_targets: Vec::new(),
    });
    setup
}

/// Run the supervised workload under `plan` (if any) with the ledger
/// recording; returns the ledger and the report when it completed.
fn recorded_supervised_run(plan: Option<FaultPlan>) -> (Ledger, Option<SupervisorReport>) {
    let mut cluster = Cluster::with_standard_nodes(3);
    let nodes = cluster.node_ids();
    let session = launch_on(&mut cluster, nodes[0]);
    if let Some(plan) = plan {
        cluster.install_faults(plan);
    }
    let setup = supervise_setup(vec![nodes[1], nodes[2]]);
    obs::start_recording();
    let report = match run_supervised(&mut cluster, session, &setup) {
        Ok((_s, report)) => Some(report),
        Err(SupervisorError::Escalated { .. }) => None,
    };
    (obs::stop_recording().unwrap(), report)
}

/// A recurring proxy-death plan in the regime the supervisor rides out.
fn arbitrary_proxy_plan(g: &mut Gen) -> FaultPlan {
    FaultPlan::new(g.u64()).with_proxy_death_rate(SimDuration::from_millis(g.range(40, 200)))
}

// ---------------------------------------------------------------------
// Ledger determinism
// ---------------------------------------------------------------------

/// The ledger is part of the deterministic state: two seeded replays of
/// the same fault plan export byte-identical JSONL — and so does a
/// fault-free pair.
#[test]
fn ledger_bit_exact_under_seed_replay() {
    qcheck("ledger_bit_exact_under_seed_replay", 6, |g| {
        let plan = g.bool().then(|| arbitrary_proxy_plan(g));
        let (first, _) = recorded_supervised_run(plan.clone());
        let (second, _) = recorded_supervised_run(plan);
        let a = first.to_jsonl();
        assert!(!a.is_empty(), "a supervised run always commits gen 0");
        assert_eq!(a, second.to_jsonl(), "replay diverged");
        // And the export round-trips losslessly.
        let parsed = Ledger::from_jsonl(&a).unwrap();
        assert_eq!(parsed.to_jsonl(), a);
    });
}

// ---------------------------------------------------------------------
// Provenance verification across the policy lattice
// ---------------------------------------------------------------------

/// Every policy lattice point commits dumps whose recorded lineage
/// verifies against the bytes on disk — and an out-of-band corruption
/// of any file in the chain fails the walk loudly.
#[test]
fn lineage_verifies_at_every_policy_point() {
    qcheck("lineage_verifies_at_every_policy_point", 12, |g| {
        let sizes: Vec<u64> = (0..g.usize_in(2, 5))
            .map(|_| g.range(64, 512) * KIB)
            .collect();
        let policy = arbitrary_policy(g);
        let (script, stop_create, stop_dirty) = dirty_script(&sizes);
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = CheclSession::launch(
            &mut cluster,
            node,
            cldriver::vendor::nimbus(),
            CheclConfig::default(),
            script,
        );
        s.run(&mut cluster, StopCondition::AfterOps(stop_create))
            .unwrap();
        obs::start_recording();
        s.checkpoint_with_policy(&mut cluster, "/nfs/obs-base.ckpt", &policy)
            .unwrap();
        s.run(&mut cluster, StopCondition::AfterOps(stop_dirty))
            .unwrap();
        let outcome = s
            .checkpoint_with_policy(&mut cluster, "/nfs/obs-head.ckpt", &policy)
            .unwrap_or_else(|e| panic!("snapshot failed under {policy:?}: {e}"));
        let ledger = obs::stop_recording().unwrap();
        let graph = ProvenanceGraph::from_ledger(&ledger);

        let head = graph.node(&outcome.path).expect("head has provenance");
        assert_eq!(head.policy, policy.label());
        let report = verify_lineage(&cluster, node, &graph, &outcome.path)
            .unwrap_or_else(|e| panic!("lineage failed under {policy:?}: {e}"));
        assert!(report.bytes_verified > 0);
        // Engine dumps are standalone: the head's lineage is the head.
        assert_eq!(report.checked, vec![outcome.path.clone()]);
        verify_all(&cluster, node, &graph).unwrap();

        // Corrupt one lineage file behind everyone's back: the walk
        // must fail with a typed, path-naming error.
        let victim = report.checked[g.usize_in(0, report.checked.len())].clone();
        let mut bytes = cluster.peek_file_on(node, &victim).unwrap().to_vec();
        // Flip inside the leading framed region — the sequential
        // format's trailing zero padding is outside any checksum.
        let flip = g.usize_in(8, bytes.len().min(1024));
        bytes[flip] ^= 0xff;
        cluster.write_file(s.pid, &victim, bytes).unwrap();
        let err = verify_lineage(&cluster, node, &graph, &outcome.path)
            .expect_err("corruption must not verify");
        match &err {
            LineageError::Corrupt { path, .. } | LineageError::ChecksumMismatch { path, .. } => {
                assert_eq!(path, &victim)
            }
            other => panic!("unexpected lineage error {other}"),
        }
        s.kill(&mut cluster);
    });
}

// ---------------------------------------------------------------------
// SLO accounting reconciles with the supervisor's books
// ---------------------------------------------------------------------

/// The SLO summary derived from the ledger alone reproduces the
/// supervisor's accounting *exactly* — downtime, wasted work,
/// checkpoint overhead, counts — and every injected process fault
/// reconciles 1:1 with an incident.
#[test]
fn slo_ledger_matches_supervisor_report() {
    qcheck("slo_ledger_matches_supervisor_report", 6, |g| {
        let plan = arbitrary_proxy_plan(g);
        let (ledger, report) = recorded_supervised_run(Some(plan));
        let Some(report) = report else {
            return; // escalated: determinism is covered above
        };
        let slo = SloSummary::from_ledger(&ledger, report.wall_clock);
        assert_eq!(slo.downtime, report.downtime, "downtime must be exact");
        assert_eq!(slo.wasted, report.wasted_work, "wasted work must be exact");
        assert_eq!(
            slo.overhead, report.checkpoint_overhead,
            "checkpoint overhead must be exact"
        );
        assert_eq!(slo.checkpoints, report.checkpoints as u64);
        assert_eq!(slo.incidents, report.failures as u64);
        assert_eq!(slo.repairs, report.repairs as u64);
        assert_eq!(slo.retunes, report.interval_history.len() as u64 - 1);
        assert!(slo.availability() <= 1.0 && slo.availability() > 0.0);

        let rec = reconcile_faults(&ledger);
        assert!(
            rec.unmatched_incidents.is_empty(),
            "incident with no fault behind it: {:?}",
            rec.unmatched_incidents
        );
        // A fault may land after the program's last op (nothing left to
        // disturb), so unmatched *faults* at the very tail are legal;
        // every incident, though, traces back to an injected fault.
        assert_eq!(rec.matched.len(), report.failures as usize);
    });
}

// ---------------------------------------------------------------------
// Digest merging
// ---------------------------------------------------------------------

/// `Histogram::merge` is order-insensitive: any shuffle of parts
/// produces the same digest, identical to the one-pass histogram, and
/// quantiles agree.
#[test]
fn histogram_merge_is_order_insensitive() {
    qcheck("histogram_merge_is_order_insensitive", 32, |g| {
        let parts: Vec<Vec<u64>> = (0..g.usize_in(1, 5))
            .map(|_| {
                (0..g.usize_in(0, 40))
                    .map(|_| g.range(0, 1 << 20))
                    .collect()
            })
            .collect();
        let mut whole = Histogram::default();
        for v in parts.iter().flatten() {
            whole.observe(*v);
        }
        let digests: Vec<Histogram> = parts
            .iter()
            .map(|p| {
                let mut h = Histogram::default();
                for &v in p {
                    h.observe(v);
                }
                h
            })
            .collect();
        let mut forward = Histogram::default();
        for d in &digests {
            forward.merge(d);
        }
        let mut backward = Histogram::default();
        for d in digests.iter().rev() {
            backward.merge(d);
        }
        assert_eq!(forward, whole);
        assert_eq!(backward, whole);
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(forward.percentile(p), backward.percentile(p));
        }
        if parts.iter().all(|p| p.is_empty()) {
            assert_eq!(forward.percentile(0.5), None);
            assert_eq!(forward.mean(), 0.0);
        } else {
            let lo = *parts.iter().flatten().min().unwrap();
            let hi = *parts.iter().flatten().max().unwrap();
            let p50 = forward.percentile(0.5).unwrap();
            assert!(p50 >= lo && p50 <= hi, "p50 {p50} outside [{lo}, {hi}]");
        }
    });
}

// ---------------------------------------------------------------------
// Ledger query plumbing on a real run
// ---------------------------------------------------------------------

/// Window/kind/component queries agree with a manual scan, and events
/// arrive in virtual-time order with stable IDs.
#[test]
fn ledger_queries_are_consistent() {
    let plan = FaultPlan::new(7).with_proxy_death_rate(SimDuration::from_millis(60));
    let (ledger, _) = recorded_supervised_run(Some(plan));
    assert!(!ledger.is_empty());
    let sorted = ledger.sorted();
    for pair in sorted.windows(2) {
        assert!(
            (pair[0].t, pair[0].id) <= (pair[1].t, pair[1].id),
            "sorted() must order by (t, id)"
        );
    }
    let mid = sorted[sorted.len() / 2].t;
    let early = ledger.query(None, None, Some((SimTime::ZERO, mid)));
    assert!(early.iter().all(|e| e.t <= mid));
    let ckpts = ledger.query(Some("checkpoint_committed"), None, None);
    assert!(!ckpts.is_empty());
    let manual = ledger
        .events()
        .iter()
        .filter(|e| e.kind.name() == "checkpoint_committed")
        .count();
    assert_eq!(ckpts.len(), manual);
    // Digest over commit costs: quantiles are within observed range.
    let costs = ledger.digest(|e| match &e.kind {
        obs::EventKind::CheckpointCommitted { cost_ns, .. } => Some(*cost_ns),
        _ => None,
    });
    assert_eq!(costs.count, ckpts.len() as u64);
    let p99 = costs.percentile(0.99).unwrap();
    assert!(p99 >= costs.min && p99 <= costs.max);
}

// ---------------------------------------------------------------------
// One recording, two projections
// ---------------------------------------------------------------------

/// A sink that keeps counters only and drops every event, as the
/// benchmark's traced run installs.
struct Counters(Rc<RefCell<BTreeMap<String, u64>>>);

impl TraceSink for Counters {
    fn event(&mut self, _ev: TraceEvent) {}
    fn counter_add(&mut self, name: &str, delta: u64) {
        *self.0.borrow_mut().entry(name.to_string()).or_insert(0) += delta;
    }
}

/// A custom counters-only sink and a ledger recording work side by
/// side: around a pipelined checkpoint the sink sees the driver
/// counters while the ledger books its channel records. A sequential
/// dump rides along, because only that path writes through BLCR's
/// image writer and so bumps `blcr.bytes_written`.
#[test]
fn custom_sink_and_ledger_record_side_by_side() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let mut s = launch_on(&mut cluster, node);
    s.run(&mut cluster, StopCondition::AfterKernel(1)).unwrap();
    let counters = Rc::new(RefCell::new(BTreeMap::new()));
    telemetry::install(Box::new(Counters(counters.clone())));
    obs::start_recording();
    s.checkpoint_with_policy(&mut cluster, "/local/side.ckpt", &CprPolicy::pipelined())
        .unwrap();
    s.checkpoint_with_policy(&mut cluster, "/local/seq.ckpt", &CprPolicy::sequential())
        .unwrap();
    telemetry::uninstall();
    let ledger = obs::stop_recording().unwrap();
    let counters = counters.borrow();
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert!(count("driver.commands") > 0, "{counters:?}");
    assert!(count("blcr.bytes_written") > 0, "{counters:?}");
    assert!(!ledger.channel_utilization().is_empty());
}

/// A seeded supervised run recorded with the trace and the ledger on at
/// once: the Chrome projection validates, it carries every record, and
/// the ledger projection is byte-identical to a ledger-only recording
/// of the same run.
#[test]
fn trace_and_ledger_project_one_recording() {
    let plan = FaultPlan::new(11).with_proxy_death_rate(SimDuration::from_millis(80));
    let (ledger_only, _) = recorded_supervised_run(Some(plan.clone()));
    telemetry::start_recording();
    let (ledger, _) = recorded_supervised_run(Some(plan));
    let rec = telemetry::stop_recording().unwrap();
    telemetry::validate(&rec.events).expect("supervised trace must validate");
    assert!(!ledger.is_empty());
    assert_eq!(ledger.to_jsonl(), ledger_only.to_jsonl());
    let records = rec
        .events
        .iter()
        .filter(|e| e.kind == telemetry::EventKind::Record)
        .count();
    assert_eq!(records, ledger.len());
}
