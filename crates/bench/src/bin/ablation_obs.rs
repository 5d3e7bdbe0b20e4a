//! Observability-plane ablation: the event ledger must be **free** in
//! virtual time.
//!
//! Every supervised cell of the adaptive sweep runs twice — once bare,
//! once with the [`simcore::obs`] ledger recording — and the two runs
//! must agree on every virtual-time figure to the nanosecond: the
//! ledger is pure bookkeeping on the host side of the simulation, so
//! enabling it can never perturb what it observes. The wall-clock
//! delta column is the guard (always 0 ns); the event counts and the
//! checkpoint-cost digest quantiles are the goldens that pin the
//! emission sites — an instrumented path that stops emitting (or
//! double-emits) moves a count here before it breaks a dashboard.

use checl::supervisor::SupervisorReport;
use checl::{CheclConfig, CprPolicy, RecoveryPolicy};
use checl_bench::{eval_targets, Cell, EvalTarget, FigureWriter, TraceSession};
use osproc::{Cluster, DetectorPolicy, FaultPlan};
use simcore::obs::{self, EventKind, Ledger};
use simcore::SimDuration;
use workloads::catalog::B;
use workloads::{run_supervised, BufInit, CheclSession, Script, SuperviseSetup};

/// Base seed; regime k uses `SEED + k` (the `ablation_supervisor`
/// plans, so all three goldens describe the same virtual history).
const SEED: u64 = 20110704;

/// Particles in the iterative MD job (two 12-byte vectors each).
const PARTICLES: u64 = 1 << 16;

/// Relaxation steps, one `clFinish` sync per step.
const STEPS: usize = 30;

/// The failure regimes swept: label + mean time between injected proxy
/// deaths.
const REGIMES: [(&str, u64); 3] = [("mild", 10_000), ("harsh", 5_000), ("severe", 4_000)];

fn main() {
    let trace = TraceSession::from_args();
    let target = &eval_targets()[0];
    let mut fig = FigureWriter::new("ablation_obs");

    fig.section(
        "Ledger overhead and event census (adaptive policy, per regime)",
        &[
            "failure regime",
            "wall clock [s]",
            "delta vs bare [ns]",
            "events",
            "checkpoints",
            "incidents",
            "faults",
            "retunes",
            "restores",
            "ckpt p50 [s]",
            "ckpt p95 [s]",
            "ckpt p99 [s]",
        ],
    );
    for (k, (regime, mtbf_ms)) in REGIMES.iter().enumerate() {
        let bare = supervised_cell(target, SEED + k as u64, *mtbf_ms, false).1;
        let (ledger, recorded) = supervised_cell(target, SEED + k as u64, *mtbf_ms, true);
        let ledger = ledger.expect("recording was on");

        // The ledger must be invisible in virtual time: identical
        // wall clock and identical accounting, to the nanosecond.
        let delta = recorded
            .wall_clock
            .as_nanos()
            .abs_diff(bare.wall_clock.as_nanos());
        assert_eq!(delta, 0, "{regime}: recording changed the wall clock");
        assert_eq!(recorded.downtime, bare.downtime);
        assert_eq!(recorded.wasted_work, bare.wasted_work);
        assert_eq!(recorded.checkpoint_overhead, bare.checkpoint_overhead);
        assert_eq!(recorded.checkpoints, bare.checkpoints);
        assert_eq!(recorded.failures, bare.failures);

        let count = |kind: &str| ledger.query(Some(kind), None, None).len() as u64;
        let costs = ledger.digest(|e| match &e.kind {
            EventKind::CheckpointCommitted { cost_ns, .. } => Some(*cost_ns),
            _ => None,
        });
        fig.row(vec![
            (*regime).into(),
            Cell::secs(recorded.wall_clock),
            delta.into(),
            (ledger.len() as u64).into(),
            count("checkpoint_committed").into(),
            count("incident_opened").into(),
            count("fault_injected").into(),
            count("interval_retuned").into(),
            count("restore_completed").into(),
            quantile_secs(&costs, 0.50),
            quantile_secs(&costs, 0.95),
            quantile_secs(&costs, 0.99),
        ]);
    }
    fig.note(
        "each regime runs twice (ledger off / ledger on); the delta \
         column asserts the virtual-time histories are identical to the \
         nanosecond — emission is clock-free bookkeeping",
    );
    fig.note(
        "the census columns pin every emission site: a path that stops \
         emitting (or double-emits) moves a count here under the same seed",
    );

    fig.finish().unwrap();
    trace.finish().unwrap();
}

/// Render a digest quantile of nanosecond observations in seconds.
fn quantile_secs(h: &simcore::telemetry::Histogram, p: f64) -> Cell {
    match h.percentile(p) {
        Some(ns) => Cell::num(ns as f64 / 1e9, 3),
        None => Cell::Na,
    }
}

/// The iterative job under supervision (identical to
/// `ablation_supervisor`).
fn iterative_md(target: &EvalTarget) -> Script {
    let cfg = target.cfg(1.0);
    let n = PARTICLES;
    let mut b = B::new(&cfg);
    let pos = b.buffer(
        n * 12,
        Some(BufInit::RandomF32 {
            seed: 7,
            lo: 0.0,
            hi: 20.0,
        }),
    );
    let force = b.buffer(n * 12, None);
    let k = b.prog_kernel("md", "md_forces");
    b.arg_mem(k, 0, pos);
    b.arg_mem(k, 1, force);
    b.arg_u32(k, 2, n as u32);
    b.arg_f32(k, 3, 5.0);
    for _ in 0..STEPS {
        b.launch1(k, n);
        b.finish();
    }
    b.read_checksum(force, n * 12);
    b.build()
}

/// The supervisor knobs of the `ablation_supervisor` sweep with the
/// adaptive interval policy.
fn sweep_setup(target: &EvalTarget) -> SuperviseSetup {
    let mut setup = SuperviseSetup::new((target.vendor)(), "/local/md", "/nfs/md");
    setup.config.detector = DetectorPolicy::Timeout(SimDuration::from_millis(400));
    setup.config.heartbeat_every = SimDuration::from_millis(50);
    setup.config.min_interval = SimDuration::from_millis(300);
    setup.config.max_interval = SimDuration::from_secs(8);
    setup.config.initial_mtbf = SimDuration::from_secs(5);
    setup.config.max_failures = 200;
    setup.policy = CprPolicy::sequential().with_recovery(RecoveryPolicy {
        retry: blcr::RetryPolicy::default(),
        fallback_targets: Vec::new(),
    });
    setup
}

/// One supervised cell, optionally with the ledger recording.
fn supervised_cell(
    target: &EvalTarget,
    seed: u64,
    mtbf_ms: u64,
    record: bool,
) -> (Option<Ledger>, SupervisorReport) {
    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let session = CheclSession::launch(
        &mut cluster,
        nodes[0],
        (target.vendor)(),
        CheclConfig::default(),
        iterative_md(target),
    );
    cluster.install_faults(
        FaultPlan::new(seed).with_proxy_death_rate(SimDuration::from_millis(mtbf_ms)),
    );
    let mut setup = sweep_setup(target);
    setup.spares = vec![nodes[1]];
    if record {
        obs::start_recording();
    }
    let report = match run_supervised(&mut cluster, session, &setup) {
        Ok((_s, report)) => report,
        Err(e) => panic!("the adaptive policy completes at every swept regime: {e:?}"),
    };
    let ledger = if record { obs::stop_recording() } else { None };
    assert!(report.completed);
    (ledger, report)
}
