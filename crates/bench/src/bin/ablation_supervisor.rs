//! Self-healing supervisor ablation: checkpoint interval policy ×
//! failure rate, plus a demonstration of the redundant dump vault.
//!
//! The workload is an iterative MD relaxation (30 force steps with a
//! `clFinish` sync per step — the classic long-running job shape that
//! checkpointing exists for; the batched SDK samples advance the host
//! clock in one jump at their final sync, which leaves an interval
//! policy nothing to act on). Each cell of the sweep drives it to
//! completion under [`run_supervised`] with a recurring proxy-death
//! process (seeded, so every number here is deterministic) and one of
//! three interval policies:
//!
//! * `fixed-short` — checkpoint every 0.4 s: tiny rollbacks, but the
//!   cadence costs more than the failures do (a replicated commit runs
//!   δ ≈ 1.1 s: dump + local primary + NFS mirror);
//! * `fixed-long` — checkpoint every 6 s: almost no cadence cost, but
//!   every failure throws away seconds of work;
//! * `daly-adaptive` — the supervisor's online Young/Daly controller,
//!   τ = √(2·δ·MTBF), re-estimated from observed checkpoint cost and
//!   observed failures after every commit and every incident.
//!
//! The figure the policy is trying to minimize is **total overhead** —
//! re-executed (wasted) work + checkpoint overhead + detection/repair
//! downtime. `scripts/check_goldens.py supervisor` guards the headline:
//! the adaptive policy beats both fixed baselines at two or more
//! failure rates. Every supervised run is also proven bit-exact
//! against an undisturbed native run.

use blcr::DumpVault;
use checl::supervisor::{SupervisorError, KEEP_GENERATIONS};
use checl::{CheclConfig, CprPolicy, IntervalPolicy};
use checl_bench::{
    eval_targets, iterative_md, md_setup, native_checksums, supervised_cell, Cell, EvalTarget,
    FigureWriter, TraceSession, MD_STEPS, REGIMES, SEED,
};
use osproc::{Cluster, FaultPlan};
use simcore::SimDuration;
use workloads::{run_supervised, CheclSession, StopCondition};

fn main() {
    let trace = TraceSession::from_args();
    let target = &eval_targets()[0]; // NVIDIA column, as in Fig. 5
    let mut fig = FigureWriter::new("ablation_supervisor");
    let golden = native_checksums((target.vendor)(), iterative_md(target, MD_STEPS));

    fig.section(
        "Self-healing supervisor: interval policy × failure rate (iterative MD)",
        &[
            "failure regime",
            "MTBF injected [s]",
            "interval policy",
            "completed",
            "failures",
            "repairs",
            "checkpoints",
            "final interval [s]",
            "wasted [s]",
            "ckpt overhead [s]",
            "downtime [s]",
            "total overhead [s]",
        ],
    );
    for (k, (regime, mtbf_ms)) in REGIMES.iter().enumerate() {
        for (policy_name, policy) in [
            (
                "fixed-short",
                IntervalPolicy::Fixed(SimDuration::from_millis(400)),
            ),
            (
                "fixed-long",
                IntervalPolicy::Fixed(SimDuration::from_secs(6)),
            ),
            ("daly-adaptive", IntervalPolicy::DalyAdaptive),
        ] {
            let cell = supervised_cell(target, SEED + k as u64, *mtbf_ms, policy, false);
            let row = match cell.result {
                Ok((s, report)) => {
                    assert!(report.completed);
                    assert_eq!(
                        s.program.checksums, golden,
                        "supervised result must be bit-exact"
                    );
                    let final_interval = *report
                        .interval_history
                        .last()
                        .expect("the controller always puts an interval in force");
                    vec![
                        (*regime).into(),
                        Cell::num(*mtbf_ms as f64 / 1000.0, 1),
                        policy_name.into(),
                        "yes".into(),
                        (report.failures as u64).into(),
                        (report.repairs as u64).into(),
                        (report.checkpoints as u64).into(),
                        Cell::secs(final_interval),
                        Cell::secs(report.wasted_work),
                        Cell::secs(report.checkpoint_overhead),
                        Cell::secs(report.downtime),
                        Cell::secs(report.total_overhead()),
                    ]
                }
                // The supervisor escalated: the policy could not carry
                // the job across this failure rate (a finding, not a
                // crash — the escalation is typed and the job state is
                // still intact in the vault).
                Err(SupervisorError::Escalated { .. }) => vec![
                    (*regime).into(),
                    Cell::num(*mtbf_ms as f64 / 1000.0, 1),
                    policy_name.into(),
                    "no".into(),
                    Cell::Na,
                    Cell::Na,
                    Cell::Na,
                    Cell::Na,
                    Cell::Na,
                    Cell::Na,
                    Cell::Na,
                    Cell::Na,
                ],
            };
            fig.row(row);
        }
    }
    fig.note(
        "total overhead = wasted (re-executed) work + checkpoint overhead + \
         detection/repair downtime — the cost the interval policy is \
         minimizing; every completed run's final buffer checksums are \
         bit-exact with an undisturbed native run",
    );
    fig.note(
        "daly-adaptive recomputes tau = sqrt(2*delta*MTBF) after every \
         commit (delta: EWMA of observed checkpoint cost) and every \
         failure (MTBF: elapsed/failures); the fixed baselines never move",
    );

    fig.section(
        "Redundant dumps: replication, scrub repair and generation GC",
        &[
            "scenario",
            "generations kept",
            "scrub verified",
            "scrub repaired",
            "scrub lost",
            "outcome",
        ],
    );
    scrub_repair_scenario(&mut fig, target);
    failover_scrub_scenario(&mut fig, target, &golden);
    fig.note(
        "each committed generation holds a local primary and an NFS \
         mirror; the scrub pass re-verifies sizes + checksums of both \
         replicas and repairs a bad one from its healthy sibling",
    );

    fig.finish().unwrap();
    trace.finish().unwrap();
}

/// A corrupt local primary is caught by the scrub's checksum pass and
/// repaired from the NFS mirror.
fn scrub_repair_scenario(fig: &mut FigureWriter, target: &EvalTarget) {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let mut session = CheclSession::launch(
        &mut cluster,
        node,
        (target.vendor)(),
        CheclConfig::default(),
        iterative_md(target, MD_STEPS),
    );
    session
        .run(&mut cluster, StopCondition::AfterKernel(1))
        .unwrap();
    let mut vault = DumpVault::new("/local/sv", "/nfs/sv", 2);
    for _ in 0..3 {
        let stage = vault.stage_path();
        session
            .checkpoint_with_policy(&mut cluster, &stage, &CprPolicy::sequential())
            .unwrap();
        vault.commit(&mut cluster, session.pid).unwrap();
    }
    // Bit-rot the newest primary behind the vault's back.
    let newest = vault.latest().unwrap().primary.clone();
    cluster
        .write_file(session.pid, &newest, b"bit rot".to_vec())
        .unwrap();
    let report = vault.scrub(&mut cluster, session.pid);
    assert_eq!(report.repaired, 1, "the rotten primary must be repaired");
    assert_eq!(report.lost, 0);
    fig.row(vec![
        "corrupt-primary".into(),
        vault.generations().len().into(),
        (report.verified as u64).into(),
        (report.repaired as u64).into(),
        (report.lost as u64).into(),
        "checksum mismatch repaired from NFS mirror".into(),
    ]);
}

/// A node crash mid-run: the supervisor fails the session over to the
/// spare from the NFS mirror, the scrub re-seeds the spare's local
/// replicas, and the run still finishes bit-exact.
fn failover_scrub_scenario(fig: &mut FigureWriter, target: &EvalTarget, golden: &[u64]) {
    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let session = CheclSession::launch(
        &mut cluster,
        nodes[0],
        (target.vendor)(),
        CheclConfig::default(),
        iterative_md(target, MD_STEPS),
    );
    let origin = cluster.process(session.pid).clock;
    cluster.install_faults(
        FaultPlan::new(SEED + 9).schedule_node_crash(origin + SimDuration::from_secs(2), nodes[0]),
    );
    let mut setup = md_setup(target, "/local/md", "/nfs/md");
    setup.spares = vec![nodes[1]];
    let (s, report) =
        run_supervised(&mut cluster, session, &setup).expect("failover to the spare must succeed");
    assert!(report.completed);
    assert_eq!(s.program.checksums, golden, "failover must be bit-exact");
    fig.row(vec![
        "node-crash-failover".into(),
        KEEP_GENERATIONS.into(),
        Cell::Na,
        Cell::Na,
        Cell::Na,
        format!(
            "node crashed; restarted on spare from mirror; {} failure(s), \
             {} repair(s); bit-exact",
            report.failures, report.repairs
        )
        .into(),
    ]);
}
