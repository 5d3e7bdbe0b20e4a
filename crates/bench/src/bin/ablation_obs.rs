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

use checl::IntervalPolicy::DalyAdaptive;
use checl_bench::{
    eval_targets, quantile_secs, supervised_cell, Cell, FigureWriter, TraceSession, REGIMES, SEED,
};
use simcore::obs::EventKind;

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
        let adaptive = |record| {
            supervised_cell(target, SEED + k as u64, *mtbf_ms, DalyAdaptive, record).completed()
        };
        let (_, bare, _) = adaptive(false);
        let (_, recorded, ledger) = adaptive(true);
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
