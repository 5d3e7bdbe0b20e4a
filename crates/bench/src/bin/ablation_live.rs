//! Ablation: live copy-on-write checkpointing.
//!
//! A rotating-mutation workload (each step rewrites a small prefix of
//! one buffer from the host and an eighth of it from a 1D triad
//! kernel) is cut mid-run under three engines: stop-the-world
//! sequential, pipelined streaming, and the live mode. The first two
//! stall the application for their whole dump; the live cut stamps
//! epochs, resumes immediately, and lets a background writer drain the
//! cut while later steps copy-on-write-fork only the prefixes they
//! are about to overwrite.
//!
//! The row's `stall[s]` is the live checkpoint's *entire* cost to the
//! application — the quiesce window plus every COW fork it paid while
//! the drain was in flight. The headline: stall tracks the D2H
//! preprocess time (`preproc[s]`), not the file write, because the
//! write happens behind the application's back.
//!
//! Every live cell kills the source after the drain seals, restores
//! from the live stream, runs to completion and asserts the final
//! checksums equal a native run's — the cut is consistent
//! even though most of its bytes left the device after the
//! application had moved on.

use checl::{CheclConfig, CprPolicy, RestoreTarget};
use checl_bench::{
    eval_targets, native_checksums, Cell, EvalTarget, FigureWriter, TraceSession, HARNESS_SCALE,
};
use osproc::Cluster;
use simcore::ByteSize;
use workloads::catalog::live_mutating;
use workloads::{CheclSession, Script, StopCondition};

/// Steps before the cut (they dirty every buffer at least once).
const PRE_STEPS: u32 = 4;
/// Steps after the cut (they race the background drain).
const POST_STEPS: u32 = 8;

/// (buffer count, MiB per buffer) sweep; (4, 4) is the headline point.
const SWEEP: [(usize, u64); 6] = [(1, 4), (2, 4), (4, 4), (8, 4), (4, 1), (4, 16)];

fn script(target: &EvalTarget, bufs: usize, bytes_each: u64) -> Script {
    live_mutating(
        &target.cfg(HARNESS_SCALE),
        bufs,
        bytes_each,
        PRE_STEPS + POST_STEPS,
    )
}

fn launch(
    cluster: &mut Cluster,
    target: &EvalTarget,
    bufs: usize,
    bytes_each: u64,
) -> CheclSession {
    let node = cluster.node_ids()[0];
    CheclSession::launch(
        cluster,
        node,
        (target.vendor)(),
        CheclConfig::default(),
        script(target, bufs, bytes_each),
    )
}

fn main() {
    let trace = TraceSession::from_args();
    let target = &eval_targets()[0];

    let mut fig = FigureWriter::new("ablation_live");
    fig.section(
        "Ablation: checkpoint stall, stop-the-world vs pipelined vs live",
        &[
            "bufs",
            "MiB/buf",
            "sequential[s]",
            "pipelined[s]",
            "preproc[s]",
            "stall[s]",
            "drain[s]",
            "forks",
            "fork[MiB]",
            "bit_exact",
        ],
    );

    for (bufs, mib) in SWEEP {
        let bytes_each = mib << 20;

        // Ground truth: the same program, run natively.
        let golden = native_checksums((target.vendor)(), script(target, bufs, bytes_each));
        assert!(!golden.is_empty(), "the native run recorded no checksums");

        // Stop-the-world baselines: the whole dump is a stall.
        let baseline = |policy: CprPolicy| {
            let mut cluster = Cluster::with_standard_nodes(1);
            let mut s = launch(&mut cluster, target, bufs, bytes_each);
            s.run(&mut cluster, StopCondition::AfterKernel(PRE_STEPS as u64))
                .unwrap();
            let outcome = s
                .checkpoint_with_policy(&mut cluster, "/local/live-base.ckpt", &policy)
                .unwrap();
            s.run(&mut cluster, StopCondition::Completion).unwrap();
            assert_eq!(s.program.checksums, golden, "baseline run diverged");
            outcome.report
        };
        let seq = baseline(CprPolicy::sequential());
        let pipe = baseline(CprPolicy::pipelined());

        // Live: cut, keep computing against the drain, seal, restore.
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = launch(&mut cluster, target, bufs, bytes_each);
        s.run(&mut cluster, StopCondition::AfterKernel(PRE_STEPS as u64))
            .unwrap();
        let path = format!("/local/live-{bufs}x{mib}.ckpt");
        let policy = CprPolicy::pipelined().live(true);
        s.checkpoint_with_policy(&mut cluster, &path, &policy)
            .unwrap();
        s.run(&mut cluster, StopCondition::Completion).unwrap();
        assert_eq!(
            s.program.checksums, golden,
            "the live cut perturbed the application's own results"
        );
        let drained = s
            .complete_live_drain(&mut cluster)
            .unwrap()
            .expect("a live drain was parked");
        s.kill(&mut cluster);

        let mut restored = CheclSession::restart(
            &mut cluster,
            node,
            &drained.path,
            (target.vendor)(),
            RestoreTarget::default(),
        )
        .unwrap();
        restored
            .run(&mut cluster, StopCondition::Completion)
            .unwrap();
        let bit_exact = restored.program.checksums == golden;
        assert!(
            bit_exact,
            "live restore at {bufs}x{mib} MiB diverged from the native run — \
             the consistent cut leaked a post-cut write"
        );

        let stall = drained.stall.total() + drained.fork_stall;
        fig.row(vec![
            bufs.into(),
            mib.into(),
            Cell::secs(seq.total()),
            Cell::secs(pipe.total()),
            Cell::secs(pipe.preprocess),
            Cell::secs(stall),
            Cell::secs(drained.drain_wall),
            drained.forked_chunks.into(),
            Cell::mib(ByteSize::bytes(drained.forked_bytes)),
            if bit_exact { "yes" } else { "no" }.into(),
        ]);
    }

    fig.note(
        "stall[s] = the live generation's full interruption cost: quiesce + \
         epoch stamping at the cut, plus every copy-on-write fork charged to \
         the application while the background drain raced it. preproc[s] is \
         the pipelined engine's D2H capture window — the classical lower \
         bound on a consistent capture — so stall ~ preproc means the file \
         write has left the critical path entirely.",
    );
    fig.note(
        "drain[s] is cut-to-seal wall time of the background writer; it \
         overlaps application progress and is bounded below by the disk \
         write, which is why it tracks pipelined[s]. bit_exact compares the \
         restored run's final checksums against an uninterrupted baseline.",
    );
    fig.finish().unwrap();
    trace.finish().unwrap();
}
