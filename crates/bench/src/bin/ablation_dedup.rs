//! Ablation: content-addressed dedup in the streamed checkpoint path.
//!
//! A slowly-mutating MD run (each step rewrites a prefix of the
//! position buffer, then recomputes forces) is checkpointed after
//! every kernel, under two policies: classic full dumps and the dedup
//! chunk store. Because the force kernel only reads a neighbour window,
//! an untouched position suffix reproduces its force suffix
//! bit-for-bit — content addressing sees through the launch's
//! conservative dirty marking and only pays for the mutated prefix.
//!
//! Every cell restores its *last* generation and runs to completion;
//! the final pos/force checksums must be identical across both
//! policies and a native run (bit-exactness of the dedup path is
//! asserted here, not just eyeballed).

use checl::{CheclConfig, CprPolicy, RestoreTarget};
use checl_bench::{
    eval_targets, native_checksums, Cell, FigureWriter, TraceSession, HARNESS_SCALE,
};
use osproc::Cluster;
use simcore::{fnv1a64, ByteSize};
use workloads::catalog::md_mutating;
use workloads::{CheclSession, StopCondition};

/// Checkpoint generations == MD steps (one launch per step).
const STEPS: u32 = 8;

/// Fraction of the position buffer rewritten per step.
const RATES: [(&str, f64); 3] = [("0%", 0.0), ("2%", 0.02), ("25%", 0.25)];

fn checksum_digest(checksums: &[u64]) -> String {
    let mut bytes = Vec::with_capacity(checksums.len() * 8);
    for c in checksums {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    format!("{:016x}", fnv1a64(&bytes))
}

fn policy_for(mode: &str) -> CprPolicy {
    match mode {
        "full" => CprPolicy::sequential(),
        "dedup" => CprPolicy::pipelined().dedup(true),
        _ => unreachable!(),
    }
}

fn main() {
    let trace = TraceSession::from_args();
    let target = &eval_targets()[0];
    let cfg = target.cfg(HARNESS_SCALE * 4.0); // 2^19 atoms: 6 MiB pos + 6 MiB force

    let mut fig = FigureWriter::new("ablation_dedup");
    fig.section(
        "Ablation: checkpoint policy x mutation rate (mutating MD, 8 generations)",
        &[
            "mutation",
            "mode",
            "files[MB]",
            "ckpt[s]",
            "payload raw[MB]",
            "payload stored[MB]",
            "payload ratio",
            "checksum",
        ],
    );

    for (rate_label, rate) in RATES {
        let script = || md_mutating(&cfg, rate, STEPS);

        // Ground truth: the same program, run natively.
        let golden = native_checksums((target.vendor)(), script());
        assert!(!golden.is_empty(), "the native run recorded no checksums");

        for mode in ["full", "dedup"] {
            let policy = policy_for(mode);
            let mut cluster = Cluster::with_standard_nodes(1);
            let node = cluster.node_ids()[0];
            let mut s = CheclSession::launch(
                &mut cluster,
                node,
                (target.vendor)(),
                CheclConfig::default(),
                script(),
            );

            let mut file_bytes = 0u64;
            let mut ckpt_total = simcore::SimDuration::ZERO;
            let mut raw_bytes = 0u64;
            let mut stored_bytes = 0u64;
            let mut last_path = String::new();
            for gen in 0..STEPS as u64 {
                s.run(&mut cluster, StopCondition::AfterKernel(gen + 1))
                    .unwrap();
                let path = format!("/local/dd-{gen}.ckpt");
                let outcome = s
                    .checkpoint_with_policy(&mut cluster, &path, &policy)
                    .unwrap();
                file_bytes += outcome.report.file_size.as_u64();
                ckpt_total += outcome.report.total();
                if let Some(d) = outcome.report.dedup {
                    raw_bytes += d.raw_bytes;
                    stored_bytes += d.stored_bytes;
                }
                last_path = outcome.path;
            }

            // Kill the source and resume from the newest generation.
            s.kill(&mut cluster);
            let mut restored = CheclSession::restart(
                &mut cluster,
                node,
                &last_path,
                (target.vendor)(),
                RestoreTarget::default(),
            )
            .unwrap();
            restored
                .run(&mut cluster, StopCondition::Completion)
                .unwrap();
            assert_eq!(
                restored.program.checksums, golden,
                "{mode} restore at mutation {rate_label} diverged from the \
                 native run"
            );

            let (raw_cell, stored_cell, ratio_cell) = if mode == "dedup" {
                (
                    Cell::mib(ByteSize::bytes(raw_bytes)),
                    Cell::mib(ByteSize::bytes(stored_bytes)),
                    Cell::num(raw_bytes as f64 / stored_bytes.max(1) as f64, 2),
                )
            } else {
                (Cell::Na, Cell::Na, Cell::Na)
            };
            fig.row(vec![
                rate_label.into(),
                mode.into(),
                Cell::mib(ByteSize::bytes(file_bytes)),
                Cell::secs(ckpt_total),
                raw_cell,
                stored_cell,
                ratio_cell,
                checksum_digest(&restored.program.checksums).into(),
            ]);
        }
    }
    fig.note(
        "payload ratio = buffer bytes a full dump would re-save / bytes the \
         chunk store actually appended (novel chunks after compression). \
         files[MB] counts the per-generation stream/dump files, whose fixed \
         process-image header is common to every policy and untouched by \
         dedup — the payload columns isolate what the chunk store changes; \
         dedup only pays for the mutated prefix.",
    );
    fig.note(
        "every row's checksum is the digest of the restored run's final \
         pos/force checksums; the harness asserts equality with an \
         uninterrupted baseline before writing the row.",
    );
    fig.finish().unwrap();
    trace.finish().unwrap();
}
