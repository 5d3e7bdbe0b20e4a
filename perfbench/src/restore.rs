//! `restore`: the read side. Ten programs are each cut at a seeded
//! kernel launch in their last quarter and, once per dump engine,
//! migrated node0/nimbus → node1/crimson through `/nfs` (Fig. 8). The
//! same dump is then restarted on four more targets, the crimson CPU
//! among them; every restarted run must finish with the native
//! checksums.
//!
//! Dump sniffing and decoding, chunk-store loads, file reads, object
//! recreation and uploads do the work: restores outnumber dumps four
//! to one, so a restore-side cache that costs dump time shows here and
//! in `ckpt_write` with opposite signs.

use crate::common::{checl_layers, fs_layers, reseed, resume, sample};
use crate::measure::{span, Probe, Round};
use crate::{Size, Workload};
use checl::{CheclConfig, CprPolicy, RestoreReport, RestoreTarget};
use checl_bench::eval_targets;
use cldriver::VendorConfig;
use clspec::handles::HandleKind;
use clspec::types::DeviceType;
use osproc::Cluster;
use simcore::{SimTime, SplitMix64};
use workloads::{workload_by_name, CheclSession, NativeSession, Script, StopCondition};

const MIB: f64 = (1u64 << 20) as f64;

/// Fixed roster: transfer-bound, compile-heavy (S3D's 27 programs) and
/// many-buffer programs, so data upload and recompilation both weigh.
const PROGRAMS: [&str; 10] = [
    "Triad",
    "DeviceMemory",
    "oclBlackScholes",
    "Sort",
    "oclHistogram",
    "oclReduction",
    "Stencil2D",
    "MD",
    "S3D",
    "oclMatrixMul",
];

fn scale(size: Size) -> f64 {
    match size {
        Size::Full => 1.0 / 16.0,
        Size::Smoke => 1.0 / 64.0,
    }
}

/// A restart target: node index, vendor, device-type override.
type Target = (usize, fn() -> VendorConfig, Option<DeviceType>);

/// Restart targets besides the migration's own.
const RESTART_TARGETS: [Target; 4] = [
    (0, cldriver::vendor::nimbus, None),
    (1, cldriver::vendor::nimbus, None),
    (0, cldriver::vendor::crimson, None),
    (1, cldriver::vendor::crimson, Some(DeviceType::Cpu)),
];

/// One program with its seeded cut and native checksums.
struct Program {
    name: &'static str,
    script: Script,
    cut: u64,
    native: Option<Vec<u64>>,
}

/// The seeded programs.
pub struct Restore {
    programs: Vec<Program>,
}

/// Build the seeded programs, pick their cuts, and run each natively.
pub fn setup(seed: u64, size: Size) -> Restore {
    let source = &eval_targets()[0];
    let mut rng = SplitMix64::new(seed);
    let programs = PROGRAMS
        .iter()
        .map(|&name| {
            let w = workload_by_name(name).expect("restore roster names catalog programs");
            let script = reseed(w.script(&source.cfg(scale(size))), seed);
            let launches = script.kernel_launches() as u64;
            let cut = launches - rng.next_below((launches / 4).max(1));
            let mut cluster = Cluster::with_standard_nodes(1);
            let node = cluster.node_ids()[0];
            let mut s =
                NativeSession::launch(&mut cluster, node, (source.vendor)(), script.clone());
            let native = s
                .run(&mut cluster, StopCondition::Completion)
                .ok()
                .map(|_| s.program.checksums);
            Program {
                name,
                script,
                cut,
                native,
            }
        })
        .collect();
    Restore { programs }
}

/// Fold a restart's Fig. 7 split into the round's books.
fn restore_split(rep: &RestoreReport, r: &mut Round) {
    for (kind, d) in &rep.per_kind {
        let metric = match kind {
            HandleKind::Platform => "checl.cpr.restore.platform_s",
            HandleKind::Device => "checl.cpr.restore.device_s",
            HandleKind::Context => "checl.cpr.restore.context_s",
            HandleKind::CommandQueue => "checl.cpr.restore.queue_s",
            HandleKind::Mem => "checl.cpr.restore.mem_s",
            HandleKind::Program => "checl.cpr.restore.program_s",
            HandleKind::Kernel => "checl.cpr.restore.kernel_s",
            HandleKind::Sampler | HandleKind::Event => "checl.cpr.restore.other_s",
        };
        r.layers.add(metric, d.as_secs_f64());
    }
}

/// Run a resumed session to completion, check it against `native`,
/// and tear it down.
fn finish(
    mut s: CheclSession,
    cluster: &mut Cluster,
    native: &[u64],
    probe: &mut Probe,
    r: &mut Round,
) -> bool {
    let ran = probe
        .span(span::CHECL, || s.run(cluster, StopCondition::Completion))
        .is_ok();
    let ok = ran && probe.span(span::VERIFY, || s.program.checksums == native);
    checl_layers(&s.lib, &mut r.layers);
    probe.span(span::KILL, || s.kill(cluster));
    ok
}

/// Virtual-time samples of one round.
#[derive(Default)]
struct Books {
    restart_ms: Vec<f64>,
    migrate_ms: Vec<f64>,
    stall_ms: Vec<f64>,
    pred_err_pct: Vec<f64>,
}

/// Cut `p`, migrate it under `policy`, then restart the dump on every
/// other target.
fn cell(
    p: &Program,
    native: &[u64],
    tag: &str,
    policy: &CprPolicy,
    probe: &mut Probe,
    r: &mut Round,
    books: &mut Books,
) {
    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let path = format!("/nfs/{}.{tag}.ckpt", p.name);
    let mut s = probe.span(span::LAUNCH, || {
        CheclSession::launch(
            &mut cluster,
            nodes[0],
            cldriver::vendor::nimbus(),
            CheclConfig::default(),
            p.script.clone(),
        )
    });
    let cut = probe.span(span::CHECL, || {
        s.run(&mut cluster, StopCondition::AfterKernel(p.cut))
    });
    if cut.is_err() {
        r.op(false);
        probe.span(span::KILL, || s.kill(&mut cluster));
        return;
    }
    checl_layers(&s.lib, &mut r.layers);
    let migrated = probe.span(span::MIGRATE, || {
        s.migrate_with_policy(
            &mut cluster,
            nodes[1],
            cldriver::vendor::crimson(),
            &path,
            RestoreTarget::default(),
            policy,
        )
    });
    let Ok((resumed, report)) = migrated else {
        r.op(false);
        return;
    };
    let actual = report.actual.as_secs_f64();
    books.migrate_ms.push(actual * 1e3);
    books
        .stall_ms
        .push(report.checkpoint.total().as_secs_f64() * 1e3);
    books
        .pred_err_pct
        .push((report.predicted.as_secs_f64() - actual).abs() / actual * 100.0);
    r.layers.add(
        "checl.migrate.moved_mb",
        report.moved_bytes.as_u64() as f64 / MIB,
    );
    restore_split(&report.restore, r);
    let ok = finish(resumed, &mut cluster, native, probe, r);
    r.op(ok);

    for (node, vendor, device_type) in RESTART_TARGETS {
        let restarted = probe.span(span::RESTART, || {
            checl::restore(
                &mut cluster,
                nodes[node],
                &path,
                vendor(),
                RestoreTarget { device_type },
            )
        });
        let ok = restarted.ok().and_then(|(lib, pid, rep)| {
            // The new process's clock reads everything the restart
            // cost: file read, proxy fork, object recreation.
            let ms = cluster
                .process(pid)
                .clock
                .since(SimTime::ZERO)
                .as_secs_f64()
                * 1e3;
            books.restart_ms.push(ms);
            restore_split(&rep, r);
            let back = resume(&cluster, pid, lib)?;
            Some(finish(back, &mut cluster, native, probe, r))
        });
        r.op(ok == Some(true));
    }
    fs_layers(&cluster, &mut r.layers);
}

impl Workload for Restore {
    fn round(&self, probe: &mut Probe) -> Round {
        let mut r = Round::default();
        let mut books = Books::default();
        let policies = [
            ("seq", CprPolicy::sequential()),
            ("pipe", CprPolicy::pipelined()),
            ("dedup", CprPolicy::pipelined().dedup(true)),
        ];
        for p in &self.programs {
            let Some(native) = &p.native else {
                continue;
            };
            for (tag, policy) in &policies {
                cell(p, native, tag, policy, probe, &mut r, &mut books);
            }
        }
        r.percentile("restart_ms.p50", &books.restart_ms, 50);
        r.percentile("restart_ms.p90", &books.restart_ms, 90);
        r.percentile("migrate_ms.p50", &books.migrate_ms, 50);
        r.percentile("ckpt_stall_ms.p50", &books.stall_ms, 50);
        r.percentile("ckpt_stall_ms.p90", &books.stall_ms, 90);
        if !books.pred_err_pct.is_empty() {
            let n = books.pred_err_pct.len();
            r.layers.set(
                "checl.migrate.pred_err_pct",
                books.pred_err_pct.iter().sum::<f64>() / n as f64,
            );
            r.samples.insert("checl.migrate.pred_err_pct", n);
        }
        r.op_ms = books.restart_ms;
        r
    }

    fn sample(&self) -> (Vec<u8>, String) {
        let scripts: Vec<&Script> = self.programs.iter().map(|p| &p.script).collect();
        sample(&scripts)
    }
}
