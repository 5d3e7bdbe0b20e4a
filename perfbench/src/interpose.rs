//! `interpose`: the Fig. 4 protocol. Every catalog program runs to
//! completion on each of the three evaluation targets, natively
//! (set-up) and under CheCL (measured), with no checkpoint. The seed
//! picks the programs' buffer contents.
//!
//! Forwarding, IPC, the vendor driver and kernel execution do all the
//! work here and the checkpoint layers do none, so a change confined to
//! the checkpoint path must leave every number of this workload as it
//! was.

use crate::common::{checl_layers, reseed, sample};
use crate::measure::{span, Probe, Round};
use crate::{Size, Workload};
use checl::CheclConfig;
use checl_bench::{eval_targets, EvalTarget};
use osproc::Cluster;
use std::time::Instant;
use workloads::{all_workloads, CheclSession, NativeSession, Script, StopCondition};

/// One catalog program on one target.
struct Program {
    target: EvalTarget,
    script: Script,
    /// Native virtual run time (ms) and checksums; `None` where the
    /// program does not run natively on the target (not portable, so
    /// not attempted).
    native: Option<(f64, Vec<u64>)>,
}

/// Seeded inputs plus the native baselines they are checked against.
pub struct Interpose {
    programs: Vec<Program>,
}

/// Problem scale of every program: a sixteenth of the paper's sizes
/// keeps one pass over 39 programs × 3 targets under two seconds of
/// host time.
fn scale(size: Size) -> f64 {
    match size {
        Size::Full => 1.0 / 16.0,
        Size::Smoke => 1.0 / 256.0,
    }
}

/// Build the seeded programs and run each natively once.
pub fn setup(seed: u64, size: Size) -> Interpose {
    let mut programs = Vec::new();
    for target in eval_targets() {
        for w in all_workloads() {
            let script = reseed(w.script(&target.cfg(scale(size))), seed);
            let mut cluster = Cluster::with_standard_nodes(1);
            let node = cluster.node_ids()[0];
            let mut s =
                NativeSession::launch(&mut cluster, node, (target.vendor)(), script.clone());
            let native = s
                .run(&mut cluster, StopCondition::Completion)
                .ok()
                .map(|_| (s.elapsed(&cluster).as_secs_f64() * 1e3, s.program.checksums));
            programs.push(Program {
                target: target.clone(),
                script,
                native,
            });
        }
    }
    Interpose { programs }
}

/// How many times the CheCL host-overhead probe runs each program on
/// each side.
const PAIRS: usize = 3;

/// Host seconds of one `run` to completion of `p`, natively or under
/// CheCL.
fn run_host_s(p: &Program, checl: bool) -> f64 {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let vendor = (p.target.vendor)();
    let script = p.script.clone();
    if checl {
        let mut s =
            CheclSession::launch(&mut cluster, node, vendor, CheclConfig::default(), script);
        let start = Instant::now();
        let _ = s.run(&mut cluster, StopCondition::Completion);
        let host_s = start.elapsed().as_secs_f64();
        s.kill(&mut cluster);
        host_s
    } else {
        let mut s = NativeSession::launch(&mut cluster, node, vendor, script);
        let start = Instant::now();
        let _ = s.run(&mut cluster, StopCondition::Completion);
        start.elapsed().as_secs_f64()
    }
}

impl Workload for Interpose {
    fn round(&self, probe: &mut Probe) -> Round {
        let mut r = Round::default();
        let mut slowdowns = Vec::new();
        for p in &self.programs {
            let Some((native_ms, native_sums)) = &p.native else {
                continue;
            };
            let mut cluster = Cluster::with_standard_nodes(1);
            let node = cluster.node_ids()[0];
            let mut s = probe.span(span::LAUNCH, || {
                CheclSession::launch(
                    &mut cluster,
                    node,
                    (p.target.vendor)(),
                    CheclConfig::default(),
                    p.script.clone(),
                )
            });
            let ran = probe
                .span(span::CHECL, || {
                    s.run(&mut cluster, StopCondition::Completion)
                })
                .is_ok();
            let ok = ran && probe.span(span::VERIFY, || s.program.checksums == *native_sums);
            r.op(ok);
            if ok {
                let ms = s.elapsed(&cluster).as_secs_f64() * 1e3;
                r.op_ms.push(ms);
                slowdowns.push(ms / native_ms - 1.0);
                r.layers
                    .add("checl.runtime.overhead_s", (ms - native_ms) / 1e3);
            }
            checl_layers(&s.lib, &mut r.layers);
            probe.span(span::KILL, || s.kill(&mut cluster));
        }
        if !slowdowns.is_empty() {
            let mean = slowdowns.iter().sum::<f64>() / slowdowns.len() as f64;
            r.layers.set("overhead_pct", mean * 100.0);
            r.samples.insert("overhead_pct", slowdowns.len());
        }
        r
    }

    fn sample(&self) -> (Vec<u8>, String) {
        let scripts: Vec<&Script> = self.programs.iter().map(|p| &p.script).collect();
        sample(&scripts)
    }

    /// Every program a round runs is run natively and under CheCL in
    /// turn, [`PAIRS`] times each, and the fastest run of each side counts:
    /// pairing keeps machine drift out of a difference of about a
    /// hundredth of the run time, and the minimum keeps preemption out.
    fn checl_host_overhead_s(&self) -> Option<f64> {
        let mut extra = 0.0;
        for p in self.programs.iter().filter(|p| p.native.is_some()) {
            let (mut native, mut checl) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..PAIRS {
                native = native.min(run_host_s(p, false));
                checl = checl.min(run_host_s(p, true));
            }
            extra += checl - native;
        }
        Some(extra)
    }
}
