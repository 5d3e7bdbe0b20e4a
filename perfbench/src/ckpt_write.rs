//! `ckpt_write`: the write side of checkpointing. A rotating-mutation
//! program (`live_mutating`, four buffers) is checkpointed to `/local`
//! after every step, once per engine lattice point; each cell then
//! restores only its last generation and must finish with the
//! checksums of an uninterrupted run.
//!
//! Snapshot/drain, stream encoding, FNV and gear hashing, chunking,
//! compression and filesystem writes do the work: dumps outnumber
//! restores by the generation count. Incremental payloads are left out
//! on purpose; dedup's region-clean path covers the same ground. So is
//! live+dedup: a live drain sends its payload inline whatever the dedup
//! flag says, so that cell would repeat the live one.

use crate::common::{checl_layers, fs_layers, reseed, resume, sample};
use crate::measure::{span, Probe, Round};
use crate::{Size, Workload};
use checl::{CheclConfig, CheclCprError, CprPolicy, LiveDrainOutcome, RestoreTarget};
use checl_bench::{eval_targets, EvalTarget};
use osproc::Cluster;
use workloads::catalog::live_mutating;
use workloads::{CheclSession, Script, StopCondition};

const MIB: f64 = (1u64 << 20) as f64;

/// The lattice points, with the metric each one's median stall lands in.
fn cells() -> [(&'static str, CprPolicy); 4] {
    [
        (
            "checl.engine.sequential.stall_ms.p50",
            CprPolicy::sequential(),
        ),
        (
            "checl.engine.pipelined.stall_ms.p50",
            CprPolicy::pipelined(),
        ),
        (
            "checl.engine.pipelined_dedup.stall_ms.p50",
            CprPolicy::pipelined().dedup(true),
        ),
        (
            "checl.engine.live.stall_ms.p50",
            CprPolicy::pipelined().live(true),
        ),
    ]
}

/// `(buffer bytes, generations)`: four 448 KiB buffers over 30 steps
/// is 120 dumps a pass, under three seconds of host time.
fn shape(size: Size) -> (u64, u32) {
    match size {
        Size::Full => (448 << 10, 30),
        Size::Smoke => (64 << 10, 4),
    }
}

/// The seeded program and its uninterrupted checksums.
pub struct CkptWrite {
    target: EvalTarget,
    script: Script,
    generations: u32,
    golden: Vec<u64>,
}

/// Build the seeded program and run it once without checkpoints.
pub fn setup(seed: u64, size: Size) -> CkptWrite {
    let target = eval_targets()[0].clone();
    let (bytes, generations) = shape(size);
    let script = reseed(live_mutating(&target.cfg(1.0), 4, bytes, generations), seed);
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let mut s = CheclSession::launch(
        &mut cluster,
        node,
        (target.vendor)(),
        CheclConfig::default(),
        script.clone(),
    );
    let golden = match s.run(&mut cluster, StopCondition::Completion) {
        Ok(_) => s.program.checksums.clone(),
        Err(_) => Vec::new(),
    };
    CkptWrite {
        target,
        script,
        generations,
        golden,
    }
}

/// What one round's cells add up to beyond the per-layer sums.
#[derive(Default)]
struct Books {
    stalls: Vec<f64>,
    drains_ms: Vec<f64>,
    dump_bytes: f64,
    chunks: u64,
    chunks_deduped: u64,
    chunks_region_clean: u64,
}

impl Books {
    /// Account a landed live drain: its cut's stall is only known now.
    fn drained(
        &mut self,
        drained: Result<Option<LiveDrainOutcome>, CheclCprError>,
        stalls: &mut Vec<f64>,
        r: &mut Round,
    ) -> bool {
        match drained {
            Ok(Some(d)) => {
                stalls.push((d.stall.total() + d.fork_stall).as_secs_f64() * 1e3);
                self.drains_ms.push(d.drain_wall.as_secs_f64() * 1e3);
                self.dump_bytes += d.file_size.as_u64() as f64;
                r.layers
                    .add("checl.engine.live.forked_mb", d.forked_bytes as f64 / MIB);
                r.layers
                    .add("checl.engine.live.fork_stall_s", d.fork_stall.as_secs_f64());
                r.op(true);
                true
            }
            Ok(None) => true,
            Err(_) => {
                r.op(false);
                false
            }
        }
    }
}

impl CkptWrite {
    /// One lattice cell: checkpoint after every step, finish, restore
    /// the last generation and finish again.
    fn cell(
        &self,
        stall_metric: &'static str,
        policy: &CprPolicy,
        probe: &mut Probe,
        r: &mut Round,
        books: &mut Books,
    ) {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let vendor = self.target.vendor;
        let mut s = probe.span(span::LAUNCH, || {
            CheclSession::launch(
                &mut cluster,
                node,
                vendor(),
                CheclConfig::default(),
                self.script.clone(),
            )
        });
        let mut stalls = Vec::new();
        let mut last = None;
        let mut healthy = true;
        for gen in 1..=self.generations as u64 {
            healthy = probe
                .span(span::CHECL, || {
                    s.run(&mut cluster, StopCondition::AfterKernel(gen))
                })
                .is_ok();
            // The previous live cut drained while this step computed.
            let drained = probe.span(span::DRAIN, || s.complete_live_drain(&mut cluster));
            healthy &= books.drained(drained, &mut stalls, r);
            let snap = healthy
                .then(|| {
                    probe.span(span::SNAPSHOT, || {
                        s.checkpoint_with_policy(&mut cluster, "/local/cell.ckpt", policy)
                    })
                })
                .and_then(Result::ok);
            let Some(out) = snap else {
                r.op(false);
                healthy = false;
                break;
            };
            let rep = out.report;
            r.layers.add("checl.engine.sync_s", rep.sync.as_secs_f64());
            r.layers
                .add("checl.engine.preprocess_s", rep.preprocess.as_secs_f64());
            r.layers
                .add("checl.engine.write_s", rep.write.as_secs_f64());
            r.layers
                .add("checl.engine.postprocess_s", rep.postprocess.as_secs_f64());
            r.layers.add(
                "checl.engine.overlap_saved_s",
                rep.overlap_saved.as_secs_f64(),
            );
            if let Some(d) = rep.dedup {
                books.chunks += d.chunks_total;
                books.chunks_deduped += d.chunks_deduped;
                books.chunks_region_clean += d.chunks_region_clean;
                r.layers
                    .add("blcr.chunkstore.raw_mb", d.raw_bytes as f64 / MIB);
                r.layers
                    .add("blcr.chunkstore.stored_mb", d.stored_bytes as f64 / MIB);
                r.layers
                    .add("blcr.chunkstore.compress_s", d.compress_ns as f64 / 1e9);
                books.dump_bytes += d.stored_bytes as f64;
            }
            if !policy.live {
                stalls.push(rep.total().as_secs_f64() * 1e3);
                books.dump_bytes += rep.file_size.as_u64() as f64;
                r.op(true);
            }
            last = Some(out.path);
        }

        // Finish the run (the last live cut drains behind it); the
        // checkpoints must not have perturbed its results.
        let finished = healthy
            && probe
                .span(span::CHECL, || {
                    s.run(&mut cluster, StopCondition::Completion)
                })
                .is_ok();
        let drained = probe.span(span::DRAIN, || s.complete_live_drain(&mut cluster));
        let finished = books.drained(drained, &mut stalls, r)
            && finished
            && probe.span(span::VERIFY, || s.program.checksums == self.golden);
        r.op(finished);
        checl_layers(&s.lib, &mut r.layers);
        probe.span(span::KILL, || s.kill(&mut cluster));

        let restored = last.and_then(|path| {
            let (lib, pid, _) = probe
                .span(span::RESTART, || {
                    checl::restore(
                        &mut cluster,
                        node,
                        &path,
                        vendor(),
                        RestoreTarget::default(),
                    )
                })
                .ok()?;
            let mut back = resume(&cluster, pid, lib)?;
            let ran = probe
                .span(span::CHECL, || {
                    back.run(&mut cluster, StopCondition::Completion)
                })
                .is_ok();
            let ok = ran && probe.span(span::VERIFY, || back.program.checksums == self.golden);
            probe.span(span::KILL, || back.kill(&mut cluster));
            Some(ok)
        });
        r.op(restored == Some(true));
        fs_layers(&cluster, &mut r.layers);

        r.percentile(stall_metric, &stalls, 50);
        books.stalls.extend(stalls);
    }
}

impl Workload for CkptWrite {
    fn round(&self, probe: &mut Probe) -> Round {
        let mut r = Round::default();
        let mut books = Books::default();
        let cells = cells();
        for (stall_metric, policy) in &cells {
            self.cell(stall_metric, policy, probe, &mut r, &mut books);
        }
        if books.chunks > 0 {
            let chunks = books.chunks as f64;
            r.layers.set("blcr.chunkstore.chunks", chunks);
            r.layers.set(
                "blcr.chunkstore.dedup_hit_ratio",
                books.chunks_deduped as f64 / chunks,
            );
            r.layers.set(
                "blcr.chunkstore.region_clean_ratio",
                books.chunks_region_clean as f64 / chunks,
            );
        }
        let dumps = (self.generations as usize * cells.len()) as f64;
        r.layers
            .set("ckpt_mb_per_gen", books.dump_bytes / MIB / dumps);
        r.percentile("checl.engine.live.drain_ms.p50", &books.drains_ms, 50);
        r.percentile("ckpt_stall_ms.p50", &books.stalls, 50);
        r.percentile("ckpt_stall_ms.p90", &books.stalls, 90);
        r.op_ms = books.stalls;
        r
    }

    fn sample(&self) -> (Vec<u8>, String) {
        sample(&[&self.script])
    }
}
