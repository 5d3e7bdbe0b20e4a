//! `fleet`: the multi-tenant scheduler on the discrete-event core.
//!
//! A round is one `run_fleet` over `fleet::default_job_mix` on the
//! default 4×4-slot cluster with the bit-exactness audit on: the mix the
//! scheduler serves, all six of its programs included. The load is that
//! of the repository's node-count sweep in `results/BENCH_fleet.json`:
//! 600 jobs at a 5 ms mean arrival gap, several times what 16 slots
//! drain. Queues build, important arrivals preempt tenants by
//! checkpoint, victims resume cold elsewhere or move live off hot
//! nodes, and a latency tail forms: the only workload where scheduling,
//! preemption and migration act.
//!
//! The jobs are always the sweep's own draw; the seed deals them to its
//! arrival instants in a seeded order, and the default seed keeps the
//! drawn order, so a round there is the sweep's 4-node row. A fresh
//! draw per seed would change how much kernel work a round holds, and
//! `oclVectorAdd` dominates it (its largest job kind costs about as much
//! host time as the other 17 together): over ten seeds the round's host
//! time spread by 15% (quartile distance over the median, see
//! `baseline/fleet_fresh_mix.txt`). Dealing one draw keeps the work
//! fixed while the seed still moves the schedule.
//!
//! The job-count sweep's 3000 jobs at a 20 ms gap take about half a
//! minute of host time, longer than a whole run; shrunk to what fits,
//! that gap never fills the queue and nothing is preempted.

use crate::measure::{span, Probe, Round};
use crate::{Size, Workload, DEFAULT_SEED};
use fleet::{default_job_mix, run_fleet, FleetConfig, FleetReport, JobSpec, MIX_WORKLOADS};
use simcore::{SimDuration, SimTime, SplitMix64};

/// Jobs in the mix.
fn jobs(size: Size) -> usize {
    match size {
        Size::Full => 600,
        Size::Smoke => 40,
    }
}

/// Mean arrival gap of the node-count sweep.
const GAP: SimDuration = SimDuration::from_micros(5_000);

/// The seeded job mix.
pub struct Fleet {
    specs: Vec<JobSpec>,
}

/// The node-count sweep's mix, its jobs dealt to its arrival instants
/// in an order drawn from `seed` (as drawn at the default seed).
pub fn mix(seed: u64, size: Size) -> Vec<JobSpec> {
    let mut specs = default_job_mix(jobs(size), DEFAULT_SEED, GAP);
    if seed != DEFAULT_SEED {
        let arrivals: Vec<SimTime> = specs.iter().map(|j| j.arrival).collect();
        let mut rng = SplitMix64::new(seed);
        for k in (1..specs.len()).rev() {
            specs.swap(k, rng.next_below(k as u64 + 1) as usize);
        }
        for (job, at) in specs.iter_mut().zip(arrivals) {
            job.arrival = at;
        }
    }
    specs
}

/// Deal the mix, then run one solo job of each kind in it (program ×
/// scale) at once, so allocator and catalog warm-up lands in set-up
/// rather than in the first round.
pub fn setup(seed: u64, size: Size) -> Fleet {
    let specs = mix(seed, size);
    let mut kinds: Vec<JobSpec> = specs
        .iter()
        .filter(|j| j.ranks == 1)
        .map(|j| JobSpec {
            name: format!("warm.{}.{}", j.workload, j.scale_milli),
            priority: 0,
            arrival: SimTime::ZERO,
            ..j.clone()
        })
        .collect();
    kinds.sort_by(|a, b| a.name.cmp(&b.name));
    kinds.dedup_by(|a, b| a.name == b.name);
    let warm = run_fleet(&FleetConfig::default(), kinds);
    std::hint::black_box(warm.completed);
    Fleet { specs }
}

/// Fold a fleet report into a round: one operation per job, failed if
/// it was refused, unverified or diverged from its solo baseline.
pub fn fleet_round(rep: &FleetReport) -> Round {
    let diverged = rep.bit_exact_checked - rep.bit_exact_ok;
    let unverified = rep.completed as u64 - rep.bit_exact_checked;
    let mut r = Round {
        attempted: rep.jobs as u64,
        failed: (rep.jobs - rep.completed) as u64 + diverged + unverified,
        op_ms: rep
            .outcomes
            .iter()
            .map(|o| o.latency.as_secs_f64() * 1e3)
            .collect(),
        ..Round::default()
    };
    for metric in ["job_latency_ms.p50", "job_latency_ms.p99"] {
        r.samples.insert(metric, rep.outcomes.len());
    }
    let l = &mut r.layers;
    l.set("job_latency_ms.p50", rep.p50_latency.as_secs_f64() * 1e3);
    l.set("job_latency_ms.p99", rep.p99_latency.as_secs_f64() * 1e3);
    l.set("jobs_per_s", rep.throughput_per_s);
    // Refused jobs miss the SLO too.
    l.set(
        "slo_pct",
        rep.slo_attained as f64 / rep.jobs.max(1) as f64 * 100.0,
    );
    l.set("simcore.des.sched_events", rep.sched_events as f64);
    l.set("simcore.des.ops_per_event", rep.ops_per_event());
    l.set("fleet.preemptions", rep.preemptions as f64);
    l.set("fleet.migrations_cold", rep.migrations_cold as f64);
    l.set("fleet.migrations_live", rep.migrations_live as f64);
    l.set("fleet.generations", rep.generations as f64);
    r
}

impl Workload for Fleet {
    fn round(&self, probe: &mut Probe) -> Round {
        let specs = self.specs.clone();
        let report = probe.span(span::RUN_FLEET, || {
            run_fleet(&FleetConfig::default(), specs)
        });
        probe.span(span::VERIFY, || fleet_round(&report))
    }

    fn sample(&self) -> (Vec<u8>, String) {
        let cfg = workloads::WorkloadCfg {
            scale: 0.06,
            ..Default::default()
        };
        let scripts: Vec<workloads::Script> = MIX_WORKLOADS
            .into_iter()
            .filter_map(workloads::workload_by_name)
            .map(|w| w.script(&cfg))
            .collect();
        let refs: Vec<&workloads::Script> = scripts.iter().collect();
        crate::common::sample(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seed deals the same jobs to the same arrival instants; the
    /// default seed keeps the drawn order.
    #[test]
    fn seeds_deal_one_draw() {
        let key = |j: &JobSpec| {
            (
                j.name.clone(),
                j.workload,
                j.scale_milli,
                j.priority,
                j.ranks,
            )
        };
        let drawn = default_job_mix(jobs(Size::Full), DEFAULT_SEED, GAP);
        let dealt = mix(7, Size::Full);
        let at = |m: &[JobSpec]| m.iter().map(|j| j.arrival).collect::<Vec<_>>();
        assert_eq!(at(&dealt), at(&drawn));
        let kinds = |m: &[JobSpec]| {
            let mut k: Vec<_> = m.iter().map(key).collect();
            k.sort();
            k
        };
        assert_eq!(kinds(&dealt), kinds(&drawn));
        assert_ne!(
            dealt.iter().map(key).collect::<Vec<_>>(),
            drawn.iter().map(key).collect::<Vec<_>>()
        );
        assert_eq!(
            mix(DEFAULT_SEED, Size::Full)
                .iter()
                .map(key)
                .collect::<Vec<_>>(),
            drawn.iter().map(key).collect::<Vec<_>>()
        );
    }
}
