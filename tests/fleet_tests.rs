//! Fleet-scheduler properties: deterministic replay and bit-exact
//! preemption at every checkpoint-policy lattice point.

use checl_repro as _;

use checl::cpr::RestoreTarget;
use checl::CheclConfig;
use osproc::Cluster;
use simcore::qcheck::{qcheck, Gen};
use simcore::SimDuration;
use workloads::{workload_by_name, CheclSession, StopCondition, WorkloadCfg, YieldPoint};

fn mix(g: &mut Gen, jobs: usize) -> Vec<fleet::JobSpec> {
    fleet::default_job_mix(jobs, g.u64(), SimDuration::from_micros(g.range(100, 2000)))
}

/// The whole fleet schedule — placements, preemptions, migrations,
/// latencies, scheduler-op counts — replays bit-identically under its
/// seed: there is no hidden nondeterminism in the event loop.
#[test]
fn fleet_schedule_replays_bit_identically() {
    qcheck("fleet_schedule_replays_bit_identically", 3, |g| {
        let cfg = fleet::FleetConfig {
            nodes: g.usize_in(2, 4),
            slots_per_node: 2,
            ..fleet::FleetConfig::default()
        };
        let jobs = g.usize_in(12, 25);
        let specs = mix(g, jobs);
        let a = fleet::run_fleet(&cfg, specs.clone());
        let b = fleet::run_fleet(&cfg, specs);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(a.migrations_cold, b.migrations_cold);
        assert_eq!(a.migrations_live, b.migrations_live);
        assert_eq!(a.generations, b.generations);
        assert_eq!(a.sched_events, b.sched_events);
        assert_eq!(a.sched_ops, b.sched_ops);
        assert_eq!(a.slo_attained, b.slo_attained);
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.latency, y.latency);
            assert_eq!(x.preemptions, y.preemptions);
            assert_eq!(x.migrations, y.migrations);
            assert_eq!(x.generations, y.generations);
            assert_eq!(x.node, y.node);
            assert_eq!(x.bit_exact, Some(true));
        }
    });
}

/// A tenant preempted mid-run — checkpointed, killed, and later
/// resumed on a *different* node — finishes with checksums identical
/// to an uninterrupted solo run, at **every** policy lattice point the
/// fleet's preemption rotation uses (sequential, pipelined,
/// pipelined+dedup).
#[test]
fn preemption_is_bit_exact_at_every_lattice_point() {
    qcheck("preemption_is_bit_exact_at_every_lattice_point", 3, |g| {
        let workload = *g.pick(&fleet::MIX_WORKLOADS);
        let scale = *g.pick(&[0.01f64, 0.025, 0.06]);
        let cfg = WorkloadCfg {
            device_mem: simcore::calib::tesla_c1060_memory(),
            scale,
            device_type: clspec::types::DeviceType::Gpu,
        };
        let script = workload_by_name(workload).unwrap().script(&cfg);
        let quantum = SimDuration::from_micros(g.range(100, 1000));
        let cuts = g.usize_in(1, 4);

        // The reference: the same script, never interrupted.
        let expected = {
            let mut cluster = Cluster::with_standard_nodes(1);
            let node = cluster.node_ids()[0];
            let mut s = CheclSession::launch(
                &mut cluster,
                node,
                cldriver::vendor::nimbus(),
                CheclConfig::default(),
                script.clone(),
            );
            s.run(&mut cluster, StopCondition::Completion).unwrap();
            s.program.checksums.clone()
        };

        for policy in fleet::preempt_policies() {
            let mut cluster = Cluster::with_standard_nodes(2);
            let nodes = cluster.node_ids();
            let mut s = CheclSession::launch(
                &mut cluster,
                nodes[0],
                cldriver::vendor::nimbus(),
                CheclConfig::default(),
                script.clone(),
            );
            // Advance to a yield point partway through the script.
            let mut done = false;
            for _ in 0..cuts {
                if s.run_step(&mut cluster, quantum).unwrap() == YieldPoint::Done {
                    done = true;
                    break;
                }
            }
            if !done {
                // Preempt: dump under this lattice point, kill the
                // process, resume from the dump on the *other* node.
                let path = format!("/nfs/latt-{}.ckpt", policy.label());
                s.checkpoint_with_policy(&mut cluster, &path, &policy)
                    .unwrap();
                s.kill(&mut cluster);
                s = CheclSession::restart(
                    &mut cluster,
                    nodes[1],
                    &path,
                    cldriver::vendor::nimbus(),
                    RestoreTarget::default(),
                )
                .unwrap();
                s.run(&mut cluster, StopCondition::Completion).unwrap();
            }
            assert_eq!(
                s.program.checksums,
                expected,
                "{workload} @ {scale}: policy {} diverged from the \
                 uninterrupted baseline",
                policy.label(),
            );
        }
    });
}
