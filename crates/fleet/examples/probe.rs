use fleet::{default_job_mix, run_fleet, FleetConfig};
use simcore::SimDuration;

fn main() {
    let jobs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    let nodes: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let gap_us: u64 = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50);
    let cfg = FleetConfig {
        nodes,
        ..FleetConfig::default()
    };
    let t0 = std::time::Instant::now();
    let r = run_fleet(
        &cfg,
        default_job_mix(jobs, 42, SimDuration::from_micros(gap_us)),
    );
    println!(
        "jobs={} nodes={} wall={:?} makespan={:?} thr={:.1}/s p50={:?} p99={:?} preempt={} cold={} live={} gen={} events={} ops/ev={:.2} bit={}/{} slo={}:{}",
        r.jobs, r.nodes, t0.elapsed(), r.makespan, r.throughput_per_s, r.p50_latency, r.p99_latency,
        r.preemptions, r.migrations_cold, r.migrations_live, r.generations,
        r.sched_events, r.ops_per_event(), r.bit_exact_ok, r.bit_exact_checked,
        r.slo_attained, r.slo_missed,
    );
}
