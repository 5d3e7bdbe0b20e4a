//! Smoke tests of the whole protocol, plus the checks that hold the
//! benchmark's declarations and the fleet golden in step.

use super::*;
use std::time::Duration;

fn smoke(workload: &str, trace: bool) -> (Outcome, Duration) {
    let args = Args {
        workload: workload.into(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
    };
    let start = Instant::now();
    let outcome = run(&args);
    (outcome, start.elapsed())
}

fn names(metrics: &[Metric]) -> Vec<&'static str> {
    metrics.iter().map(|m| m.name).collect()
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not printed"))
        .value
}

/// Metrics on the host clock; every other metric is virtual time, bytes
/// or counts, exact for a seed (as `compare.py` splits them).
fn host_clock(name: &str) -> bool {
    matches!(
        name,
        "host_s" | "setup_s" | "peak_rss_mb" | "trace_overhead_pct" | "checl.runtime.forward_ns"
    ) || name.starts_with("host.")
        || name.ends_with("_mib_s")
}

/// Each workload, at smoke size: fast, complete, failure-free, and
/// reproducible in virtual time.
fn check_workload(workload: &str) {
    let (first, took) = smoke(workload, false);
    assert!(took < Duration::from_secs(5), "{workload} took {took:?}");
    assert!(first.correct, "{workload}: {first:?}");
    assert!(first.attempted > 0);
    assert_eq!(first.failed, 0);
    let declared: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names(&first.metrics), declared);
    for m in &first.metrics {
        assert!(m.value > 0.0, "{workload}: {} = {}", m.name, m.value);
    }

    let (traced, _) = smoke(workload, true);
    assert!(traced.correct, "{workload} traced: {traced:?}");
    let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names(&traced.metrics), declared);
    assert_eq!(value(&traced.metrics, "fail_pct"), 0.0);
    let round = value(&traced.metrics, "host.round_s");
    let parts: f64 = span::ALL
        .iter()
        .chain(&["host.other_s"])
        .map(|s| value(&traced.metrics, s))
        .sum();
    assert!(
        (parts - round).abs() <= round * 0.01,
        "{workload}: host spans sum to {parts}, round took {round}"
    );
    if workload == "interpose" {
        let extra = value(&traced.metrics, "host.checl.runtime_s");
        assert!(extra >= 0.0, "CheCL ran {extra} s faster than native");
    }

    let (again, _) = smoke(workload, true);
    assert_eq!(traced.attempted, again.attempted);
    for (a, b) in traced.metrics.iter().zip(&again.metrics) {
        if !host_clock(a.name) {
            assert_eq!(
                a.value, b.value,
                "{workload}: {} moved between runs of one seed",
                a.name
            );
        }
    }
}

#[test]
fn interpose_smoke() {
    check_workload("interpose");
}

#[test]
fn ckpt_write_smoke() {
    check_workload("ckpt_write");
}

#[test]
fn restore_smoke() {
    check_workload("restore");
}

#[test]
fn fleet_smoke() {
    check_workload("fleet");
}

#[test]
fn args_parse_the_documented_flags() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let a = parse("--workload fleet --seed 7 --seconds 12 --trace 1").expect("valid");
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace, a.size),
        ("fleet", 7, 12.0, true, Size::Full)
    );
    assert_eq!(
        parse("--workload restore").expect("valid").seed,
        DEFAULT_SEED
    );
    for bad in [
        "",
        "--workload nope",
        "--workload fleet --trace 2",
        "--workload fleet --seed -1",
        "--workload fleet --seconds",
        "--workload fleet --bogus 1",
    ] {
        assert!(parse(bad).is_err(), "{bad:?} accepted");
    }
}

#[test]
fn json_line_has_the_documented_keys() {
    let m = [Metric::new("host_s", 1.25, "s", Some(3))];
    assert_eq!(m[0].line(), "host_s 1.25 s n=3");
    assert_eq!(
        metrics::json(true, 4, 0, &m),
        "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
         \"metrics\": {\"host_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
    );
}

/// `BENCHMARK.json` declares exactly the metrics this binary prints,
/// with the same units, and exactly its workloads.
#[test]
fn benchmark_json_matches_the_binary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut declared = 0;
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        declared += 1;
    }
    for w in WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{w}\", \"why\"")));
    }
    assert_eq!(
        text.matches("\"name\":").count(),
        declared + WORKLOADS.len()
    );
}

/// The row of `results/BENCH_fleet.json` that starts with `prefix`.
fn fleet_golden_row(prefix: &str) -> Vec<f64> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/BENCH_fleet.json");
    let text = std::fs::read_to_string(path).expect("fleet golden");
    text.lines()
        .map(str::trim)
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no row {prefix}"))
        .trim_matches(|c| c == '[' || c == ']' || c == ',')
        .split(',')
        .map(|v| v.trim().parse().expect("numeric row"))
        .collect()
}

/// At the default seed a `fleet` round is the 4-node row of the
/// golden's node-count sweep: the same mix on the same cluster.
#[test]
fn fleet_round_is_the_node_sweep_row() {
    let row = fleet_golden_row("[4, 16,");
    let r = fleet::setup(DEFAULT_SEED, Size::Full).round(&mut Probe::new(false));
    assert_eq!((r.attempted, r.failed), (600, 0));
    let l = &r.layers;
    assert_eq!(l.get("jobs_per_s"), row[3]);
    assert_eq!(l.get("job_latency_ms.p50"), row[4]);
    assert_eq!(l.get("job_latency_ms.p99"), row[5]);
    assert_eq!(l.get("fleet.preemptions"), row[6]);
    let migrations = l.get("fleet.migrations_cold") + l.get("fleet.migrations_live");
    assert_eq!(migrations, row[7]);
    assert_eq!(l.get("slo_pct"), row[9] / 600.0 * 100.0);
}

/// The fleet books the bench reads reproduce the golden's 3000-job row
/// at the default seed.
#[test]
fn fleet_books_match_the_job_sweep_row() {
    let row = fleet_golden_row("[3000,");
    let specs = ::fleet::default_job_mix(
        3000,
        DEFAULT_SEED + 3000,
        simcore::SimDuration::from_micros(20_000),
    );
    let r = fleet::fleet_round(&::fleet::run_fleet(&::fleet::FleetConfig::default(), specs));
    assert_eq!((r.attempted, r.failed), (3000, 0));
    let l = &r.layers;
    assert_eq!(l.get("jobs_per_s"), row[3]);
    assert_eq!(l.get("job_latency_ms.p50"), row[4]);
    assert_eq!(l.get("job_latency_ms.p99"), row[5]);
    assert_eq!(l.get("fleet.preemptions"), row[6]);
    assert_eq!(l.get("slo_pct"), row[13] / 3000.0 * 100.0);
}
