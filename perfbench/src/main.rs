//! `perf` — the two-clock benchmark of the CheCL simulator.
//!
//! ```text
//! perf --workload <interpose|ckpt_write|restore|fleet> [--seed <u64>]
//!      [--seconds <s>] [--trace <0|1>] [--size <full|smoke>]
//! ```
//!
//! One invocation runs one workload, single-threaded. It builds the
//! workload's inputs from the seed (set-up, repeated [`SETUPS`] times),
//! then repeats passes ("rounds") over the same inputs for about
//! `--seconds`. Every round checks its outputs against the set-up's
//! baselines and must reproduce the first round's virtual-time results
//! exactly; failed or diverged operations are counted, not fatal.
//!
//! The system runs on two clocks and both are reported. *Host* time is
//! the simulator's own speed (`host_s`, `setup_s`): noisy, so it is a
//! median. *Virtual* time is the modelled system's speed (`virt_ms.*`
//! and the workload metrics): deterministic for a seed. With
//! `--trace 1` the run alternates untraced rounds with traced ones and
//! reports the per-layer metrics instead: virtual-time results, peak
//! memory, host spans recorded around each library call, the library's
//! own counters and reports, and hot-path probes on the workload's
//! bytes.
//!
//! Every metric prints as `name value unit [n=samples]`; the last line
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The process exits non-zero only on a usage or harness
//! error.

mod ckpt_write;
mod common;
mod fleet;
mod interpose;
mod measure;
mod metrics;
mod restore;
mod trace;

use measure::{median, nearest_rank, peak_rss_mib, span, Probe, Round};
use metrics::{Metric, END_TO_END, PER_LAYER};
use std::time::Instant;

/// The seed the benchmark's reference numbers are taken at.
pub const DEFAULT_SEED: u64 = 20110811;

/// How many times set-up runs; `setup_s` is the median.
const SETUPS: usize = 3;

/// Problem size: `Full` is the benchmark, `Smoke` a seconds-long
/// version of the same protocol for tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Tiny inputs, same code paths.
    Smoke,
}

/// A workload whose inputs are built: one round is one pass over them.
pub trait Workload {
    /// Run every operation once.
    fn round(&self, probe: &mut Probe) -> Round;
    /// The workload's buffer bytes and kernel sources, for the
    /// hot-path probes.
    fn sample(&self) -> (Vec<u8>, String);
    /// Host seconds CheCL adds to running the workload's programs,
    /// over running them natively (the `interpose` workload only).
    fn checl_host_overhead_s(&self) -> Option<f64> {
        None
    }
}

/// Workload names, in report order.
pub const WORKLOADS: [&str; 4] = ["interpose", "ckpt_write", "restore", "fleet"];

fn setup(workload: &str, seed: u64, size: Size) -> Box<dyn Workload> {
    match workload {
        "interpose" => Box::new(interpose::setup(seed, size)),
        "ckpt_write" => Box::new(ckpt_write::setup(seed, size)),
        "restore" => Box::new(restore::setup(seed, size)),
        "fleet" => Box::new(fleet::setup(seed, size)),
        other => unreachable!("workload {other} was validated by Args::parse"),
    }
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

const USAGE: &str = "usage: perf --workload <interpose|ckpt_write|restore|fleet> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--size <full|smoke>]";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 20.0,
            trace: false,
            size: Size::Full,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => out.workload = value,
                "--workload" => return Err(bad("unknown workload")),
                "--seed" => out.seed = value.parse().map_err(|_| bad("expected a u64"))?,
                "--seconds" => {
                    out.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("expected seconds >= 0"))?
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                "--size" => {
                    out.size = match value.as_str() {
                        "full" => Size::Full,
                        "smoke" => Size::Smoke,
                        _ => return Err(bad("expected full or smoke")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if out.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(out)
    }
}

/// What one invocation reports.
#[derive(Debug)]
pub struct Outcome {
    /// No operation failed and every round reproduced the first.
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// A measured round: host seconds plus what it produced.
struct Timed {
    host_s: f64,
    round: Round,
    probe: Probe,
}

/// Run set-up and the measured rounds for `args`.
pub fn run(args: &Args) -> Outcome {
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..SETUPS {
        // Drop the previous inputs first so set-ups do not stack up in
        // memory.
        drop(workload.take());
        let start = Instant::now();
        workload = Some(setup(&args.workload, args.seed, args.size));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let workload = workload.expect("SETUPS is positive");

    // Measured phase: with tracing, untraced and traced rounds
    // alternate so both see the same machine conditions.
    let start = Instant::now();
    let mut plain: Vec<Timed> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    // Peak memory is read once the inputs are built and one round has
    // run: later rounds repeat the same work, and how many fit in the
    // time depends on the machine.
    let mut peak_rss = None;
    loop {
        let tracing = args.trace && plain.len() > traced.len();
        let mut probe = Probe::new(tracing);
        let recording = tracing.then(trace::Recording::start);
        let t = Instant::now();
        let mut round = workload.round(&mut probe);
        let host_s = t.elapsed().as_secs_f64();
        if let Some(recording) = recording {
            recording.finish(&mut round.layers);
        }
        let timed = Timed {
            host_s,
            round,
            probe,
        };
        if tracing {
            traced.push(timed);
        } else {
            plain.push(timed);
        }
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mib().unwrap_or(0.0));
        }
        let rounds = plain.len() + traced.len();
        let per_round = start.elapsed().as_secs_f64() / rounds as f64;
        let enough = !args.trace || !traced.is_empty();
        if enough && start.elapsed().as_secs_f64() + per_round > args.seconds {
            break;
        }
    }

    // Every round must reproduce the first one's virtual results. Traced
    // rounds carry extra books, so they are held to its outcomes only:
    // tracing must not move virtual time. A round that diverges counts
    // all of its operations as failed.
    let first = &plain[0].round;
    let outcomes = |r: &Round| (r.attempted, r.failed, r.op_ms.clone());
    let checks = plain.iter().map(|t| (t, t.round == *first)).chain(
        traced
            .iter()
            .map(|t| (t, outcomes(&t.round) == outcomes(first))),
    );
    let (mut attempted, mut failed, mut reproducible) = (0, 0, true);
    for (t, same) in checks {
        attempted += t.round.attempted;
        failed += if same {
            t.round.failed
        } else {
            t.round.attempted
        };
        reproducible &= same;
    }

    let metrics = if args.trace {
        let fail_pct = failed as f64 / attempted.max(1) as f64 * 100.0;
        let peak_rss_mib = peak_rss.unwrap_or(0.0);
        per_layer(&*workload, &plain, &traced, fail_pct, peak_rss_mib)
    } else {
        end_to_end(&plain, &setup_s)
    };
    Outcome {
        correct: failed == 0 && reproducible,
        attempted,
        failed,
        metrics,
    }
}

fn end_to_end(plain: &[Timed], setup_s: &[f64]) -> Vec<Metric> {
    let host: Vec<f64> = plain.iter().map(|t| t.host_s).collect();
    let value = |name: &str| -> (f64, Option<usize>) {
        match name {
            "host_s" => (median(&host), Some(host.len())),
            "setup_s" => (median(setup_s), Some(setup_s.len())),
            other => unreachable!("no end-to-end metric named {other}"),
        }
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let (value, n) = value(name);
            Metric::new(name, value, unit, n)
        })
        .collect()
}

fn per_layer(
    workload: &dyn Workload,
    plain: &[Timed],
    traced: &[Timed],
    fail_pct: f64,
    peak_rss_mib: f64,
) -> Vec<Metric> {
    // Host spans come from the traced round of median length, so they
    // partition exactly the `host.round_s` printed beside them.
    let mut order: Vec<&Timed> = traced.iter().collect();
    order.sort_by(|a, b| a.host_s.total_cmp(&b.host_s));
    let mid = order[(order.len() - 1) / 2];
    let mut layers = traced[0].round.layers.clone();
    let spanned: f64 = span::ALL.iter().map(|s| mid.probe.total_s(s)).sum();
    for s in span::ALL {
        layers.set(s, mid.probe.total_s(s));
    }
    layers.set("host.round_s", mid.host_s);
    layers.set("host.other_s", mid.host_s - spanned);
    let mut samples = traced[0].round.samples.clone();
    let op_ms = &traced[0].round.op_ms;
    layers.set(
        "virt_ms.mean",
        op_ms.iter().sum::<f64>() / op_ms.len().max(1) as f64,
    );
    samples.insert("virt_ms.mean", op_ms.len());
    for (metric, pct) in [("virt_ms.p50", 50), ("virt_ms.p90", 90)] {
        layers.set(metric, nearest_rank(op_ms, pct));
        samples.insert(metric, op_ms.len());
    }
    for (metric, s) in [
        ("host.engine.snapshot_ms.p50", span::SNAPSHOT),
        ("host.cpr.restart_ms.p50", span::RESTART),
        ("host.migrate_ms.p50", span::MIGRATE),
    ] {
        let (ms, n) = mid.probe.p50_ms(s);
        layers.set(metric, ms);
        samples.insert(metric, n);
    }
    if let Some(extra) = workload.checl_host_overhead_s() {
        layers.set("host.checl.runtime_s", extra);
    }
    let untraced = median(&plain.iter().map(|t| t.host_s).collect::<Vec<_>>());
    let traced_s = median(&traced.iter().map(|t| t.host_s).collect::<Vec<_>>());
    layers.set("trace_overhead_pct", (traced_s / untraced - 1.0) * 100.0);
    layers.set("fail_pct", fail_pct);
    layers.set("peak_rss_mb", peak_rss_mib);
    let (bytes, sources) = workload.sample();
    trace::probe_hot_paths(&bytes, &sources, &mut layers);

    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, layers.get(name), unit, samples.get(name).copied()))
        .collect()
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    for m in &outcome.metrics {
        println!("{}", m.line());
    }
    println!(
        "{}",
        metrics::json(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
}

#[cfg(test)]
mod tests;
