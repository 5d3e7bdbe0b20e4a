//! `checl_inspect`: the fleet health report, reconstructed **from the
//! ledger alone**.
//!
//! Re-runs the `ablation_supervisor` adaptive sweep (same seeds, same
//! regimes, same knobs) with the [`simcore::obs`] event ledger
//! recording, then renders everything an operator would ask of a
//! supervised fleet without ever touching the `SupervisorReport`:
//!
//! * **SLO attainment** — availability, downtime, wasted-work and
//!   checkpoint-overhead ratios, summed from `incident_*` and
//!   `checkpoint_accounted` events; the run asserts these equal the
//!   supervisor's own books *exactly* (the ledger is an independent
//!   witness, not a copy);
//! * **checkpoint provenance** — the generation table out of the
//!   [`ProvenanceGraph`], every lineage verified against the bytes on
//!   disk (existence, recorded size, format parse, vault FNV-64);
//! * **incident timeline** — opened/closed pairs zipped with the
//!   `fault_injected` records so every incident names the injected
//!   fault behind it (and the run asserts the 1:1 reconciliation);
//! * **channel utilization** — per-resource busy time and op counts
//!   observed during a pipelined dump;
//! * **live overlap** — per-generation stall vs background-drain wall
//!   time, COW fork counts/bytes and drain-channel utilization, folded
//!   from `cow_forked`/`live_drain_completed` events of a live-policy
//!   cadence (the run asserts stall < drain on every generation).
//!
//! The harsh-regime ledger is also exported as JSON Lines
//! (`results/checl_inspect.ledger.jsonl`) — a committed golden, since
//! the ledger replays bit-exactly under its seed.

use checl::obs::{generation_table, incident_timeline, reconcile_faults, verify_all};
use checl::IntervalPolicy::DalyAdaptive;
use checl::{CheclConfig, CprPolicy};
use checl_bench::{
    eval_targets, iterative_md, quantile_secs, supervised_cell, Cell, EvalTarget, FigureWriter,
    TraceSession, MD_STEPS, REGIMES, SEED,
};
use osproc::Cluster;
use simcore::obs::{self, EventKind, Ledger, ProvenanceGraph, SloSummary};
use simcore::SimDuration;
use std::collections::BTreeMap;
use workloads::catalog::{live_mutating, md_mutating};
use workloads::{CheclSession, StopCondition};

fn main() {
    let trace = TraceSession::from_args();
    let target = &eval_targets()[0];
    let mut fig = FigureWriter::new("checl_inspect");

    fig.section(
        "SLO attainment, reconstructed from the ledger alone",
        &[
            "failure regime",
            "MTBF injected [s]",
            "wall clock [s]",
            "availability",
            "downtime [s]",
            "wasted [s]",
            "ckpt overhead [s]",
            "incidents",
            "repairs",
            "checkpoints",
            "faults matched",
            "ckpt p50 [s]",
            "ckpt p95 [s]",
            "ckpt p99 [s]",
        ],
    );
    let mut harsh: Option<(Cluster, Ledger)> = None;
    for (k, (regime, mtbf_ms)) in REGIMES.iter().enumerate() {
        // The adaptive policy is the one that completes at every regime.
        let (cluster, report, ledger) =
            supervised_cell(target, SEED + k as u64, *mtbf_ms, DalyAdaptive, true).completed();
        let ledger = ledger.expect("recording was on");
        let slo = SloSummary::from_ledger(&ledger, report.wall_clock);
        // The ledger is an independent witness: its sums must equal
        // the supervisor's books to the nanosecond.
        assert_eq!(slo.downtime, report.downtime, "{regime}: downtime drifted");
        assert_eq!(slo.wasted, report.wasted_work, "{regime}: wasted drifted");
        assert_eq!(
            slo.overhead, report.checkpoint_overhead,
            "{regime}: overhead drifted"
        );
        assert_eq!(slo.incidents, report.failures as u64);
        assert_eq!(slo.checkpoints, report.checkpoints as u64);
        assert_eq!(slo.retunes, report.interval_history.len() as u64 - 1);
        let rec = reconcile_faults(&ledger);
        assert!(
            rec.unmatched_incidents.is_empty(),
            "{regime}: incident with no fault behind it"
        );
        assert_eq!(
            rec.matched.len(),
            report.failures as usize,
            "{regime}: faults and incidents must reconcile 1:1"
        );
        let costs = ledger.digest(|e| match &e.kind {
            EventKind::CheckpointCommitted { cost_ns, .. } => Some(*cost_ns),
            _ => None,
        });
        fig.row(vec![
            (*regime).into(),
            Cell::num(*mtbf_ms as f64 / 1000.0, 1),
            Cell::secs(slo.horizon),
            Cell::Pct(slo.availability() * 100.0),
            Cell::secs(slo.downtime),
            Cell::secs(slo.wasted),
            Cell::secs(slo.overhead),
            slo.incidents.into(),
            slo.repairs.into(),
            slo.checkpoints.into(),
            (rec.matched.len() as u64).into(),
            quantile_secs(&costs, 0.50),
            quantile_secs(&costs, 0.95),
            quantile_secs(&costs, 0.99),
        ]);
        if *regime == "harsh" {
            harsh = Some((cluster, ledger));
        }
    }
    fig.note(
        "every number in this table is summed from ledger events \
         (incident_opened/closed, checkpoint_accounted, fault_injected); \
         the run asserts each equals the supervisor's own accounting \
         exactly, and that injected process faults reconcile 1:1 with \
         incidents",
    );

    let (harsh_cluster, harsh_ledger) = harsh.expect("the sweep visits the harsh regime");
    let node0 = harsh_cluster.node_ids()[0];
    let graph = ProvenanceGraph::from_ledger(&harsh_ledger);
    let lineage = verify_all(&harsh_cluster, node0, &graph)
        .unwrap_or_else(|e| panic!("provenance failed verification: {e}"));

    fig.section(
        "Checkpoint provenance, harsh regime (every lineage verified on disk)",
        &[
            "generation",
            "path",
            "format",
            "policy",
            "MiB",
            "replicas",
            "scrubs",
            "retired",
            "checksum",
        ],
    );
    for dump in generation_table(&graph) {
        fig.row(vec![
            match dump.generation {
                Some(g) => g.into(),
                None => Cell::Na,
            },
            dump.path.clone().into(),
            dump.format.clone().into(),
            dump.policy.clone().into(),
            Cell::num(dump.file_bytes as f64 / (1 << 20) as f64, 2),
            (dump.replicas.len() as u64).into(),
            (dump.scrubs.len() as u64).into(),
            if dump.retired { "yes" } else { "no" }.into(),
            match dump.checksum {
                Some(h) => format!("{h:016x}").into(),
                None => Cell::Na,
            },
        ]);
    }
    fig.note(format!(
        "verify_lineage walked {} files ({} bytes) against the cluster's \
         on-disk state: existence, recorded size, format parse, and the \
         vault's FNV-64 over {} replica(s) — retired generations are \
         legitimately gone and skipped",
        lineage.checked.len(),
        lineage.bytes_verified,
        lineage.checksums_matched,
    ));

    fig.section(
        "Incident timeline, harsh regime",
        &[
            "opened [s]",
            "source",
            "fault behind it",
            "detect [ms]",
            "downtime [ms]",
            "repairs",
            "resolved",
        ],
    );
    let rec = reconcile_faults(&harsh_ledger);
    for row in incident_timeline(&harsh_ledger) {
        let fault = rec
            .matched
            .iter()
            .find(|m| m.incident_at == row.opened_at && m.source == row.source)
            .map(|m| m.fault.clone())
            .unwrap_or_else(|| "?".into());
        fig.row(vec![
            Cell::secs(row.opened_at.since(simcore::SimTime::ZERO)),
            row.source.clone().into(),
            fault.into(),
            Cell::num(row.detect_ns as f64 / 1e6, 1),
            Cell::num(row.downtime_ns as f64 / 1e6, 1),
            row.repairs.into(),
            if row.resolved { "yes" } else { "no" }.into(),
        ]);
    }
    fig.note(
        "each incident names the injected fault it answers for \
         (fault_injected events pair with incident_opened in time order)",
    );

    fig.section(
        "Channel utilization during one pipelined dump",
        &["channel", "busy [ms]", "ops"],
    );
    for (channel, busy_ns, ops) in pipelined_channels(target) {
        fig.row(vec![
            channel.into(),
            Cell::num(busy_ns as f64 / 1e6, 2),
            ops.into(),
        ]);
    }
    fig.note(
        "channel_observed events from a pipelined snapshot of the same MD \
         session: per-resource busy time out of the engine's channel set",
    );

    fig.section(
        "Dedup ratio per generation (mutating MD, 2% of atoms per step)",
        &[
            "generation",
            "chunks deduped",
            "chunks novel",
            "raw[MB]",
            "stored[MB]",
            "dedup ratio",
        ],
    );
    for row in dedup_generations(target) {
        let mb = |b: u64| Cell::num(b as f64 / (1 << 20) as f64, 2);
        fig.row(vec![
            row.generation.into(),
            row.chunks_deduped.into(),
            row.chunks_novel.into(),
            mb(row.raw_bytes),
            mb(row.stored_bytes),
            if row.stored_bytes > 0 {
                Cell::num(row.raw_bytes as f64 / row.stored_bytes as f64, 2)
            } else {
                Cell::Na
            },
        ]);
    }
    fig.note(
        "chunk_deduped/chunk_compressed events folded by generation from a \
         dedup-policy checkpoint after every kernel of a slowly-mutating MD \
         run: generation 0 seeds the store (ratio near 1), later generations \
         re-save only the mutated position prefix and the force chunks it \
         perturbs",
    );

    fig.section(
        "Live overlap per generation (rotating-mutation run, 4x4 MiB)",
        &[
            "generation",
            "stall [ms]",
            "drain [ms]",
            "overlap",
            "forks",
            "fork [MiB]",
            "drained [MiB]",
            "file [MiB]",
        ],
    );
    let (live_rows, live_channels) = live_generations(target);
    for (g, row) in live_rows.iter().enumerate() {
        assert!(
            row.stall_ns < row.drain_ns,
            "generation {g}: stall {} ns is not below the drain wall {} ns — \
             the live mode overlapped nothing",
            row.stall_ns,
            row.drain_ns,
        );
        let mib = |b: u64| Cell::num(b as f64 / (1 << 20) as f64, 2);
        fig.row(vec![
            (g as u64).into(),
            Cell::num(row.stall_ns as f64 / 1e6, 3),
            Cell::num(row.drain_ns as f64 / 1e6, 3),
            Cell::Pct(row.overlap_ratio() * 100.0),
            row.forks.into(),
            mib(row.forked_bytes),
            mib(row.drained_bytes),
            mib(row.file_bytes),
        ]);
    }
    fig.note(
        "cow_forked/live_drain_completed events folded per sealed generation: \
         stall is the application's entire interruption (quiesce + cut + COW \
         forks), drain is the cut-to-seal wall time that overlapped further \
         kernels; overlap = share of the drain the application never waited \
         for. The run asserts stall < drain on every generation.",
    );

    fig.section(
        "Drain-channel utilization across the live generations",
        &["channel", "busy [ms]", "ops"],
    );
    for (channel, busy_ns, ops) in live_channels {
        fig.row(vec![
            channel.into(),
            Cell::num(busy_ns as f64 / 1e6, 2),
            ops.into(),
        ]);
    }
    fig.note(
        "channel_observed events from the same live run: the background \
         drain's disk appends and D2H reads share these channels with the \
         foreground's COW forks instead of monopolizing them",
    );

    fig.section(
        "Per-tenant history of a contended fleet cell, folded from the ledger alone",
        &[
            "job",
            "final node",
            "latency [ms]",
            "preemptions",
            "migrations",
            "generations",
            "policies",
            "bit-exact",
            "SLO",
        ],
    );
    let (tenants, fleet_note) = fleet_tenants();
    for t in tenants {
        fig.row(vec![
            t.job.into(),
            t.node.into(),
            Cell::num(t.latency_ns as f64 / 1e6, 2),
            t.preemptions.into(),
            t.migrations.into(),
            t.generations.into(),
            t.policies.into(),
            if t.bit_exact == 1 { "yes" } else { "NO" }.into(),
            if t.slo_ok == 1 { "met" } else { "missed" }.into(),
        ]);
    }
    fig.note(fleet_note);

    std::fs::create_dir_all("results").unwrap();
    std::fs::write(
        "results/checl_inspect.ledger.jsonl",
        harsh_ledger.to_jsonl(),
    )
    .unwrap();
    println!("\nwrote results/checl_inspect.ledger.jsonl");

    fig.finish().unwrap();
    trace.finish().unwrap();
}

/// One tenant's history, reconstructed purely from `tenant_*` events.
struct TenantRow {
    job: String,
    node: u64,
    latency_ns: u64,
    preemptions: u64,
    migrations: u64,
    generations: u64,
    policies: String,
    bit_exact: u64,
    slo_ok: u64,
}

/// Run a deliberately contended fleet cell (2 nodes, flooded arrivals)
/// with the ledger recording, then fold every disturbed tenant's
/// history from `tenant_preempted` / `tenant_migrated` /
/// `tenant_completed` events — and assert the fold matches the
/// scheduler's own books exactly, the same independent-witness check
/// the supervisor section makes.
fn fleet_tenants() -> (Vec<TenantRow>, String) {
    let cfg = fleet::FleetConfig {
        nodes: 2,
        slots_per_node: 2,
        ..fleet::FleetConfig::default()
    };
    let specs = fleet::default_job_mix(48, SEED, SimDuration::from_micros(500));
    obs::start_recording();
    let report = fleet::run_fleet(&cfg, specs);
    let ledger = obs::stop_recording().unwrap();

    let mut policies: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut preempts = 0u64;
    let mut migrations = 0u64;
    let mut rows: Vec<TenantRow> = Vec::new();
    for e in ledger.events() {
        match &e.kind {
            EventKind::TenantPreempted { job, policy, .. } => {
                preempts += 1;
                let seen = policies.entry(job.clone()).or_default();
                if !seen.contains(policy) {
                    seen.push(policy.clone());
                }
            }
            EventKind::TenantMigrated { .. } => migrations += 1,
            EventKind::TenantCompleted {
                job,
                node,
                latency_ns,
                preemptions,
                migrations,
                generations,
                bit_exact,
                slo_ok,
            } if *preemptions > 0 || *migrations > 0 => {
                rows.push(TenantRow {
                    job: job.clone(),
                    node: *node,
                    latency_ns: *latency_ns,
                    preemptions: *preemptions,
                    migrations: *migrations,
                    generations: *generations,
                    policies: policies.get(job).map(|p| p.join("+")).unwrap_or_default(),
                    bit_exact: *bit_exact,
                    slo_ok: *slo_ok,
                });
            }
            _ => {}
        }
    }
    rows.sort_by(|a, b| a.job.cmp(&b.job));

    // The ledger is an independent witness over the fleet too: its
    // sums must equal the scheduler's report.
    assert_eq!(preempts, report.preemptions, "ledger preemptions drifted");
    assert_eq!(
        migrations,
        report.migrations_cold + report.migrations_live,
        "ledger migrations drifted"
    );
    assert_eq!(
        rows.iter().map(|r| r.preemptions).sum::<u64>(),
        report.preemptions,
        "per-tenant preemption fold drifted"
    );
    assert!(
        rows.iter().all(|r| r.bit_exact == 1),
        "a disturbed tenant diverged from its uninterrupted baseline"
    );
    let completions = ledger
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TenantCompleted { .. }))
        .count();
    assert_eq!(completions, report.jobs, "a tenant never completed");
    let slo_met = ledger
        .events()
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::TenantCompleted { slo_ok: 1, .. }))
        .count() as u64;
    assert_eq!(slo_met, report.slo_attained, "ledger SLO fold drifted");

    let note = format!(
        "tenant_preempted/tenant_migrated/tenant_completed events from a \
         48-job cell on 2 nodes under flooded arrivals: the {} rows are \
         the disturbed tenants ({} ran undisturbed); the run asserts the \
         fold equals the scheduler's books — {} preemptions, {} \
         migrations, {}/{} within SLO — and that every disturbed tenant \
         restored bit-exact",
        rows.len(),
        report.jobs - rows.len(),
        report.preemptions,
        report.migrations_cold + report.migrations_live,
        report.slo_attained,
        report.jobs,
    );
    (rows, note)
}

/// One pipelined snapshot of the MD session with the ledger on;
/// returns the per-channel (busy, ops) rows, sorted by channel name.
fn pipelined_channels(target: &EvalTarget) -> Vec<(String, u64, u64)> {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let mut s = CheclSession::launch(
        &mut cluster,
        node,
        (target.vendor)(),
        CheclConfig::default(),
        iterative_md(target, MD_STEPS),
    );
    s.run(&mut cluster, StopCondition::AfterKernel(1)).unwrap();
    obs::start_recording();
    s.checkpoint_with_policy(
        &mut cluster,
        "/local/md-inspect.ckpt",
        &CprPolicy::pipelined(),
    )
    .unwrap();
    let ledger = obs::stop_recording().unwrap();
    s.kill(&mut cluster);
    ledger
        .channel_utilization()
        .into_iter()
        .map(|(name, (busy, ops))| (name, busy, ops))
        .collect()
}

/// A few generations of the live engine over a rotating-mutation run,
/// ledger on; returns the folded overlap rows plus the channel table.
fn live_generations(
    target: &EvalTarget,
) -> (Vec<checl::obs::LiveOverlapRow>, Vec<(String, u64, u64)>) {
    const GENS: u64 = 4;
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let mut s = CheclSession::launch(
        &mut cluster,
        node,
        (target.vendor)(),
        CheclConfig::default(),
        live_mutating(&target.cfg(1.0), 4, 4 << 20, 12),
    );
    let policy = CprPolicy::pipelined().live(true);
    obs::start_recording();
    for gen in 0..GENS {
        // Each snapshot seals the previous generation's drain first,
        // so the cuts pipeline back-to-back like a real cadence.
        s.run(&mut cluster, StopCondition::AfterKernel(2 * (gen + 1)))
            .unwrap();
        s.checkpoint_with_policy(&mut cluster, &format!("/local/live-{gen}.ckpt"), &policy)
            .unwrap();
    }
    s.run(&mut cluster, StopCondition::Completion).unwrap();
    s.complete_live_drain(&mut cluster).unwrap();
    let ledger = obs::stop_recording().unwrap();
    s.kill(&mut cluster);
    let rows = checl::obs::live_overlap(&ledger);
    assert_eq!(rows.len(), GENS as usize, "one seal per live generation");
    let channels = ledger
        .channel_utilization()
        .into_iter()
        .map(|(name, (busy, ops))| (name, busy, ops))
        .collect();
    (rows, channels)
}

/// One generation's chunk-store activity, folded from the ledger.
#[derive(Default)]
struct DedupGen {
    generation: u64,
    chunks_deduped: u64,
    chunks_novel: u64,
    raw_bytes: u64,
    stored_bytes: u64,
}

/// Checkpoint a slowly-mutating MD run under the dedup policy after
/// every kernel, ledger on; fold the chunk events by generation.
fn dedup_generations(target: &EvalTarget) -> Vec<DedupGen> {
    const GENS: u32 = 6;
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let mut s = CheclSession::launch(
        &mut cluster,
        node,
        (target.vendor)(),
        CheclConfig::default(),
        md_mutating(&target.cfg(1.0), 0.02, GENS),
    );
    let policy = CprPolicy::pipelined().dedup(true);
    obs::start_recording();
    for gen in 0..GENS as u64 {
        s.run(&mut cluster, StopCondition::AfterKernel(gen + 1))
            .unwrap();
        s.checkpoint_with_policy(&mut cluster, &format!("/local/dd-{gen}.ckpt"), &policy)
            .unwrap();
    }
    let ledger = obs::stop_recording().unwrap();
    s.kill(&mut cluster);
    let mut by_gen: BTreeMap<u64, DedupGen> = BTreeMap::new();
    for e in ledger.events() {
        match &e.kind {
            EventKind::ChunkDeduped {
                generation,
                chunks,
                raw_bytes,
                ..
            } => {
                let g = by_gen.entry(*generation).or_default();
                g.generation = *generation;
                g.chunks_deduped += chunks;
                g.raw_bytes += raw_bytes;
            }
            EventKind::ChunkCompressed {
                generation,
                chunks,
                raw_bytes,
                stored_bytes,
                ..
            } => {
                let g = by_gen.entry(*generation).or_default();
                g.generation = *generation;
                g.chunks_novel += chunks;
                g.raw_bytes += raw_bytes;
                g.stored_bytes += stored_bytes;
            }
            _ => {}
        }
    }
    by_gen.into_values().collect()
}
