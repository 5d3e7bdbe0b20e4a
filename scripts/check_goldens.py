#!/usr/bin/env python3
"""One guard over every committed bench golden.

Replaces the former per-bench scripts (`check_pipeline_golden.py`,
`check_migration_golden.py`, `check_supervisor_golden.py`) with a single
entry point and a per-bench invariant spec. Each bench names the
properties that are load-bearing — the ones a refactor must never
regress — and a tolerance (all comparisons are strict by default; a
bench that needs slack declares it here, visibly, instead of baking it
into ad-hoc code).

Usage:
    scripts/check_goldens.py [bench ...]

with bench names from SPECS (default: all). Each bench reads its
committed golden `results/BENCH_<figure>.json`; pass `name=path` to
point one at a different file.

Invariants guarded:

* pipeline   — on every multi-buffer/multi-GPU scenario the pipelined
               checkpoint engine beats sequential, with positive
               overlap savings;
* migration  — same property end-to-end across a vendor-switch
               migration;
* supervisor — the adaptive Young/Daly interval policy completes at
               every failure rate and beats both fixed baselines at
               >= 2 of them; the replica scrub repairs injected
               bit-rot without losing a generation;
* inspect    — the ledger-derived health report is internally
               consistent: every incident names the injected fault
               behind it, fault/incident reconciliation is 1:1, and
               availability degrades monotonically with failure rate;
* dedup      — the content-addressed chunk store earns its keep: on
               the slowly-mutating MD sweep every restore is
               checksum-identical to the full dump, the payload
               reduction at the slow mutation rate is >= 5x a
               full dump, and the ratio degrades monotonically as the
               mutation rate grows;
* incremental — the paper's §IV-D claim holds for the dedup data
               path: on iterative BlackScholes every checkpoint from #1
               on is strictly cheaper than the full dump of the same
               index in preprocessing, write and total time and in
               dump-file size;
* obs        — the event ledger is free in virtual time (delta vs the
               bare run is exactly 0 ns in every regime) and every
               emission site is alive (incidents == faults ==
               restores, checkpoints and retunes positive);
* fleet      — the multi-tenant scheduler honors the des refactor's
               contract: scheduler work per event stays flat (and under
               a fixed budget) across a 100x job sweep ending at the
               10k-job cell, every preempted/cold-resumed/live-migrated
               tenant restores bit-exact, preemption generations
               reconcile 1:1, p99 latency stays bounded, and throughput
               grows monotonically with cluster width;
* gray       — gray faults degrade but never corrupt: every brownout /
               heartbeat-loss / partition / rack-crash supervision cell
               completes bit-exact (false positives booked as induced
               overhead, never as failures), the fleet backpressure
               ladder keeps completed + rejected == offered with
               drift-free SLO accounting and a demonstrably live
               reject rung, and the crash-point torture sweep restores
               100% of enumerated obs-event boundaries on all four
               engine paths;
* live       — the live copy-on-write checkpoint keeps its promise:
               every sweep point restores bit-exact against an
               uninterrupted baseline, the stall stays within 1.1x the
               pipelined D2H capture window (the file write is off the
               critical path), and the headline 4-buffer/4-MiB point
               stalls for <= 10% of the pipelined stop-the-world total;
* text       — every text report `results/<bench>.txt` agrees with its
               `results/BENCH_<bench>.json`, section by section and cell
               by cell: text and integer cells exactly, each numeric
               cell to within half a unit of the last digit the text
               prints. (`text=<dir>` checks the pairs in another
               directory.)
"""

import glob
import json
import os
import sys

ADAPTIVE = "daly-adaptive"


def fail(bench: str, msg: str) -> None:
    print(f"check_goldens[{bench}]: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(bench: str, path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        fail(bench, f"cannot read {path}: {e}")


def section_with(doc: dict, *columns: str):
    """First section whose header carries every named column."""
    for section in doc["sections"]:
        if all(c in section["columns"] for c in columns):
            return section
    return None


# ---------------------------------------------------------------------
# pipeline — checkpoint engine ablation
# ---------------------------------------------------------------------


def check_pipeline(doc: dict) -> str:
    checked = 0
    for section in doc["sections"]:
        cols = section["columns"]
        if "mode" not in cols or "total[s]" not in cols:
            continue  # the restart-equivalence section has no timings
        mode_i = cols.index("mode")
        total_i = cols.index("total[s]")
        saved_i = cols.index("saved[s]")
        key_is = [i for i, c in enumerate(cols) if c in ("bufs", "MiB/buf", "gpus")]
        totals: dict[tuple, dict[str, float]] = {}
        saved: dict[tuple, float] = {}
        for row in section["rows"]:
            key = tuple(row[i] for i in key_is)
            totals.setdefault(key, {})[row[mode_i]] = row[total_i]
            if row[mode_i] == "pipelined":
                saved[key] = row[saved_i]
        for key, by_mode in totals.items():
            if "sequential" not in by_mode or "pipelined" not in by_mode:
                fail("pipeline", f"scenario {key} is missing an engine row")
            multi_buffer = "bufs" not in [cols[i] for i in key_is] or key[0] > 1
            if multi_buffer:
                if not by_mode["pipelined"] < by_mode["sequential"]:
                    fail(
                        "pipeline",
                        f"scenario {key}: pipelined {by_mode['pipelined']}s is not "
                        f"strictly below sequential {by_mode['sequential']}s",
                    )
                if not saved.get(key, 0.0) > 0.0:
                    fail("pipeline", f"scenario {key}: overlap_saved is not positive")
                checked += 1
    if checked == 0:
        fail("pipeline", "no multi-buffer scenarios found — wrong file or schema drift")
    return f"{checked} scenarios, pipelined < sequential"


# ---------------------------------------------------------------------
# migration — fig8 engine sweep
# ---------------------------------------------------------------------


def check_migration(doc: dict) -> str:
    checked = 0
    for section in doc["sections"]:
        cols = section["columns"]
        if "mode" not in cols or "actual[s]" not in cols:
            continue  # the per-benchmark prediction sections have no engine sweep
        mode_i = cols.index("mode")
        actual_i = cols.index("actual[s]")
        saved_i = cols.index("saved[s]")
        bufs_i = cols.index("bufs")
        mib_i = cols.index("MiB/buf")
        actuals: dict[tuple, dict[str, float]] = {}
        saved: dict[tuple, float] = {}
        for row in section["rows"]:
            key = (row[bufs_i], row[mib_i])
            actuals.setdefault(key, {})[row[mode_i]] = row[actual_i]
            if row[mode_i] == "pipelined":
                saved[key] = row[saved_i]
        for key, by_mode in actuals.items():
            if "sequential" not in by_mode or "pipelined" not in by_mode:
                fail("migration", f"scenario {key} is missing an engine row")
            if key[0] > 1:
                if not by_mode["pipelined"] < by_mode["sequential"]:
                    fail(
                        "migration",
                        f"scenario {key}: pipelined migration {by_mode['pipelined']}s "
                        f"is not strictly below sequential {by_mode['sequential']}s",
                    )
                if not saved.get(key, 0.0) > 0.0:
                    fail("migration", f"scenario {key}: overlap_saved is not positive")
                checked += 1
    if checked == 0:
        fail("migration", "no multi-buffer migration scenarios found")
    return f"{checked} scenarios, pipelined < sequential"


# ---------------------------------------------------------------------
# supervisor — interval policy × failure rate
# ---------------------------------------------------------------------


def check_supervisor(doc: dict) -> str:
    regimes_won = 0
    regimes = 0
    scrubs = 0
    for section in doc["sections"]:
        cols = section["columns"]
        if "interval policy" in cols:
            policy_i = cols.index("interval policy")
            regime_i = cols.index("failure regime")
            done_i = cols.index("completed")
            total_i = cols.index("total overhead [s]")
            by_regime: dict[str, dict[str, object]] = {}
            for row in section["rows"]:
                by_regime.setdefault(row[regime_i], {})[row[policy_i]] = (
                    row[total_i] if row[done_i] == "yes" else None
                )
            for regime, by_policy in by_regime.items():
                if ADAPTIVE not in by_policy:
                    fail("supervisor", f"regime {regime}: no {ADAPTIVE} row")
                adaptive = by_policy.pop(ADAPTIVE)
                if adaptive is None:
                    fail("supervisor", f"regime {regime}: {ADAPTIVE} did not complete")
                if not by_policy:
                    fail("supervisor", f"regime {regime}: no fixed baselines")
                regimes += 1
                # An escalated (non-completing) baseline is an infinite
                # overhead: the adaptive policy beats it by definition.
                if all(base is None or adaptive < base for base in by_policy.values()):
                    regimes_won += 1
        elif "scrub repaired" in cols:
            scen_i = cols.index("scenario")
            rep_i = cols.index("scrub repaired")
            lost_i = cols.index("scrub lost")
            for row in section["rows"]:
                if row[scen_i] != "corrupt-primary":
                    continue
                if row[rep_i] != 1:
                    fail("supervisor", f"scrub repaired {row[rep_i]}, expected exactly 1")
                if row[lost_i] != 0:
                    fail("supervisor", f"scrub lost {row[lost_i]} generations, expected 0")
                scrubs += 1
    if regimes == 0:
        fail("supervisor", "no interval-policy sweep found — schema drift")
    if scrubs == 0:
        fail("supervisor", "no corrupt-primary scrub row found — schema drift")
    if regimes_won < 2:
        fail(
            "supervisor",
            f"{ADAPTIVE} beats both fixed baselines at only {regimes_won} of "
            f"{regimes} failure rates (need >= 2)",
        )
    return f"{ADAPTIVE} completes at all {regimes} rates, wins {regimes_won}; scrub repairs bit-rot"


# ---------------------------------------------------------------------
# inspect — ledger-derived health report
# ---------------------------------------------------------------------


def check_inspect(doc: dict) -> str:
    slo = section_with(doc, "availability", "incidents", "faults matched")
    if slo is None:
        fail("inspect", "no SLO section found — schema drift")
    cols = slo["columns"]
    avail_i = cols.index("availability")
    inc_i = cols.index("incidents")
    match_i = cols.index("faults matched")
    down_i = cols.index("downtime [s]")
    availabilities = []
    for row in slo["rows"]:
        if not 0.0 < row[avail_i] <= 100.0:
            fail("inspect", f"availability {row[avail_i]} out of (0, 100]")
        if row[inc_i] != row[match_i]:
            fail(
                "inspect",
                f"{row[0]}: {row[inc_i]} incidents but {row[match_i]} matched faults "
                f"— the 1:1 reconciliation broke",
            )
        if row[inc_i] > 0 and not row[down_i] > 0.0:
            fail("inspect", f"{row[0]}: incidents occurred but downtime is zero")
        availabilities.append(row[avail_i])
    if availabilities != sorted(availabilities, reverse=True):
        fail(
            "inspect",
            f"availability must degrade with failure rate, got {availabilities}",
        )

    prov = section_with(doc, "generation", "checksum", "retired")
    if prov is None or not prov["rows"]:
        fail("inspect", "no provenance rows — the generation table is empty")

    timeline = section_with(doc, "fault behind it", "resolved")
    if timeline is None:
        fail("inspect", "no incident-timeline section found")
    for row in timeline["rows"]:
        fault = row[timeline["columns"].index("fault behind it")]
        if fault == "?":
            fail("inspect", "an incident has no injected fault behind it")

    channels = section_with(doc, "channel", "ops")
    if channels is None or not channels["rows"]:
        fail("inspect", "no channel-utilization rows from the pipelined dump")

    dedup = section_with(doc, "generation", "chunks deduped", "dedup ratio")
    if dedup is None or len(dedup["rows"]) < 2:
        fail("inspect", "no per-generation dedup rows from the chunk store")
    dcols = dedup["columns"]
    deduped_i = dcols.index("chunks deduped")
    novel_i = dcols.index("chunks novel")
    ratio_i = dcols.index("dedup ratio")
    first = dedup["rows"][0]
    if first[deduped_i] != 0 or not first[novel_i] > 0:
        fail("inspect", "generation 0 must seed the store (all chunks novel)")
    for row in dedup["rows"][1:]:
        if not row[deduped_i] > row[novel_i]:
            fail(
                "inspect",
                f"generation {row[0]}: dedup hits ({row[deduped_i]}) do not dominate "
                f"novel chunks ({row[novel_i]}) on a slowly-mutating run",
            )
        if row[ratio_i] is not None and not row[ratio_i] > 1.0:
            fail("inspect", f"generation {row[0]}: dedup ratio {row[ratio_i]} <= 1")

    tenants = section_with(doc, "job", "preemptions", "policies", "SLO")
    if tenants is None or not tenants["rows"]:
        fail("inspect", "no per-tenant rows folded from the fleet ledger")
    tcols = tenants["columns"]
    t_pre_i = tcols.index("preemptions")
    t_mig_i = tcols.index("migrations")
    t_pol_i = tcols.index("policies")
    t_bit_i = tcols.index("bit-exact")
    for row in tenants["rows"]:
        if row[t_bit_i] != "yes":
            fail("inspect", f"{row[0]}: a disturbed tenant did not restore bit-exact")
        if row[t_pre_i] + row[t_mig_i] < 1:
            fail("inspect", f"{row[0]}: an undisturbed tenant leaked into the table")
        if row[t_pre_i] > 0 and not row[t_pol_i]:
            fail("inspect", f"{row[0]}: preempted but no checkpoint policy recorded")

    return (
        f"{len(slo['rows'])} regimes consistent, {len(prov['rows'])} generations, "
        f"{len(timeline['rows'])} incidents attributed, {len(channels['rows'])} channels, "
        f"{len(dedup['rows'])} dedup generations, {len(tenants['rows'])} disturbed tenants"
    )


# ---------------------------------------------------------------------
# dedup — chunk-store ablation on the mutating MD sweep
# ---------------------------------------------------------------------

SLOW_RATE = "2%"
MIN_SLOW_RATIO = 5.0


def check_dedup(doc: dict) -> str:
    sweep = section_with(doc, "mutation", "mode", "payload ratio", "checksum")
    if sweep is None:
        fail("dedup", "no policy-sweep section found — schema drift")
    cols = sweep["columns"]
    rate_i = cols.index("mutation")
    mode_i = cols.index("mode")
    ratio_i = cols.index("payload ratio")
    sum_i = cols.index("checksum")
    checksums: dict[str, dict[str, str]] = {}
    ratios: dict[str, float] = {}
    for row in sweep["rows"]:
        checksums.setdefault(row[rate_i], {})[row[mode_i]] = row[sum_i]
        if row[mode_i] == "dedup":
            if row[ratio_i] is None:
                fail("dedup", f"rate {row[rate_i]}: dedup row has no payload ratio")
            ratios[row[rate_i]] = row[ratio_i]
    if not checksums:
        fail("dedup", "sweep section has no rows")
    for rate, by_mode in checksums.items():
        for mode in ("full", "dedup"):
            if mode not in by_mode:
                fail("dedup", f"rate {rate}: no {mode} row")
        if len(set(by_mode.values())) != 1:
            fail(
                "dedup",
                f"rate {rate}: restored checksums diverge across policies "
                f"({by_mode}) — the dedup path is not bit-exact",
            )
    if SLOW_RATE not in ratios:
        fail("dedup", f"no dedup row at the slow mutation rate {SLOW_RATE}")
    if not ratios[SLOW_RATE] >= MIN_SLOW_RATIO:
        fail(
            "dedup",
            f"payload reduction at {SLOW_RATE} mutation is {ratios[SLOW_RATE]}x, "
            f"below the promised {MIN_SLOW_RATIO}x",
        )
    ordered = [ratios[r] for r in ("0%", "2%", "25%") if r in ratios]
    if ordered != sorted(ordered, reverse=True):
        fail(
            "dedup",
            f"payload ratio must degrade as the mutation rate grows, got {ordered}",
        )
    return (
        f"{len(checksums)} rates bit-exact across policies, "
        f"{ratios[SLOW_RATE]:.1f}x payload reduction at {SLOW_RATE} mutation"
    )


# ---------------------------------------------------------------------
# incremental — §IV-D incremental checkpointing via dedup
# ---------------------------------------------------------------------

INCREMENTAL_COLUMNS = ("preproc[s]", "write[s]", "total[s]", "file[MB]")


def check_incremental(doc: dict) -> str:
    section = section_with(doc, "mode", "ckpt#", *INCREMENTAL_COLUMNS)
    if section is None:
        fail("incremental", "no full-vs-dedup section found — schema drift")
    cols = section["columns"]
    mode_i = cols.index("mode")
    ckpt_i = cols.index("ckpt#")
    rows: dict[str, dict[int, list]] = {}
    for row in section["rows"]:
        rows.setdefault(row[mode_i], {})[row[ckpt_i]] = row
    for mode in ("full", "dedup"):
        if mode not in rows:
            fail("incremental", f"no {mode} rows")
    later = sorted(i for i in rows["dedup"] if i >= 1)
    if not later:
        fail("incremental", "no dedup checkpoint from #1 on")
    for i in later:
        if i not in rows["full"]:
            fail("incremental", f"checkpoint #{i}: no full row to compare against")
        for col in INCREMENTAL_COLUMNS:
            c = cols.index(col)
            full, dedup = rows["full"][i][c], rows["dedup"][i][c]
            if not dedup < full:
                fail(
                    "incremental",
                    f"checkpoint #{i}: dedup {col} {dedup} is not strictly below "
                    f"full {full}",
                )
    return f"{len(later)} checkpoints from #1 on, dedup < full on {len(INCREMENTAL_COLUMNS)} columns"


# ---------------------------------------------------------------------
# live — copy-on-write live-checkpoint ablation
# ---------------------------------------------------------------------

# The live stall may not exceed the pipelined engine's D2H capture
# window by more than 10% at any sweep point: the claim is that the
# file write leaves the critical path, so the stall degenerates to (at
# most) a capture cost.
STALL_VS_PREPROC = 1.1
# At the headline point the stall must be <= 10% of the pipelined
# stop-the-world total.
HEADLINE = (4, 4)
STALL_VS_PIPELINED = 0.10


def check_live(doc: dict) -> str:
    sweep = section_with(doc, "stall[s]", "preproc[s]", "pipelined[s]", "bit_exact")
    if sweep is None:
        fail("live", "no stall-sweep section found — schema drift")
    cols = sweep["columns"]
    bufs_i = cols.index("bufs")
    mib_i = cols.index("MiB/buf")
    pipe_i = cols.index("pipelined[s]")
    pre_i = cols.index("preproc[s]")
    stall_i = cols.index("stall[s]")
    drain_i = cols.index("drain[s]")
    exact_i = cols.index("bit_exact")
    if not sweep["rows"]:
        fail("live", "sweep section has no rows")
    headline_seen = False
    for row in sweep["rows"]:
        key = (row[bufs_i], row[mib_i])
        if row[exact_i] != "yes":
            fail("live", f"scenario {key}: restore is not bit-exact")
        if not row[stall_i] <= STALL_VS_PREPROC * row[pre_i]:
            fail(
                "live",
                f"scenario {key}: stall {row[stall_i]}s exceeds "
                f"{STALL_VS_PREPROC}x the D2H preprocess window {row[pre_i]}s "
                f"— the dump is back on the critical path",
            )
        if not row[stall_i] < row[drain_i]:
            fail(
                "live",
                f"scenario {key}: stall {row[stall_i]}s is not below the "
                f"drain wall {row[drain_i]}s — nothing was overlapped",
            )
        if key == HEADLINE:
            headline_seen = True
            if not row[stall_i] <= STALL_VS_PIPELINED * row[pipe_i]:
                fail(
                    "live",
                    f"headline {key}: stall {row[stall_i]}s exceeds "
                    f"{STALL_VS_PIPELINED:.0%} of the pipelined "
                    f"stop-the-world total {row[pipe_i]}s",
                )
    if not headline_seen:
        fail("live", f"headline scenario {HEADLINE} missing from the sweep")
    return (
        f"{len(sweep['rows'])} scenarios bit-exact, stall <= "
        f"{STALL_VS_PREPROC}x preproc everywhere, headline stall <= "
        f"{STALL_VS_PIPELINED:.0%} of pipelined"
    )


# ---------------------------------------------------------------------
# obs — ledger overhead ablation
# ---------------------------------------------------------------------


def check_obs(doc: dict) -> str:
    census = section_with(doc, "delta vs bare [ns]", "events")
    if census is None:
        fail("obs", "no census section found — schema drift")
    cols = census["columns"]
    delta_i = cols.index("delta vs bare [ns]")
    events_i = cols.index("events")
    ckpt_i = cols.index("checkpoints")
    inc_i = cols.index("incidents")
    fault_i = cols.index("faults")
    restore_i = cols.index("restores")
    retune_i = cols.index("retunes")
    if not census["rows"]:
        fail("obs", "census has no rows")
    for row in census["rows"]:
        regime = row[0]
        if row[delta_i] != 0:
            fail("obs", f"{regime}: ledger cost {row[delta_i]} ns of virtual time")
        if not row[events_i] > 0:
            fail("obs", f"{regime}: empty ledger — emission sites are dead")
        if not row[ckpt_i] >= 1:
            fail("obs", f"{regime}: no checkpoint_committed events")
        if not (row[inc_i] == row[fault_i] == row[restore_i]):
            fail(
                "obs",
                f"{regime}: incidents/faults/restores diverge "
                f"({row[inc_i]}/{row[fault_i]}/{row[restore_i]})",
            )
        if not row[retune_i] >= 1:
            fail("obs", f"{regime}: the adaptive controller never retuned")
    return f"{len(census['rows'])} regimes, ledger free in virtual time, sites alive"


# ---------------------------------------------------------------------
# fleet — multi-tenant scheduler sweeps
# ---------------------------------------------------------------------

# The deterministic scheduler-work budget: ops/event must stay under
# this at every sweep cell, and the largest cell may exceed the
# smallest by at most OPS_FLATNESS (a linear scan anywhere in the event
# loop would blow straight through both).
OPS_BUDGET = 16.0
OPS_FLATNESS = 1.5
P99_BOUND_MS = 10_000.0


def check_fleet(doc: dict) -> str:
    sweep = section_with(doc, "jobs", "ops/event", "bit-exact", "generations")
    if sweep is None or not sweep["rows"]:
        fail("fleet", "no job-count sweep section found — schema drift")
    cols = sweep["columns"]
    jobs_i = cols.index("jobs")
    thr_i = cols.index("throughput [jobs/s]")
    p99_i = cols.index("p99 [ms]")
    pre_i = cols.index("preemptions")
    cold_i = cols.index("cold migr")
    live_i = cols.index("live migr")
    gen_i = cols.index("generations")
    ops_i = cols.index("ops/event")
    bit_i = cols.index("bit-exact")
    job_counts = [row[jobs_i] for row in sweep["rows"]]
    if job_counts != sorted(job_counts) or job_counts[-1] < 10_000:
        fail("fleet", f"sweep must grow to the 10k-job cell, got {job_counts}")
    ops = []
    for row in sweep["rows"]:
        jobs = row[jobs_i]
        if row[bit_i] != jobs:
            fail(
                "fleet",
                f"{jobs} jobs: only {row[bit_i]} verified bit-exact — a "
                f"preempted or migrated tenant diverged from its baseline",
            )
        if not row[thr_i] > 0.0:
            fail("fleet", f"{jobs} jobs: throughput {row[thr_i]} is not positive")
        if not row[p99_i] <= P99_BOUND_MS:
            fail("fleet", f"{jobs} jobs: p99 {row[p99_i]} ms blew the {P99_BOUND_MS} ms bound")
        if not row[ops_i] <= OPS_BUDGET:
            fail("fleet", f"{jobs} jobs: {row[ops_i]} sched ops/event over the {OPS_BUDGET} budget")
        if row[gen_i] != row[pre_i]:
            fail(
                "fleet",
                f"{jobs} jobs: {row[gen_i]} generations vs {row[pre_i]} preemptions "
                f"— every preemption writes exactly one generation",
            )
        ops.append(row[ops_i])
    if max(ops) > min(ops) * OPS_FLATNESS:
        fail(
            "fleet",
            f"ops/event is not flat across the sweep ({min(ops)} .. {max(ops)}): "
            f"a linear scan crept into the event loop",
        )
    big = [row for row in sweep["rows"] if row[jobs_i] >= 3000]
    for row in big:
        if row[pre_i] == 0 or row[cold_i] == 0 or row[live_i] == 0:
            fail(
                "fleet",
                f"{row[jobs_i]} jobs: preemption ({row[pre_i]}), cold migration "
                f"({row[cold_i]}) and live migration ({row[live_i]}) must all fire "
                f"at scale",
            )

    nodes = section_with(doc, "nodes", "slots", "throughput [jobs/s]")
    if nodes is None or len(nodes["rows"]) < 2:
        fail("fleet", "no node-count sweep section found — schema drift")
    ncols = nodes["columns"]
    n_i = ncols.index("nodes")
    nthr_i = ncols.index("throughput [jobs/s]")
    np50_i = ncols.index("p50 [ms]")
    nbit_i = ncols.index("bit-exact")
    widths = [row[n_i] for row in nodes["rows"]]
    if widths != sorted(widths):
        fail("fleet", f"node sweep out of order: {widths}")
    thr = [row[nthr_i] for row in nodes["rows"]]
    if thr != sorted(thr):
        fail(
            "fleet",
            f"throughput must grow monotonically with node count, got {thr}",
        )
    p50 = [row[np50_i] for row in nodes["rows"]]
    if p50 != sorted(p50, reverse=True):
        fail(
            "fleet",
            f"p50 latency must fall monotonically with node count, got {p50}",
        )
    for row in nodes["rows"]:
        if row[nbit_i] != 600:
            fail("fleet", f"{row[n_i]} nodes: only {row[nbit_i]}/600 bit-exact")

    return (
        f"{len(sweep['rows'])} sweep cells to {job_counts[-1]} jobs, "
        f"ops/event within {min(ops)}..{max(ops)} (budget {OPS_BUDGET}), "
        f"throughput monotone over {len(nodes['rows'])} cluster widths"
    )


# ---------------------------------------------------------------------
# gray — gray-failure & correlated-fault resilience ablation
# ---------------------------------------------------------------------


def check_gray(doc: dict) -> str:
    # Section 1: every gray-fault scenario completes bit-exact, the
    # heartbeat-loss cell books zero failures (a slow node is not a
    # dead node) with positive induced overhead, and the correlated
    # scenarios actually fail over.
    sup = section_with(doc, "scenario", "false positives", "induced [s]")
    if sup is None or not sup["rows"]:
        fail("gray", "no gray-fault supervision section found — schema drift")
    cols = sup["columns"]
    sc_i = cols.index("scenario")
    comp_i = cols.index("completed")
    fail_i = cols.index("failures")
    fp_i = cols.index("false positives")
    ind_i = cols.index("induced [s]")
    bit_i = cols.index("bit-exact")
    saw_heartbeat = saw_failover = False
    for row in sup["rows"]:
        name = row[sc_i]
        if row[comp_i] != "yes" or row[bit_i] != "yes":
            fail("gray", f"{name}: did not complete bit-exact under gray faults")
        if "heartbeat" in name:
            saw_heartbeat = True
            if row[fail_i] != 0:
                fail("gray", f"{name}: a slow node was booked as {row[fail_i]} failure(s)")
            if not row[fp_i] > 0 or not row[ind_i] > 0.0:
                fail("gray", f"{name}: detector stress left no false-positive bookkeeping")
        if "partition" in name or "rack" in name:
            saw_failover = True
            if not row[fail_i] >= 1:
                fail("gray", f"{name}: the correlated fault never triggered a failover")
    if not saw_heartbeat or not saw_failover:
        fail("gray", "missing heartbeat-loss or partition/rack scenario rows")

    # Section 2: the backpressure ladder keeps accounting drift-free —
    # completed + rejected == offered on every cell, every admitted job
    # completes, and the reject rung demonstrably fires somewhere.
    ladder = section_with(doc, "scenario", "offered", "rejected", "accounting")
    if ladder is None or not ladder["rows"]:
        fail("gray", "no backpressure ladder section found — schema drift")
    cols = ladder["columns"]
    sc_i = cols.index("scenario")
    off_i = cols.index("offered")
    comp_i = cols.index("completed")
    rej_i = cols.index("rejected")
    att_i = cols.index("SLO attained")
    miss_i = cols.index("SLO missed")
    bit_i = cols.index("bit-exact")
    acc_i = cols.index("accounting")
    rejected_total = 0
    for row in ladder["rows"]:
        name = row[sc_i]
        if row[comp_i] + row[rej_i] != row[off_i]:
            fail("gray", f"{name}: {row[comp_i]} completed + {row[rej_i]} rejected "
                         f"!= {row[off_i]} offered — an admitted job was stranded")
        if row[att_i] + row[miss_i] != row[comp_i]:
            fail("gray", f"{name}: SLO accounting drifted "
                         f"({row[att_i]} + {row[miss_i]} != {row[comp_i]})")
        if row[bit_i] != "yes" or row[acc_i] != "zero drift":
            fail("gray", f"{name}: degraded-mode verification failed")
        rejected_total += row[rej_i]
    if rejected_total == 0:
        fail("gray", "the typed admission-reject rung never fired in any cell")

    # Section 3: the torture sweep enumerated every obs-event boundary
    # and restored (or survived) 100% of them on every engine path.
    torture = section_with(doc, "engine path", "crash points", "restores")
    if torture is None:
        fail("gray", "no crash-point torture section found — schema drift")
    cols = torture["columns"]
    path_i = cols.index("engine path")
    pts_i = cols.index("crash points")
    sur_i = cols.index("survivors")
    res_i = cols.index("restores")
    kinds_i = cols.index("event kinds")
    paths = {row[path_i] for row in torture["rows"]}
    expected = {"sequential", "pipelined", "dedup", "live"}
    if paths != expected:
        fail("gray", f"torture sweep covers {sorted(paths)}, want {sorted(expected)}")
    total_points = 0
    for row in torture["rows"]:
        name = row[path_i]
        if row[sur_i] + row[res_i] != row[pts_i]:
            fail("gray", f"torture[{name}]: {row[sur_i]} survivors + {row[res_i]} "
                         f"restores != {row[pts_i]} crash points — a boundary was lost")
        if not row[res_i] > 0:
            fail("gray", f"torture[{name}]: no crash point actually tripped")
        if not row[kinds_i] >= 2:
            fail("gray", f"torture[{name}]: only {row[kinds_i]} event kind(s) at the "
                         f"boundaries — the sweep is not covering the sequence")
        total_points += row[pts_i]
    return (
        f"{len(sup['rows'])} gray scenarios bit-exact, ladder drift-free "
        f"({rejected_total} typed rejections), {total_points} crash points "
        f"restored across {len(paths)} engine paths"
    )


# ---------------------------------------------------------------------
# registry + entry point
# ---------------------------------------------------------------------

# ---------------------------------------------------------------------
# text — each results/<bench>.txt against its BENCH_<bench>.json
# ---------------------------------------------------------------------


def text_cell_matches(text: str, value) -> bool:
    """Does a printed cell show this JSON value at its printed precision?"""
    if isinstance(value, str):
        return text == value
    if value is None:  # `n/a`, or a non-finite number (JSON has no NaN)
        return text == "n/a" or text.lower().lstrip("-") in ("nan", "inf")
    if isinstance(value, int):
        return text == str(value)
    digits = text.rstrip("%")
    try:
        printed = float(digits)
    except ValueError:
        return False
    decimals = len(digits.partition(".")[2])
    return abs(printed - value) <= 0.5 * 10.0**-decimals * (1 + 1e-9)


def check_text_pair(name: str, text: str, doc: dict) -> int:
    """Match every JSON section against the text report; returns cells checked."""
    lines = text.split("\n")
    at = 0
    cells = 0
    for section in doc["sections"]:
        title = f"=== {section['title']} ==="
        try:
            at = lines.index(title, at)
        except ValueError:
            fail("text", f"{name}: section {section['title']!r} not in the text report")
        cols, rows = section["columns"], section["rows"]
        header = lines[at + 1]
        # Column 0 is left-aligned and every other column right-aligned,
        # so each header name after the first ends where its column ends;
        # the last column runs to the end of the line.
        ends, pos = [], len(cols[0])
        for col in cols[1:]:
            pos = header.find(col, pos)
            if pos < 0:
                fail("text", f"{name}: column {col!r} missing from {section['title']!r}")
            pos += len(col)
            ends.append(pos)
        if ends:
            ends[-1] = None
        body = lines[at + 3 : at + 3 + len(rows)]
        if len(body) < len(rows):
            fail("text", f"{name}: {section['title']!r} is missing rows")
        for row, line in zip(rows, body):
            first = row[0] if isinstance(row[0], str) else line.split()[0]
            printed = [first] + [
                line[start:end].strip()
                for start, end in zip([len(first)] + ends[:-1], ends)
            ]
            for col, shown, value in zip(cols, printed, row):
                if not text_cell_matches(shown, value):
                    fail(
                        "text",
                        f"{name}: {section['title']!r} column {col!r} prints "
                        f"{shown!r} but the JSON holds {value!r}",
                    )
                cells += 1
        at += 3 + len(rows)
    return cells


def check_text(results_dir: str) -> str:
    pairs = 0
    cells = 0
    for path in sorted(glob.glob(os.path.join(results_dir, "BENCH_*.json"))):
        bench = os.path.basename(path)[len("BENCH_") : -len(".json")]
        txt = os.path.join(results_dir, f"{bench}.txt")
        if not os.path.exists(txt):
            fail("text", f"{path} has no text report {txt}")
        with open(txt, encoding="utf-8") as f:
            cells += check_text_pair(bench, f.read(), load("text", path))
        pairs += 1
    if pairs == 0:
        fail("text", f"no BENCH_*.json in {results_dir}")
    return f"{pairs} reports, {cells} cells match their JSON"


SPECS = {
    "pipeline": ("results/BENCH_ablation_pipeline.json", check_pipeline),
    "migration": ("results/BENCH_fig8_migration.json", check_migration),
    "supervisor": ("results/BENCH_ablation_supervisor.json", check_supervisor),
    "inspect": ("results/BENCH_checl_inspect.json", check_inspect),
    "dedup": ("results/BENCH_ablation_dedup.json", check_dedup),
    "incremental": ("results/BENCH_ablation_incremental.json", check_incremental),
    "live": ("results/BENCH_ablation_live.json", check_live),
    "obs": ("results/BENCH_ablation_obs.json", check_obs),
    "fleet": ("results/BENCH_fleet.json", check_fleet),
    "gray": ("results/BENCH_ablation_gray.json", check_gray),
    "text": ("results", None),
}


def main() -> None:
    requested = sys.argv[1:] or list(SPECS)
    for arg in requested:
        bench, _, override = arg.partition("=")
        if bench not in SPECS:
            fail(bench, f"unknown bench (choose from {', '.join(SPECS)})")
        path, checker = SPECS[bench]
        if checker is None:
            summary = check_text(override or path)
        else:
            summary = checker(load(bench, override or path))
        print(f"check_goldens[{bench}]: OK ({summary})")


if __name__ == "__main__":
    main()
