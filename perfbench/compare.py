#!/usr/bin/env python3
"""Run sets of the `perf` benchmark and compare them.

Run from the repository root:

  python3 perfbench/compare.py run --out A.jsonl [--sets 5] [--seeds 20110811,7]
        [--workloads interpose,fleet] [--seconds 10] [--trace 0|1|both]
      Append one JSON record per invocation to A.jsonl. Sets alternate the
      workload order (forward, then reversed) so slow drift on the machine
      does not always land on the same workload. `--trace both` (the
      default) runs every workload untraced, for the host metrics, and
      traced, for the virtual ones.

  python3 perfbench/compare.py spread A.jsonl
      Per workload and metric: median, quartiles, and the quartile spread
      as a share of the median, against the metric's bound in
      BENCHMARK.json: a steady metric's spread is within its bound, and
      well clear of it below a third.

  python3 perfbench/compare.py compare A.jsonl B.jsonl
      A is the base, B the change. Virtual metrics (from traced runs)
      must be identical for every workload and seed both sides ran; host
      metrics' B median may be worse than A's by at most the bound; a
      host metric whose spread on either side is wider than its bound is
      reported unresolved unless every B run beats every A run. Exits 1
      on a virtual diff, a missing metric, a failed operation or a host
      regression.

  python3 perfbench/compare.py summary A.jsonl
      Print per-workload, per-seed medians and quartiles as JSON (the
      form of the files under perfbench/baseline/).
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


def is_host(name):
    """Host-clock metrics are noisy; every other metric is virtual time,
    bytes or counts, and must repeat exactly for a seed."""
    return (
        name in ("host_s", "setup_s", "peak_rss_mb", "trace_overhead_pct")
        or name.startswith("host.")
        or name.endswith("_mib_s")
        or name == "checl.runtime.forward_ns"
    )


def invoke(workload, seed, seconds, trace):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def cmd_run(args):
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = args.seconds if args.seconds is not None else BENCH["run_seconds"]
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    with open(args.out, "a") as out:
        for s in range(args.sets):
            order = workloads if s % 2 == 0 else workloads[::-1]
            for seed in seeds:
                for w in order:
                    for trace in traces:
                        result = invoke(w, seed, seconds, trace)
                        rec = {"workload": w, "seed": seed, "set": s,
                               "trace": trace, "result": result}
                        out.write(json.dumps(rec) + "\n")
                        out.flush()
                        ok = "ok" if result["correct"] else "NOT CORRECT"
                        print(f"set {s} seed {seed} {w} trace {trace}: {ok}", file=sys.stderr)


def load(path):
    return [json.loads(line) for line in open(path) if line.strip()]


def group(records):
    """{(workload, seed): {metric: [values]}} plus fail counts."""
    values = defaultdict(lambda: defaultdict(list))
    fails = defaultdict(lambda: [0, 0])
    for r in records:
        key = (r["workload"], r["seed"])
        fails[key][0] += r["result"]["attempted"]
        fails[key][1] += r["result"]["failed"]
        for name, m in r["result"]["metrics"].items():
            values[key][name].append(m["value"])
    return values, fails


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def rel_spread(xs):
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def cmd_spread(args):
    records = load(args.file)
    by_workload = defaultdict(lambda: defaultdict(list))
    for r in records:
        for name, m in r["result"]["metrics"].items():
            by_workload[r["workload"]][name].append(m["value"])
    steady = True
    for w in sorted(by_workload):
        print(f"== {w}")
        for name, xs in by_workload[w].items():
            q1, q2, q3 = quartiles(xs)
            spread = rel_spread(xs)
            bound = BOUNDS.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else ("WITHIN" if spread <= bound else "OVER")
                steady &= spread <= bound
            b = "-" if bound is None else f"{bound:g}"
            print(f"  {name:<42} n={len(xs):<3} median {q2:<14.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.4f} bound {b:<6} {flag}")
    sys.exit(0 if steady else 1)


def cmd_compare(args):
    a_vals, a_fail = group(load(args.a))
    b_vals, b_fail = group(load(args.b))
    bad = False
    for w in WORKLOADS:
        seeds = sorted({s for (wk, s) in a_vals if wk == w} & {s for (wk, s) in b_vals if wk == w})
        if not seeds:
            continue
        print(f"== {w} (seeds {', '.join(map(str, seeds))})")
        for seed in seeds:
            for side, fails in (("A", a_fail), ("B", b_fail)):
                att, failed = fails[(w, seed)]
                print(f"  seed {seed} {side}: fail_pct {100.0 * failed / max(att, 1):.3f} "
                      f"({failed}/{att})")
                bad |= failed > 0
        names = sorted(set().union(*(a_vals[(w, s)].keys() | b_vals[(w, s)].keys()
                                     for s in seeds)))
        if not any(not is_host(n) for n in names):
            print("  no traced runs: virtual metrics not checked")
        for name in names:
            missing = [f"{side} seed {s}" for s in seeds
                       for side, vals in (("A", a_vals), ("B", b_vals)) if not vals[(w, s)][name]]
            if missing:
                bad = True
                print(f"  {name:<42} MISSING in {', '.join(missing)}")
                continue
            if not is_host(name):
                diffs = [s for s in seeds
                         if len(set(a_vals[(w, s)][name] + b_vals[(w, s)][name])) > 1]
                status = "identical" if not diffs else f"DIFFERS at seed {diffs}"
                bad |= bool(diffs)
                print(f"  {name:<42} virtual  {status}")
                continue
            a = [x for s in seeds for x in a_vals[(w, s)][name]]
            b = [x for s in seeds for x in b_vals[(w, s)][name]]
            qa, qb = quartiles(a), quartiles(b)
            lower = BETTER.get(name, "lower") == "lower"
            worse = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            worse = worse if lower else -worse
            bound = BOUNDS.get(name)
            if bound is None:
                status = "(no bound)"
            elif max(rel_spread(a), rel_spread(b)) > bound:
                all_better = max(b) < min(a) if lower else min(b) > max(a)
                status = "better (every run)" if all_better else "UNRESOLVED (spread > bound)"
            elif worse > bound:
                status, bad = "REGRESSED", True
            else:
                status = "within bound"
            print(f"  {name:<42} host     A {qa[1]:<12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"B {qb[1]:<12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                  f"worse {100 * worse:+6.2f}%  bound {bound}  {status}")
    sys.exit(1 if bad else 0)


def cmd_summary(args):
    values, fails = group(load(args.file))
    out = {}
    for (w, seed), metrics in sorted(values.items()):
        att, failed = fails[(w, seed)]
        entry = {"runs": len(next(iter(metrics.values()))), "attempted": att, "failed": failed,
                 "metrics": {}}
        for name, xs in metrics.items():
            q1, q2, q3 = quartiles(xs)
            entry["metrics"][name] = {"median": q2, "q1": q1, "q3": q3}
        out.setdefault(w, {})[str(seed)] = entry
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--sets", type=int, default=5)
    r.add_argument("--seeds", default="20110811")
    r.add_argument("--workloads", default="")
    r.add_argument("--seconds", type=int)
    r.add_argument("--trace", default="both", choices=("0", "1", "both"))
    s = sub.add_parser("spread")
    s.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    m = sub.add_parser("summary")
    m.add_argument("file")
    args = p.parse_args()
    {"run": cmd_run, "spread": cmd_spread, "compare": cmd_compare, "summary": cmd_summary}[args.cmd](args)


if __name__ == "__main__":
    main()
