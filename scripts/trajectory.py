#!/usr/bin/env python3
"""The committed host-time trajectory: BENCH_trajectory.json.

The file is a JSON list of rows, one per PR x workload x end-to-end
metric of BENCHMARK.json:

  {"pr": 31, "workload": "fleet", "metric": "host_s",
   "parent": 0.22189, "change": 0.20629, "source": "compare.py"}

`parent` and `change` are perfbench medians in seconds of the PR's parent
commit and of the PR itself (`parent` is null where only the change was
recorded). `source` names the runs they come from: "compare.py" for the
PR's own `perfbench/compare.py run` sets, another label for benchmark
runs made after the PR landed. Rows that `add` writes also give each
side's quartiles and run count, as `parent_q`/`change_q` ([q1, q3]) and
`parent_n`/`change_n`.

A PR may also have one `suite` row, whose `parent` and `change` map each
bench binary (crates/bench/src/bin) to the wall-clock seconds of one
release run of it, plus their `total`:

  {"pr": 33, "workload": "suite", "metric": "bin_s",
   "parent": {"fig4_fig8": 29.0, ..., "total": 91.4}, "change": {...},
   "source": "trajectory.py suite"}

Run from the repository root:

  python3 scripts/trajectory.py check
      For every workload, compare the newest PR's `host_s` change median
      with the previous PR's: exit 1 if it is worse by more than the
      `host_s` bound in BENCHMARK.json. The previous PR's number is the
      newest row's own `parent` median where it has one, since that was
      measured on the same machine in the same session, and the previous
      row's `change` median otherwise. A side's quartiles and run count
      are printed after its median where the row has them. `setup_s` is
      printed the same way but not gated: its spread between runs
      exceeds its bound. Each
      `suite` row's totals, and the newest one's binaries, are printed
      too, and not gated: one run per binary is no median.

  python3 scripts/trajectory.py suite --pr N --side parent|change [--root DIR]
      Build the bench binaries of the checkout at DIR (default: this
      one) in release, run each once from DIR, and store the wall-clock
      seconds as the `parent` or `change` side of PR N's `suite` row.
      Each run rewrites DIR's results/, so run it on a clean tree and
      diff results/ afterwards; run nothing else meanwhile.

  python3 scripts/trajectory.py add --pr N --parent A.jsonl --change B.jsonl
      Append the rows of PR N from two `compare.py run` files (A the
      parent, B the change): per workload and metric, the median,
      quartiles and count of every run in the file, replacing any rows
      PR N already has.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILE = ROOT / "BENCH_trajectory.json"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCH["end_to_end"]}
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
GATED = {"host_s"}
SUITE = "suite"


def load():
    return json.loads(FILE.read_text())


def save(rows):
    def key(r):
        if r["workload"] == SUITE:
            return (r["pr"], len(METRICS), 0)
        return (r["pr"], list(METRICS).index(r["metric"]), WORKLOADS.index(r["workload"]))
    rows = sorted(rows, key=key)
    # One row a line, so a PR's rows read as one block in a diff.
    FILE.write_text("[\n" + ",\n".join("  " + json.dumps(r) for r in rows) + "\n]\n")


def cmd_check(_args):
    series = defaultdict(list)
    suites = []
    for r in load():
        if r["workload"] == SUITE:
            suites.append(r)
            continue
        series[(r["workload"], r["metric"])].append((r["pr"], r["change"], r["parent"], r))
    bad = False
    for metric in METRICS:
        bound = METRICS[metric]["bound"]
        for w in WORKLOADS:
            points = sorted(series[(w, metric)], key=lambda p: p[0])
            if len(points) < 2:
                print(f"{w:<11} {metric:<8} fewer than two rows: nothing to compare")
                continue
            (prev_pr, prev, _, prev_row), (pr, now, parent, row) = points[-2], points[-1]
            if parent is None:
                base, prev_side = "previous row", spread(prev_row, "change")
            else:
                base, prev_side, prev = "its parent", spread(row, "parent"), parent
            worse = (now - prev) / prev
            if metric not in GATED:
                status = "recorded (not gated)"
            elif worse > bound:
                status, bad = "REGRESSED", True
            else:
                status = "within bound"
            print(f"{w:<11} {metric:<8} PR {prev_pr} {prev:.4g}{prev_side} ({base}) -> "
                  f"PR {pr} {now:.4g}{spread(row, 'change')} s "
                  f"({100 * worse:+.1f}%, bound {100 * bound:g}%): {status}")
    print_suites(suites)
    sys.exit(1 if bad else 0)


def spread(row, side):
    """` [q1, q3] n=N` of one side of a row, or nothing if not recorded."""
    q, n = row.get(f"{side}_q"), row.get(f"{side}_n")
    return "" if q is None else f" [{q[0]:.4g}, {q[1]:.4g}] n={n}"


def print_suites(suites):
    """Each suite row's totals, then the newest row binary by binary."""
    total = lambda side: "-" if side is None else f"{side['total']:.1f} s"
    for r in sorted(suites, key=lambda r: r["pr"]):
        print(f"{SUITE:<11} PR {r['pr']} total: parent {total(r['parent'])} -> "
              f"change {total(r['change'])} (one run per binary, not gated)")
    if not suites:
        return
    newest = max(suites, key=lambda r: r["pr"])
    parent, change = newest["parent"] or {}, newest["change"] or {}
    for b in sorted((set(parent) | set(change)) - {"total"}):
        print(f"{SUITE:<11}   {b:<22} {parent.get(b, '-'):>7} -> {change.get(b, '-'):>7} s")


def summaries(path):
    """Per (workload, metric): the median, [q1, q3] and count of every run
    in a `compare.py run` file, quartiles as `compare.py` takes them."""
    values = defaultdict(list)
    for line in open(path):
        if line.strip():
            r = json.loads(line)
            for name, m in r["result"]["metrics"].items():
                if name in METRICS:
                    values[(r["workload"], name)].append(m["value"])
    out = {}
    for k, xs in values.items():
        q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
        out[k] = (round(q2, 5), [round(q1, 5), round(q3, 5)], len(xs))
    return out


def cmd_add(args):
    parent, change = summaries(args.parent), summaries(args.change)
    rows = [r for r in load() if r["pr"] != args.pr or r["workload"] == SUITE]
    for (w, metric), (median, q, n) in sorted(change.items()):
        base = parent.get((w, metric), (None, None, None))
        rows.append({"pr": args.pr, "workload": w, "metric": metric,
                     "parent": base[0], "change": median, "source": "compare.py",
                     "parent_q": base[1], "change_q": q, "parent_n": base[2], "change_n": n})
    save(rows)


def cmd_suite(args):
    root = Path(args.root).resolve() if args.root else ROOT
    subprocess.run(["cargo", "build", "--release", "--offline", "-q", "-p", "checl-bench",
                    "--bins"], cwd=root, check=True)
    target = root / os.environ.get("CARGO_TARGET_DIR", "target") / "release"
    times = {}
    for src in sorted((root / "crates" / "bench" / "src" / "bin").glob("*.rs")):
        start = time.perf_counter()
        subprocess.run([str(target / src.stem)], cwd=root, check=True,
                       stdout=subprocess.DEVNULL)
        times[src.stem] = round(time.perf_counter() - start, 2)
        print(f"{src.stem:<22} {times[src.stem]:7.2f} s")
    times["total"] = round(sum(times.values()), 2)
    print(f"{'total':<22} {times['total']:7.2f} s")
    rows = load()
    row = next((r for r in rows if r["pr"] == args.pr and r["workload"] == SUITE), None)
    if row is None:
        row = {"pr": args.pr, "workload": SUITE, "metric": "bin_s", "parent": None,
               "change": None, "source": "trajectory.py suite"}
        rows.append(row)
    row[args.side] = times
    save(rows)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("check")
    a = sub.add_parser("add")
    a.add_argument("--pr", type=int, required=True)
    a.add_argument("--parent", required=True)
    a.add_argument("--change", required=True)
    s = sub.add_parser("suite")
    s.add_argument("--pr", type=int, required=True)
    s.add_argument("--side", choices=["parent", "change"], required=True)
    s.add_argument("--root")
    args = p.parse_args()
    {"check": cmd_check, "add": cmd_add, "suite": cmd_suite}[args.cmd](args)


if __name__ == "__main__":
    main()
