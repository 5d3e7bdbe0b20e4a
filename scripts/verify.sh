#!/usr/bin/env bash
# Full offline verification: format, lints, docs, build, tests, and golden
# runs of the figure harnesses, some with trace recording + validation.
#
# Usage: scripts/verify.sh [--quick]
#   --quick   type-check every target instead of running clippy, and skip
#             the remote-proxy and MPI goldens and the micro-bench smoke
#             (CI uses the full run)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

# Run one bench binary once (any further arguments, such as --trace, go
# to the binary) and diff every file it wrote under results/: each
# figure writes its own results/<figure>.txt and BENCH_<figure>.json. A
# file the binary adds there is a failure too. Every figure is seeded
# virtual time, so any diff is a real regression.
golden() {
    local bin="$1"
    shift
    cargo run -q --release -p checl-bench --bin "$bin" -- "$@" >/dev/null
    git diff --exit-code -- results/
    local untracked
    untracked="$(git ls-files --others --exclude-standard -- results/)"
    if [[ -n "$untracked" ]]; then
        echo "untracked files under results/: $untracked" >&2
        return 1
    fi
}

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> thread_local! only in the recording state and the workload memos"
# Output bytes must depend only on a run's own history, not on what ran
# on its thread before it. Two thread-locals are allowed: telemetry's
# recording state, which decides what is recorded but never what is
# computed, and the workload memos, which are exact, so only their hit
# rate depends on the thread.
stray="$(grep -rl --include='*.rs' 'thread_local!' src crates/*/src examples |
    grep -v -x -e crates/simcore/src/telemetry.rs -e crates/workloads/src/script.rs || true)"
if [[ -n "$stray" ]]; then
    echo "thread_local! outside the allowed files: $stray" >&2
    exit 1
fi

if [[ "$QUICK" -eq 0 ]]; then
    echo "==> cargo clippy (deny warnings)"
    cargo clippy --workspace --all-targets -- -D warnings
else
    # `cargo test` never builds the benches; compile every target so an
    # API change cannot strand them.
    echo "==> cargo check --all-targets"
    cargo check --workspace --all-targets
fi

echo "==> cargo doc (deny warnings)"
# Intra-doc links are checked, so a doc pointing at a deleted or
# private name fails here instead of dangling.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> perfbench tests (reads results/BENCH_fleet.json)"
cargo test --manifest-path perfbench/Cargo.toml -q

echo "==> smoke: Fig. 5 + Fig. 7 with trace recording (golden diff)"
# One checkpoint and one restart per program and target feed both
# figures. TraceSession::finish panics unless telemetry::validate
# accepts the trace, so reaching the diff means the export is
# structurally sound.
golden fig5_fig7 --trace results/fig5_fig7.trace.json
test -s results/fig5_fig7.trace.json

echo "==> smoke: fault-injection matrix (fixed seed, golden diff)"
# Fault schedules are seeded and virtual-time-driven, so the regenerated
# report and JSON must be byte-identical to the committed goldens.
golden ablation_faults --trace /tmp/faults.trace.json

echo "==> smoke: API surface — Table I, host pointers, processor selection, CPR modes (golden diff)"
# The shim's per-call accounting and the §IV-C/§IV-D ablations: each
# run takes well under a second.
for b in table1 ablation_hostptr ablation_procsel ablation_modes; do
    golden "$b"
done

echo "==> smoke: pipelined checkpoint engine (golden diff)"
golden ablation_pipeline

echo "==> smoke: self-healing supervisor (golden diff)"
# Every supervised cell proves bit-exactness against a native run.
golden ablation_supervisor

echo "==> smoke: dedup chunk store ablation (golden diff)"
# Every cell restores its last generation and asserts checksum equality
# with an uninterrupted baseline before a row is written.
golden ablation_dedup

echo "==> smoke: incremental (dedup) checkpoint ablation (golden diff)"
# Full dumps vs the dedup path's clean-buffer fast path on iterative
# BlackScholes (the paper's §IV-D incremental checkpointing).
golden ablation_incremental

echo "==> smoke: live copy-on-write checkpoint ablation (golden diff)"
# Every cell cuts mid-run, races the drain with further mutation, and
# asserts the restore is bit-exact against an uninterrupted baseline.
golden ablation_live

echo "==> smoke: ledger health report + observability ablation (golden diff)"
# checl_inspect re-derives the supervisor's books from the event ledger
# alone (the binary asserts exact agreement); ablation_obs asserts the
# ledger costs zero virtual time. Both exports are seeded goldens. The
# trace projection of the same run (spans and records) must validate:
# TraceSession::finish panics otherwise.
golden checl_inspect --trace /tmp/inspect.trace.json
golden ablation_obs

echo "==> smoke: gray-failure resilience + crash-point torture (golden diff)"
# Every gray-fault supervision cell asserts bit-exactness, the fleet
# ladder cells assert drift-free accounting, and the torture sweep
# replays the dump/drain/commit/GC sequence once per obs-event
# boundary and restores 100% of them before a row is written.
golden ablation_gray

echo "==> smoke: Fig. 4 overhead + Fig. 8 migration (golden diff, ~40 s)"
# One native run, one CheCL run and one migration of that CheCL run per
# program and target feed both figures. The binary asserts that every
# CheCL run reads back what its native run reads back, and that the
# sequential and pipelined migration engines land the same checksums
# across vendors (nimbus → crimson), pipelined faster on every
# multi-buffer scenario.
golden fig4_fig8

echo "==> smoke: fleet scheduler sweep (golden diff, ~10 s)"
# Sweeps 100 -> 10,000 admitted jobs; every cell verifies every
# tenant bit-exact against an uninterrupted solo run, and the
# scheduler's ops/event counter must stay flat across the sweep.
golden fleet

if [[ "$QUICK" -eq 0 ]]; then
    echo "==> smoke: remote proxy, MPI scaling (golden diff)"
    for b in ablation_remote fig6_mpi; do
        golden "$b"
    done
fi

echo "==> golden invariants (perf, availability, reconciliation guards)"
# One spec per bench: pipelined < sequential (checkpoint + migration),
# the adaptive interval policy wins, the health report reconciles
# faults 1:1, incremental (dedup) checkpoints undercut full dumps from
# the second on, the ledger stays free in virtual time, and the fleet
# sweep stays flat in ops/event with monotone node-count throughput;
# and every text report prints what its JSON holds.
python3 scripts/check_goldens.py pipeline migration supervisor inspect dedup incremental live obs fleet gray text

echo "==> host-time trajectory (newest PR's host_s against the previous PR's)"
python3 scripts/trajectory.py check

if [[ "$QUICK" -eq 0 ]]; then
    echo "==> smoke: micro-benches (every filter, one run each)"
    for f in codec checksum kernel driver workload forward cpr sig_parser; do
        cargo bench -q -p checl-bench -- "$f" >/dev/null
    done
fi

echo "verify: OK"
