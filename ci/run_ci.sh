#!/usr/bin/env bash
# Full CI gate, runnable locally:
#   1. configure + build with warnings-as-errors (RTHV_WERROR=ON), once at
#      RelWithDebInfo for the tests and once compile-only at Release (-O3)
#   2. tier-1 test suite (ctest), then the fault, multicore, hunt, batch,
#      fuzz and perf-smoke labels as explicit stages, then a Debug
#      ASan + UBSan build running test_sim, SystemSnapshot*, the
#      LatencyRecorder tests, the monitor suite, the hunt, batch, multicore
#      and fault labels, the workload and obs labels, and the rthv_run
#      malformed-config rejections, and a Debug TSan build running the
#      batch, multicore and hunt labels
#   3. e2ebench correctness: selftest plus every workload on seeds 1 and 2
#      must report "correct": true
#   4. static analysis: rthv_lint parser tests, the self-test regression
#      gate (fixture findings must match the committed EXPECTED_FINDINGS
#      count exactly), the full-tree scan with a JSON report archived under
#      artifacts/lint/, and -- when installed -- clang-tidy via the
#      lint-tidy target plus an incremental pass over the files changed vs
#      the merge base (all of src/ on a fresh checkout).
#
# usage: ci/run_ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="${1:-$(nproc 2>/dev/null || echo 1)}"

echo "== configure + build (RTHV_WERROR=ON) =="
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DRTHV_WERROR=ON \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build build-ci -j "$jobs"

# Compile-only Release (-O3) build: some warnings (e.g. GCC's -Wrestrict on
# string concatenation chains) only appear once the optimizer inlines
# deeply, so the -O2 build above cannot catch them. Nothing is run from it.
echo "== Release compile (RTHV_WERROR=ON) =="
cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release -DRTHV_WERROR=ON
cmake --build build-ci-release -j "$jobs"

echo "== tier-1 tests =="
ctest --test-dir build-ci --output-on-failure -j "$jobs"

# The adversarial campaigns get their own visible stage: a soundness bug in
# the monitor shows up here first (interference-oracle violations), and the
# label keeps the stage cheap to re-run in isolation.
echo "== fault-injection campaigns (ctest -L fault) =="
ctest --test-dir build-ci --output-on-failure -L fault -j "$jobs"

# Multi-core determinism and interference: the (time, core, seq) merge must
# be bit-identical for any --jobs value and any core relabeling, cross-core
# routing must deliver, and contended admissions must satisfy the
# interference oracle with contention folded in (and fail it without).
echo "== multi-core platform (ctest -L multicore) =="
ctest --test-dir build-ci --output-on-failure -L multicore -j "$jobs"

# Snapshot-driven coverage-guided campaigns: falsifiability (the hunt must
# find the weakened-monitor violation and replay it standalone), jobs
# determinism, and the >=10x edge over the random baseline.
echo "== adversarial hunt (ctest -L hunt) =="
ctest --test-dir build-ci --output-on-failure -L hunt -j "$jobs"

# Campaign engine: both BatchRunner entry points (index order, every index
# exactly once, lowest-index rethrow), the warm-start differential (pooled
# recycle vs construct-per-run must be bit-identical), jobs/chunk identity
# under the shared-counter scheduler, and the rthv_batch rejection of
# malformed campaigns.
echo "== batched campaign engine (ctest -L batch) =="
ctest --test-dir build-ci --output-on-failure -L batch -j "$jobs"

# Seeded mutation fuzz of the text-input loaders: every mutant of a shipped
# config, fault plan or trace CSV loads or fails with its loader's error.
echo "== input fuzz (ctest -L fuzz) =="
ctest --test-dir build-ci --output-on-failure -L fuzz -j "$jobs"

# The micro-benchmark binary must at least run: a second-scale smoke
# invocation (crashes/asserts, not numbers).
echo "== perf smoke (ctest -L perf-smoke) =="
ctest --test-dir build-ci --output-on-failure -L perf-smoke -j 1

# Queued callbacks are plain bytes: scheduling copies a closure into its
# node, pop() copies it out, and every snapshot/restore round-trips it
# through the word stream, and so do the latency recorder, the kept
# completions and every core of a multi-core system. A Debug ASan + UBSan
# build runs the event-core suite, the system snapshot and latency recorder
# tests and the hunt, batch and multicore labels, the paths that restore
# those bytes onto live object graphs. It also runs every reader of the one
# delta^- tracebuffer -- the monitor suite, the fault label (golden adversary
# trace included) and the malformed monitor configs -- so an out-of-bounds
# window read fails here, not only in a release build. The workload label
# (trace generators, the one-pass ECU stream merge and their golden hashes)
# runs here too, so a merge cursor read past a stream's end fails here.
echo "== ASan + UBSan: event core, snapshots, monitors, hunt, batch, multicore, fault, workload, obs =="
cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=Debug -DRTHV_SANITIZE=ON
cmake --build build-ci-asan -j "$jobs"
./build-ci-asan/tests/test_sim
./build-ci-asan/tests/test_core --gtest_filter='SystemSnapshot*'
ctest --test-dir build-ci-asan --output-on-failure -L hunt -j "$jobs"
ctest --test-dir build-ci-asan --output-on-failure -L batch -j "$jobs"
ctest --test-dir build-ci-asan --output-on-failure -L multicore -j "$jobs"
./build-ci-asan/tests/test_stats --gtest_filter='LatencyRecorder*'
./build-ci-asan/tests/test_mon
ctest --test-dir build-ci-asan --output-on-failure -L fault -j "$jobs"
ctest --test-dir build-ci-asan --output-on-failure -R rthv_run_rejects -j "$jobs"
ctest --test-dir build-ci-asan --output-on-failure -L workload -j "$jobs"
# Histogram buckets are a stored window indexed by (bucket - first): the
# obs label (the BucketCounts differential test, the merge properties and
# the golden metrics) runs here so window index arithmetic cannot hide UB.
ctest --test-dir build-ci-asan --output-on-failure -L obs -j "$jobs"

# The batch and multicore labels construct systems on several workers at
# once, and every construction interns its config-built metric names
# (irq_queue/dropped/<partition>, core<N>/...) in one mutex-guarded table
# (obs::intern_name). A Debug TSan build runs both labels, so a race on that
# table, on BatchRunner's shared claim counter or on SystemPool leasing
# fails here. BatchRunner writes each result in place into its slot of the
# returned vector; the hunt label runs its generations on that engine at
# jobs > 1, so a race between neighbouring slots fails here too.
echo "== TSan: batch, multicore, hunt =="
cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DRTHV_TSAN=ON
cmake --build build-ci-tsan -j "$jobs"
ctest --test-dir build-ci-tsan --output-on-failure -L batch -j "$jobs"
ctest --test-dir build-ci-tsan --output-on-failure -L multicore -j "$jobs"
ctest --test-dir build-ci-tsan --output-on-failure -L hunt -j "$jobs"

# End-to-end benchmark correctness, not speed: the selftest shows that a
# wrong digest and a non-conserving count are caught, then every workload
# runs briefly on seeds 1 and 2. A run passes only if the last line of its
# report says "correct": true -- its digest matches e2ebench/refs.json,
# event conservation holds and the oracle is clean. Timings from a CI host
# gate nothing; performance is compared with `run.py steady` medians.
echo "== e2ebench correctness (python3 e2ebench/run.py) =="
python3 e2ebench/run.py selftest
for workload in paper_suite campaign_10irq hunt_storm multicore_4core; do
  for seed in 1 2; do
    report="$(python3 e2ebench/run.py --workload "$workload" --seed "$seed" \
                --seconds 1 --trace 0 | tail -n 1)"
    if ! python3 -c 'import json, sys; sys.exit(json.loads(sys.argv[1])["correct"] is not True)' \
        "$report"; then
      echo "e2ebench: $workload seed $seed is not correct: $report"
      exit 1
    fi
    echo "e2ebench: $workload seed $seed correct"
  done
done

echo "== static analysis =="
# Parser unit tests first: the semantic rules stand on the declaration
# parser, so a parser regression must fail before the tree scan runs.
python3 tools/rthv_lint/parser_test.py

# Lint-regression gate: the self-test re-lints the fixture trees and fails
# unless the finding set matches the rthv-lint-expect annotations AND the
# total matches the committed fixtures/EXPECTED_FINDINGS count exactly --
# both a silently-dead rule and an over-eager one trip it.
python3 tools/rthv_lint/rthv_lint.py --self-test

# Full-tree scan (compile-DB union from the CI build), archived as JSON: one
# report per run under artifacts/lint/, stamped with revision and UTC date,
# so waiver counts and rule inventory can be compared across history.
mkdir -p artifacts/lint
lint_archive="artifacts/lint/lint_$(git rev-parse --short HEAD 2>/dev/null || echo unknown)_$(date -u +%Y%m%dT%H%M%SZ).json"
python3 tools/rthv_lint/rthv_lint.py \
  --compile-db build-ci/compile_commands.json \
  --json "$lint_archive" src bench
echo "lint report archived: $lint_archive"

if command -v clang-tidy >/dev/null 2>&1; then
  # Pinned-check clang-tidy (.clang-tidy) over all of src/ via the build
  # target, so CI and `cmake --build build --target lint-tidy` run the
  # exact same invocation.
  echo "== clang-tidy (lint-tidy target) =="
  cmake --build build-ci --target lint-tidy
else
  echo "== clang-tidy not installed; skipped =="
fi

echo "CI gate passed"
