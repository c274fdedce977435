#!/usr/bin/env bash
# Full CI gate, runnable locally:
#   1. configure + build with warnings-as-errors (RTHV_WERROR=ON)
#   2. tier-1 test suite (ctest), then the fault-injection campaigns as an
#      explicit stage (ctest -L fault)
#   3. static analysis: rthv_lint parser tests, the self-test regression
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
# under the shared-counter scheduler, the batched trace-ring reservation
# accounting, and the rthv_batch rejection of malformed campaigns.
echo "== batched campaign engine (ctest -L batch) =="
ctest --test-dir build-ci --output-on-failure -L batch -j "$jobs"

# Benchmarks must at least run: second-scale smoke invocations of both
# google-benchmark binaries (crashes/asserts, not numbers).
echo "== perf smoke (ctest -L perf-smoke) =="
ctest --test-dir build-ci --output-on-failure -L perf-smoke -j 1

# The perf gate proper: re-run the suite at real min_time and fail on >10%
# ns/op regression of any benchmark in the committed baseline. Serial on
# purpose -- benchmark numbers taken next to a parallel build are garbage.
# One retry: shared hosts have multi-minute slow windows that shift every
# benchmark at once; a real regression fails both runs.
echo "== perf gate (perf_report --compare) =="
if ! ./build-ci/bench/perf_report build-ci/bench/ci_perf.json \
    --compare BENCH_sim_throughput.json \
    --summary-out build-ci/bench/ci_perf_summary.txt; then
  echo "perf gate failed; retrying once to rule out a noisy-host window"
  ./build-ci/bench/perf_report build-ci/bench/ci_perf.json \
    --compare BENCH_sim_throughput.json \
    --summary-out build-ci/bench/ci_perf_summary.txt
fi

# Archive the gate's measurements: one JSON per run, stamped with the git
# revision and UTC date (both also recorded inside the JSON by perf_report),
# so perf history survives CI workspaces being recycled and a regression can
# be bisected against real past numbers instead of the single committed
# baseline. The ratio-sorted delta summary rides along as a text file so a
# human scanning artifacts/perf sees best/worst movers without re-diffing
# the JSONs.
mkdir -p artifacts/perf
stamp="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)_$(date -u +%Y%m%dT%H%M%SZ)"
archive="artifacts/perf/perf_${stamp}.json"
cp build-ci/bench/ci_perf.json "$archive"
cp build-ci/bench/ci_perf_summary.txt "artifacts/perf/perf_${stamp}_summary.txt"
echo "perf report archived: $archive"

echo "== static analysis =="
# Parser unit tests first: the semantic rules stand on the declaration
# parser, so a parser regression must fail before the tree scan runs.
python3 tools/rthv_lint/parser_test.py

# Lint-regression gate: the self-test re-lints the fixture trees and fails
# unless the finding set matches the rthv-lint-expect annotations AND the
# total matches the committed fixtures/EXPECTED_FINDINGS count exactly --
# both a silently-dead rule and an over-eager one trip it.
python3 tools/rthv_lint/rthv_lint.py --self-test

# Full-tree scan (compile-DB union from the CI build), archived as JSON the
# same way the perf gate archives its measurements: one report per run,
# stamped with revision and UTC date, so waiver counts and rule inventory
# can be compared across history.
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
