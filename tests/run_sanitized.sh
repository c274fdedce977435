#!/usr/bin/env bash
# Builds and runs the test suite under sanitizers:
#   1. ASan + UBSan (RTHV_SANITIZE=ON) over the full suite
#   2. TSan (RTHV_TSAN=ON) over the FULL suite -- optional, pass --tsan
# Pass --lint to also run the static-analysis pass (tools/rthv_lint +
# clang-tidy when available) before any sanitizer build.
#
# usage: tests/run_sanitized.sh [--tsan] [--lint] [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."

run_tsan=0
run_lint=0
jobs="$(nproc 2>/dev/null || echo 1)"
for arg in "$@"; do
  case "$arg" in
    --tsan) run_tsan=1 ;;
    --lint) run_lint=1 ;;
    *) jobs="$arg" ;;
  esac
done

if [[ "$run_lint" == 1 ]]; then
  echo "== static analysis =="
  tests/run_static_analysis.sh
fi

echo "== ASan + UBSan build =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DRTHV_SANITIZE=ON
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan --output-on-failure -j "$jobs"

echo "== ASan + UBSan: fault-injection campaigns (ctest -L fault) =="
ctest --test-dir build-asan --output-on-failure -L fault -j "$jobs"

# Multi-core merge loop + shared-interconnect accounting under ASan/UBSan:
# per-core simulators schedule into each other (routed IRQs), so lifetime
# bugs across core boundaries surface here.
echo "== ASan + UBSan: multi-core platform (ctest -L multicore) =="
ctest --test-dir build-asan --output-on-failure -L multicore -j "$jobs"

# The checkpoint/restore layer is the prime use-after-free candidate: every
# hunt evaluation restores queued callbacks onto a live object graph and
# throws armed mutant engines away mid-simulation. The hunt suite plus a
# one-finding rthv_hunt smoke drives that whole path under ASan/UBSan.
echo "== ASan + UBSan: snapshot hunt (ctest -L hunt) =="
ctest --test-dir build-asan --output-on-failure -L hunt -j "$jobs"

# Pool recycling restores snapshots onto live object graphs and re-leases
# the same HypervisorSystem across runs; ASan/UBSan over the batch suite
# catches stale-pointer bugs in clear_traces()/restore() recycling, and the
# rthv_batch rejection tests in the same label prove malformed campaigns exit
# cleanly instead of reading an empty recorder.
echo "== ASan + UBSan: batched campaign engine (ctest -L batch) =="
ctest --test-dir build-asan --output-on-failure -L batch -j "$jobs"

# Every example runs to completion, and rthv_run rejects malformed configs
# and fault plans with a clean exit 1 (ctest -L examples).
echo "== ASan + UBSan: examples (ctest -L examples) =="
ctest --test-dir build-asan --output-on-failure -L examples -j "$jobs"

# Every text-input loader under mutation: with -fno-sanitize-recover, an
# integer overflow left in a parser aborts the fuzz test (ctest -L fuzz).
echo "== ASan + UBSan: input fuzz (ctest -L fuzz) =="
ctest --test-dir build-asan --output-on-failure -L fuzz -j "$jobs"

echo "== ASan + UBSan: rthv_hunt smoke =="
./build-asan/tools/rthv_hunt/rthv_hunt --baseline --weaken 4 --exp 1444 0 \
  --generations 10 --population 8 --horizon-ms 100 --fork-ms 10 --seed 7 \
  --jobs 2 --expect-finding > /dev/null

# The randomized admission differential is the designated sanitizer workout
# for the admit kernels: random windows and Algorithm 1 reference runs
# under ASan/UBSan probe every load the AND-reduction and the early-exit
# loop perform.
echo "== ASan + UBSan: admission-kernel differential =="
ctest --test-dir build-asan --output-on-failure -R 'AdmitKernelDifferentialTest' -j "$jobs"

# A short micro_benchmarks run under ASan/UBSan (perf_smoke_micro): its
# 1000- and 100000-pending event-queue rows exercise the node vector and
# list links at populations no unit test reaches.
echo "== ASan + UBSan: perf smoke (ctest -L perf-smoke) =="
ctest --test-dir build-asan --output-on-failure -L perf-smoke -j "$jobs"

if [[ "$run_tsan" == 1 ]]; then
  echo "== TSan build (full suite) =="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DRTHV_TSAN=ON
  cmake --build build-tsan -j "$jobs"
  ctest --test-dir build-tsan --output-on-failure -j "$jobs"

  # The --jobs bit-identity contract for fault sweeps is exactly the kind of
  # property TSan falsifies: injectors and oracle replay must never share
  # mutable state across sweep workers.
  echo "== TSan: fault-injection campaigns (ctest -L fault) =="
  ctest --test-dir build-tsan --output-on-failure -L fault -j "$jobs"

  # The multicore suite's RunIsIdenticalForAnyJobsCount shards whole
  # MulticoreSystem runs over BatchRunner workers: TSan proves the merged
  # per-core simulators and the shared interconnect never leak mutable
  # state across those workers.
  echo "== TSan: multi-core platform (ctest -L multicore) =="
  ctest --test-dir build-tsan --output-on-failure -L multicore -j "$jobs"

  # BatchRunner workers claim index chunks from one shared atomic counter
  # and write per-index result slots; TSan over the batch suite (jobs up to
  # 16, deliberate imbalance) proves the claims, the result slots, the
  # lowest-index error record and SystemPool leasing are race-free.
  echo "== TSan: batched campaign engine (ctest -L batch) =="
  ctest --test-dir build-tsan --output-on-failure -L batch -j "$jobs"
fi

echo "sanitized runs passed"
