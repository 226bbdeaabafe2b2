#!/usr/bin/env bash
# Single verification entry point: build Release, a sanitized Debug
# (-fsanitize=address,undefined) tree and a ThreadSanitizer tree, run ctest
# in each, then run the perfbench self-test.  This is the command CI and
# pre-merge checks invoke; keep it green.
#
# Usage: scripts/check.sh [extra ctest args...]

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

run_variant() {
  local dir="$1"; shift
  local ctest_filter="$1"; shift
  local cmake_args=("$@")
  echo "==== configure ${dir} (${cmake_args[*]}) ===="
  cmake -B "${dir}" -S . "${cmake_args[@]}" >/dev/null
  echo "==== build ${dir} ===="
  cmake --build "${dir}" -j "${JOBS}"
  echo "==== ctest ${dir} ===="
  local filter_args=()
  [[ -n "${ctest_filter}" ]] && filter_args=(-R "${ctest_filter}")
  # ${arr[@]+...} keeps `set -u` happy on bash 3.2 when no args were given.
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" \
      ${filter_args[@]+"${filter_args[@]}"} \
      ${CTEST_EXTRA[@]+"${CTEST_EXTRA[@]}"})
}

CTEST_EXTRA=("$@")

# The Release variant also builds the paper-reproduction bench binaries
# (table1_bounds, fig*, x1, x2, x4, x5), so they cannot rot at compile
# time; performance is measured by perfbench alone.  The sanitized Debug
# variant skips benches for build time and runs its suite with
# DIRANT_TEST_THREADS=4: the sharded digraph-build tests then spin real
# 4-worker pools, so memory errors in the concurrent paths surface under
# asan/ubsan.  The ThreadSanitizer variant (DIRANT_TSAN) re-runs exactly
# the concurrency-heavy suites — the sharded certify build, the batch
# fan-out, the pool-parallel Borůvka EMST, the trial-parallel audits, the
# churn engine's pooled rebuild (both churn suites, including the
# sub-linear warm-path acceptance tests), the traffic engine and its event
# queue, and the pool's own claim tests (test_thread_pool) — with the same
# 4-worker pools, so data races (not just memory errors) surface too.
# All variants promote the -Wall -Wextra diagnostics of the library and
# the test suites to errors (DIRANT_WERROR).  The
# perfbench self-test runs last: the benchmark compiles against the
# library's public headers, so an API change that breaks it fails here
# rather than in the benchmark run.
run_variant build-release "" -DCMAKE_BUILD_TYPE=Release -DDIRANT_WERROR=ON
DIRANT_TEST_THREADS=4 \
run_variant build-asan "" -DCMAKE_BUILD_TYPE=Debug -DDIRANT_SANITIZE=ON \
    -DDIRANT_WERROR=ON \
    -DDIRANT_BUILD_BENCHES=OFF -DDIRANT_BUILD_EXAMPLES=OFF
DIRANT_TEST_THREADS=4 \
run_variant build-tsan \
    "test_csr_equivalence|test_batch|test_boruvka|test_audit_parallel|test_churn|test_churn_sublinear|test_traffic|test_event_queue|test_thread_pool" \
    -DCMAKE_BUILD_TYPE=Debug -DDIRANT_TSAN=ON -DDIRANT_WERROR=ON \
    -DDIRANT_BUILD_BENCHES=OFF -DDIRANT_BUILD_EXAMPLES=OFF

echo "==== perfbench self-test ===="
CARGO_TARGET_DIR=build-perfbench python3 perfbench/tests/test_perfbench.py

echo "==== all checks passed ===="
