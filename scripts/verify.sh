#!/usr/bin/env bash
# Tier-1 verification plus a ThreadSanitizer pass over the parallel miner.
#
#   scripts/verify.sh          # full: build, ctest, harness, benchmark
#                              #   smoke, TSan, UBSan, ASan
#   scripts/verify.sh --fast   # skip the sanitizer builds
#
# The TSan stage uses a separate build tree (build-tsan/) configured with
# -DRPM_SANITIZE=thread so instrumented objects never mix with the
# release build, and runs only the parallel-miner test there (the rest of
# the suite is single-threaded and already covered by stage 1).
#
# The bench-smoke stage runs the governance checkpoint-overhead gate at a
# tiny scale (RPM_BENCH_SCALE set via the ctest "perf" label's
# environment) and validates the JSON report it writes. End-to-end
# performance is measured by benchmark/ (stage 5c and BENCHMARK.json).
#
# The harness stages run the differential correctness harness
# (`rpminer verify`, DESIGN.md §5b): a bounded smoke pass on the release
# build, then the same pass under UBSan (build-ubsan/) so the
# extreme-timestamp regimes double as an undefined-behavior probe of the
# gap arithmetic.
#
# The engine stage runs the query-engine suite (`ctest -L engine`,
# DESIGN.md §6) on its own so planner/executor regressions are named in
# the output, and the TSan stage additionally builds and runs engine_test
# (concurrent sessions over one shared snapshot).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

echo "== stage 1: release build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j"${JOBS}"
(cd build && ctest --output-on-failure -j"${JOBS}" -LE perf)

echo "== stage 2: query-engine suite (engine label) =="
(cd build && ctest --output-on-failure -L engine -LE perf)

echo "== stage 2b: incremental windowed suite (incremental label) =="
# The windowed-miner unit tests plus the windowed ts-list coverage, named
# in the output so sliding-window regressions don't hide in stage 1.
(cd build && ctest --output-on-failure -L incremental -LE perf)

echo "== stage 2c: serve suite (serve label) =="
# The query-server stack (DESIGN.md §10): wire parser, admission control,
# single-flight cache, service semantics, the socket server with its
# failpoints, and the planner-cache stress tests.
(cd build && ctest --output-on-failure -L serve -LE perf)

echo "== stage 3: bench smoke (governance overhead gate, perf label) =="
(cd build && ctest --output-on-failure -L perf)
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool build/BENCH_governance.json >/dev/null \
    && echo "BENCH_governance.json: valid JSON"
else
  grep -q '"bench": ' build/BENCH_governance.json \
    && echo "BENCH_governance.json: present (python3 unavailable, grep check)"
fi

echo "== stage 4: differential harness smoke =="
./build/src/rpminer verify --cases=200 --seed=7

echo "== stage 5: fault-injection campaign smoke (faults label) =="
# Seeded fault campaign (DESIGN.md §7.4): every injected fault must
# surface as a clean Status or governed truncation, never a crash or a
# poisoned planner cache.
./build/src/rpminer verify --faults=200 --seed=7

echo "== stage 5b: multi-tenant server soak =="
# Drives a real `rpminer serve` process past saturation: a hot tenant
# must see OVERLOADED with retry hints while seven cold tenants get
# byte-identical answers to standalone mine, then SIGTERM must drain
# cleanly with exit 0 (scripts/server_soak.py, DESIGN.md §10).
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/server_soak.py ./build/src/rpminer
else
  echo "server_soak: skipped (python3 missing)"
fi

echo "== stage 5c: end-to-end benchmark smoke =="
# Tiny inputs through every benchmark workload, untraced and traced: the
# only check of mine/serve/window output at the CLI and server surface
# (byte-identical replies, JSON hashes, counter invariants). Builds its
# own Release tree in build-benchmark/ and exits non-zero on any failed
# output check.
bash benchmark/run.sh --smoke

if [[ "${1:-}" == "--fast" ]]; then
  echo "verify: OK (TSan, UBSan and ASan stages skipped)"
  exit 0
fi

echo "== stage 6: ThreadSanitizer on the parallel miner + query engine =="
cmake -B build-tsan -S . -DRPM_SANITIZE=thread \
      -DRPM_BUILD_BENCHMARKS=OFF -DRPM_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j"${JOBS}" --target rp_growth_parallel_test \
      rp_tree_test engine_test governance_test windowed_miner_test \
      serve_server_test planner_stress_test rpminer
./build-tsan/tests/rp_growth_parallel_test
# The partitioned tree build: builders filled on worker threads, sealed
# as one tree, under budgets and failpoints.
./build-tsan/tests/rp_tree_test
# Concurrent QuerySession::Run over one shared snapshot/planner, and
# concurrent mines (1- and 4-thread, stricter params, top-k descents
# through both executors) of one cached sealed tree that nothing clones
# (EngineConcurrencyTest).
./build-tsan/tests/engine_test
# Budget checkpoints and prefix-commit truncation under TSan.
./build-tsan/tests/governance_test
# Windowed maintenance (single-threaded by contract, but its budget
# cancellation test crosses threads through the token).
./build-tsan/tests/windowed_miner_test
# The socket server: concurrent sessions, admission, drain, failpoints.
./build-tsan/tests/serve_server_test
# Planner cache under eviction churn + epoch swaps with pinned readers.
./build-tsan/tests/planner_stress_test
# Fault campaign under TSan: injected faults fire from worker threads.
./build-tsan/src/rpminer verify --faults=200 --seed=7

echo "== stage 7: UBSan over the differential harness + fault campaign =="
# The merge kernel's bitmap union indexes words by timestamp arithmetic
# (unsigned span, INT64 extremes in its tests), so its suite runs here.
cmake -B build-ubsan -S . -DRPM_SANITIZE=undefined \
      -DRPM_BUILD_BENCHMARKS=OFF -DRPM_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-ubsan -j"${JOBS}" --target rpminer ts_merge_test
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/ts_merge_test
UBSAN_OPTIONS=halt_on_error=1 \
  ./build-ubsan/src/rpminer verify --cases=200 --seed=7
UBSAN_OPTIONS=halt_on_error=1 \
  ./build-ubsan/src/rpminer verify --faults=200 --seed=7

echo "== stage 8: AddressSanitizer over the parsers + fault campaign =="
# ASan is the natural probe for the injected-bad_alloc recovery paths:
# a leaked node arena or a use-after-rollback in the prefix-commit walk
# surfaces here even when behavior looks clean. The SPMF loader walks raw
# pointers over one input buffer, so the reader suites (including the
# differential loader test and the garbage-input rounds) run here too.
# The sealed RP-tree is index arithmetic into one timestamp slab, and its
# builder holds borrowed pointers to InsertPath lists until Seal(), so the
# tree suite (with its differential layout test) and the parallel miner
# suite run here as well, and so does the merge kernel's suite, whose
# bitmap union writes words indexed from timestamps. A pattern base's
# sorted path lists point into a per-frame slab and into the parent frame's accumulators, and a child
# level reads its TS^beta from those accumulators while it mines, so the
# miner suite (with its fragmenting fixtures) runs here too. The walk
# indexes fixed lane arrays and the count rule skips lists mid-frame, and
# the windowed sub-mines and governed stops exercise both on many tiny
# trees and mid-walk stops, so the windowed-miner and governance suites
# run here as well. The CLI
# parses argv and --queries files, and the server parses wire JSON, all
# from outside the program, so the flag, CLI and protocol suites run here
# as well.
cmake -B build-asan -S . -DRPM_SANITIZE=address \
      -DRPM_BUILD_BENCHMARKS=OFF -DRPM_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-asan -j"${JOBS}" --target rpminer io_test \
      robustness_test rp_tree_test ts_merge_test rp_growth_test \
      rp_growth_parallel_test windowed_miner_test governance_test \
      cli_test flags_test mining_flags_test serve_protocol_test
ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/io_test
ASAN_OPTIONS=detect_leaks=1 \
  ./build-asan/tests/robustness_test --gtest_filter='ParserRobustnessTest.*'
ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/rp_tree_test
ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/ts_merge_test
ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/rp_growth_test
ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/rp_growth_parallel_test
ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/windowed_miner_test
ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/governance_test
for suite in cli_test flags_test mining_flags_test serve_protocol_test; do
  ASAN_OPTIONS=detect_leaks=1 "./build-asan/tests/${suite}"
done
ASAN_OPTIONS=detect_leaks=1 \
  ./build-asan/src/rpminer verify --cases=200 --seed=7
ASAN_OPTIONS=detect_leaks=1 \
  ./build-asan/src/rpminer verify --faults=200 --seed=7

echo "verify: OK"
