#!/usr/bin/env bash
# Builds the benchmark driver into build-benchmark/ (Release) and runs it,
# one process per workload run so peak RSS is per run. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload NAME|all --seed N --seconds S \
#       --trace 0|1 [--runs K] [--smoke] [--out DIR]
#
# Flags take "--flag value" or "--flag=value". --runs K runs seeds N..N+K-1.
# --smoke uses tiny inputs and sub-second phases, and without --trace runs
# every workload both untraced and traced: every check and metric line in
# about 15 seconds after the build.
# Each run prints `workload metric value unit [n=K]` lines, writes
# DIR/<workload>-seed<N>[-trace].json (and, traced, the Chrome trace
# DIR/<workload>-seed<N>-trace.chrome.json), and ends with one JSON result
# line. DIR defaults to build-benchmark/runs. Exits non-zero if a build
# step, a run or an output check failed.
set -euo pipefail

spec=BENCHMARK.json
build_dir=build-benchmark
workload=all
seed=1
seconds=
trace=
runs=1
smoke=
out="$build_dir/runs"

while [ $# -gt 0 ]; do
  arg=$1
  shift
  case $arg in
    --smoke) smoke=--smoke; continue ;;
    --*=*) name=${arg%%=*}; value=${arg#*=} ;;
    --*)
      [ $# -gt 0 ] || { echo "run.sh: $arg needs a value" >&2; exit 2; }
      name=$arg; value=$1; shift ;;
    *) echo "run.sh: unexpected argument $arg" >&2; exit 2 ;;
  esac
  case $name in
    --workload) workload=$value ;;
    --seed) seed=$value ;;
    --seconds) seconds=$value ;;
    --trace) trace=$value ;;
    --runs) runs=$value ;;
    --out) out=$value ;;
    *) echo "run.sh: unknown flag $name" >&2; exit 2 ;;
  esac
done

[ -f "$spec" ] || { echo "run.sh: run from the repository root ($spec not found)" >&2; exit 2; }
if [ -z "$seconds" ]; then
  seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$spec")
fi

jobs=$(nproc)
[ "$jobs" -le 4 ] || jobs=4
if [ ! -f "$build_dir/build.ninja" ] && [ ! -f "$build_dir/Makefile" ]; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  cmake -S benchmark -B "$build_dir" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build_dir" --target rpm_bench -j "$jobs" >&2

commit=$(git rev-parse --short HEAD 2> /dev/null || echo unknown)
mkdir -p "$out"
if [ "$workload" = all ]; then
  workloads=(mine_sparse mine_dense serve_mixed window_stream)
else
  workloads=("$workload")
fi
if [ -n "$trace" ]; then
  traces=("$trace")
elif [ -n "$smoke" ]; then
  traces=(0 1)
else
  traces=(0)
fi

status=0
for w in "${workloads[@]}"; do
  for ((r = 0; r < runs; r++)); do
    for t in "${traces[@]}"; do
      "$build_dir/rpm_bench" --workload "$w" --seed $((seed + r)) \
          --seconds "$seconds" --trace "$t" --spec "$spec" --out "$out" \
          --commit "$commit" $smoke || status=1
    done
  done
done
exit $status
