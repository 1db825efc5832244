#!/usr/bin/env bash
# Builds the benchmark and runs it. This is the command BENCHMARK.json names.
#
#   bench/run.sh --workload fine --seed 1 --seconds 15 --trace 0    one run (the driver's form)
#   bench/run.sh --compare a.jsonl b.jsonl                          judge set b against set a
#   bench/run.sh                                                    every workload: the untraced pass,
#                                                                   then the traced pass, into bench/results/
#
# The third form reads RUNS (untraced runs per workload, default 1) and SEED
# (first seed, default 1), runs each for run_seconds of BENCHMARK.json, appends
# every run's record to bench/results/end_to_end.jsonl and
# bench/results/per_layer.jsonl, and fails on a failed check or a missing
# metric.
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"

if [ $# -gt 0 ]; then
	exec "$build/bench" "$@"
fi

runs=${RUNS:-1}
seed=${SEED:-1}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
results=bench/results
workloads="coarse fine abort resv observed overhead"
mkdir -p "$results"

# one <trace> <seed> <workload> <file>: a run whose result line must say correct.
one() {
	"$build/bench" --workload "$3" --seed "$2" --seconds "$seconds" --trace "$1" --out "$4" | tee "$build/last.out"
	tail -n 1 "$build/last.out" | grep -q '"correct":true' || { echo "bench/run.sh: $3: checks failed" >&2; exit 1; }
}

for i in $(seq 0 $((runs - 1))); do
	for w in $workloads; do
		one 0 $((seed + i)) "$w" "$results/end_to_end.jsonl"
	done
done
for w in $workloads; do
	one 1 "$seed" "$w" "$results/per_layer.jsonl"
done
echo "bench/run.sh: records in $results/end_to_end.jsonl and $results/per_layer.jsonl, spans in $results/<workload>.trace.json"
