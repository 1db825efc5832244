#!/usr/bin/env bash
# Runs the repository benchmark in alternating pairs on a parent revision and
# on this checkout, and compares the two sets: the evidence a performance claim
# needs.
#
#   scripts/bench_pairs.sh PARENT_REV WORKLOAD PAIRS FIRST_SEED
#
# The parent is `git archive`d into a fresh temporary directory; each side is
# built from its own sources by its own bench/run.sh. Pair k (0 <= k < PAIRS)
# runs seed FIRST_SEED+k once on each side with --trace 0, for BENCHMARK.json's
# run_seconds; even pairs run the parent first, odd pairs the change. A run
# whose result line does not say "correct":true stops the script, as in
# bench/run.sh. Every run's record is appended to parent.jsonl or change.jsonl
# in OUT, so several calls given the same OUT fill one set; without OUT the
# records go to a fresh temporary directory, whose name the script prints. It
# ends with `bench/run.sh --compare` over the two files and writes nothing
# under bench/.
set -euo pipefail

if [ $# -ne 4 ]; then
	echo "usage: $0 PARENT_REV WORKLOAD PAIRS FIRST_SEED" >&2
	exit 2
fi
parent_rev=$1 workload=$2 pairs=$3 first_seed=$4

root=$(cd "$(dirname "$0")/.." && pwd)
if [ -n "${OUT:-}" ]; then
	out=$(cd "$OUT" && pwd)
else
	out=$(mktemp -d)
fi
echo "records in $out" >&2
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")

parent=$(mktemp -d)
trap 'chmod -R u+w "$parent" 2>/dev/null; rm -rf "$parent"' EXIT
git -C "$root" archive "$parent_rev" | tar -x -C "$parent"

# Build both sides before any run, so a side that does not build fails first:
# run.sh builds before it does anything else, and comparing two empty sets
# builds a side without measuring it.
for side in "$parent" "$root"; do
	bash "$side/bench/run.sh" --compare /dev/null /dev/null >/dev/null
done

# one SIDE NAME SEED: one run on a side, its record appended to NAME.jsonl; its
# result line must say correct.
one() {
	echo "== $2 seed $3" >&2
	local last
	last=$(bash "$1/bench/run.sh" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 \
		--out "$out/$2.jsonl" | tail -n 1)
	echo "$last"
	grep -q '"correct":true' <<<"$last" || { echo "$0: $2 seed $3: checks failed" >&2; exit 1; }
}

for k in $(seq 0 $((pairs - 1))); do
	seed=$((first_seed + k))
	if [ $((k % 2)) -eq 0 ]; then
		one "$parent" parent "$seed"
		one "$root" change "$seed"
	else
		one "$root" change "$seed"
		one "$parent" parent "$seed"
	fi
done

bash "$root/bench/run.sh" --compare "$out/parent.jsonl" "$out/change.jsonl"
