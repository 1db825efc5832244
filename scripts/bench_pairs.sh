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
# ends with `bench/run.sh --compare` over the two files, then prints the claim
# rule for each end-to-end metric of BENCHMARK.json over the workload's
# untraced records: the pairs the change won (runs paired by seed, each
# metric's direction from its "better", ties won by neither side), each
# side's median and quartiles, and whether the rule holds — at least ten
# pairs, at least nine tenths of them won, and the change's median better
# than the parent's by more than the parent's interquartile range. It exits
# with --compare's status and writes nothing under bench/.
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

status=0
bash "$root/bench/run.sh" --compare "$out/parent.jsonl" "$out/change.jsonl" || status=$?

# The quartiles are bench's own (estimate.go): position i(n+1)/4, interpolated.
jq -nr --arg w "$workload" --slurpfile bench "$root/BENCHMARK.json" \
	--slurpfile parent "$out/parent.jsonl" --slurpfile change "$out/change.jsonl" '
def quartile($i): sort as $s | ($s | length) as $n |
	if $n == 0 then null elif $n == 1 then $s[0] else
		($i * ($n + 1)) as $m | ([[($m / 4 | floor), 1] | max, $n - 1] | min) as $j |
		($m - 4 * $j) as $d | ($s[$j - 1] * (4 - $d) + $s[$j] * $d) / 4
	end;
def runs: map(select(.workload == $w and .trace == false));
def fmt: if . == null then "-" elif fabs >= 1000 then round | tostring else . * 10000 | round / 10000 | tostring end;
def row: . as $r | [24, 7, 6, 34, 34] as $width |
	[range(5) | ($r[.] | tostring) as $x | $x + " " * ([$width[.] - ($x | length), 1] | max)] | add + $r[5];
($parent | runs) as $p | ($change | runs) as $c |
"claim rule on \($w): >= 10 pairs, >= 9/10 of them won, median gap beyond the parent IQR",
(["metric", "better", "won", "parent median [q1, q3]", "change median [q1, q3]", "rule"] | row),
($bench[0].end_to_end[] | .name as $k | (if .better == "higher" then 1 else -1 end) as $dir |
	([$p[].seed] | unique | map(. as $seed |
		[[$p[] | select(.seed == $seed)], [$c[] | select(.seed == $seed)]] | transpose[] |
		select(.[0] != null and .[1] != null) | map(.report.metrics[$k].value))) as $pairs |
	($pairs | map(select((.[1] - .[0]) * $dir > 0)) | length) as $won |
	[$p[].report.metrics[$k].value] as $pv | [$c[].report.metrics[$k].value] as $cv |
	($pv | quartile(2)) as $pm | ($cv | quartile(2)) as $cm |
	(($pv | quartile(3)) - ($pv | quartile(1))) as $iqr |
	[$k, .better, "\($won)/\($pairs | length)",
		"\($pm | fmt) [\($pv | quartile(1) | fmt), \($pv | quartile(3) | fmt)]",
		"\($cm | fmt) [\($cv | quartile(1) | fmt), \($cv | quartile(3) | fmt)]",
		(if ($pairs | length) >= 10 and $won * 10 >= 9 * ($pairs | length) and
			$pm != null and $cm != null and ($cm - $pm) * $dir > $iqr
		then "holds" else "no" end)] | row)
'
exit "$status"
