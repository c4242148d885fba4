#!/bin/sh
# pair.sh compares the end-to-end benchmark of a commit (the parent, <rev>)
# with the working tree (the change) in alternating pairs:
#
#	scripts/pair.sh <rev> [-workload W] [-pairs N] [-seconds S] [-seed S0]
#
# It checks <rev> out with `git worktree add` into a temporary directory (no
# network), builds each tree's ./benchmark once, and runs the two binaries
# on seeds S0, S0+1, …, one pair per seed, the parent first in even pairs
# and the change first in odd ones. Each side's runs append their history
# lines to a temporary -out file and put their scratch stores in a
# temporary working directory, so neither tree is written to. The two files
# then go through the benchmark's own regression gate, `benchmark -compare`
# (medians, quartile spreads, BENCHMARK.json's bounds; exit 1 on a breach).
# Below its table the script prints per workload and gated metric the sign
# count, the pairs the change read better in (ties count for neither), and
# per workload each side's failed share and runs that were not correct
# (failed jobs, leaked goroutines). It exits 1 when the gate does, when the
# change fails a larger share of its jobs, or when more of its runs are not
# correct.
#
# Defaults: every workload, 10 pairs, BENCHMARK.json's run_seconds, seed 1.
# Needs git, go and jq.
set -eu

usage() {
	echo "usage: scripts/pair.sh <rev> [-workload W] [-pairs N] [-seconds S] [-seed S0]" >&2
	exit 2
}

[ $# -ge 1 ] || usage
rev=$1
shift
root=$(cd "$(dirname "$0")/.." && pwd)
spec="$root/BENCHMARK.json"
workloads=$(jq -r '.workloads[].name' "$spec")
pairs=10
seconds=$(jq -r '.run_seconds' "$spec")
seed=1
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	-workload) workloads=$2 ;;
	-pairs) pairs=$2 ;;
	-seconds) seconds=$2 ;;
	-seed) seed=$2 ;;
	*) usage ;;
	esac
	shift 2
done

tmp=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$tmp/parent" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git -C "$root" worktree add --detach --quiet "$tmp/parent" "$rev"
(cd "$tmp/parent" && go build -o "$tmp/parent.bin" ./benchmark)
(cd "$root" && go build -o "$tmp/change.bin" ./benchmark)
mkdir "$tmp/run"
: >"$tmp/parent.jsonl"
: >"$tmp/change.jsonl"

echo "pair.sh: $rev (parent, A) against the working tree (change, B): $pairs pair(s) of ${seconds}s from seed $seed"
i=0
while [ "$i" -lt "$pairs" ]; do
	order="parent change"
	[ $((i % 2)) -eq 0 ] || order="change parent"
	for w in $workloads; do
		for side in $order; do
			# A run whose jobs failed exits 1 after writing its history
			# line; one that writes none is what stops the script.
			lines=$(wc -l <"$tmp/$side.jsonl")
			(cd "$tmp/run" && "$tmp/$side.bin" -workload "$w" -seed $((seed + i)) \
				-seconds "$seconds" -out "$tmp/$side.jsonl") >"$tmp/out" 2>&1 || true
			if [ "$(wc -l <"$tmp/$side.jsonl")" -ne $((lines + 1)) ]; then
				cat "$tmp/out" >&2
				echo "pair.sh: $side run of $w at seed $((seed + i)) wrote no history line" >&2
				exit 1
			fi
		done
	done
	i=$((i + 1))
done

status=0
"$tmp/change.bin" -compare "$tmp/parent.jsonl" "$tmp/change.jsonl" || status=1
# Runs of one workload lie in pair order in both files, so the i-th of each
# is pair i.
jq -n -r --slurpfile a "$tmp/parent.jsonl" --slurpfile b "$tmp/change.jsonl" --slurpfile spec "$spec" '
	def share: ([.[].failed] | add) / ([([.[].attempted] | add), 1] | max);
	def incorrect: map(select(.failed > 0 or .leaked_goroutines > 0)) | length;
	$spec[0].workloads[].name as $w
	| ($a | map(select(.workload == $w))) as $pa
	| ($b | map(select(.workload == $w))) as $pb
	| select($pa | length > 0)
	| (($spec[0].end_to_end[] as $m
		| (if $m.better == "lower" then 1 else -1 end) as $dir
		| [range($pa | length) | select(($pa[.].metrics[$m.name] - $pb[.].metrics[$m.name]) * $dir > 0)]
		| "\($w) \($m.name): B better in \(length)/\($pa | length) pairs"),
	   "\($w) failed share A \($pa | share) B \($pb | share), runs not correct A \($pa | incorrect) B \($pb | incorrect)"
		+ (if ($pb | share) > ($pa | share) or ($pb | incorrect) > ($pa | incorrect) then ": WORSE" else "" end))
' | tee "$tmp/signs"
if grep -q 'WORSE$' "$tmp/signs"; then
	status=1
fi
exit $status
