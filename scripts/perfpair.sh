#!/usr/bin/env bash
# Paired perfbench runs of two commits. Each commit is checked out into a
# git worktree under .bench_build/perfpair/ (removed again on exit) and
# runs BENCHMARK.json's command from its own checkout, so each side builds
# relmaxd and the benchmark from its own sources.
#
#   scripts/perfpair.sh [-n PAIRS] [-s SECONDS] [-S SEED] [-w WORKLOAD]... OLD NEW
#
# For every workload (BENCHMARK.json's, or each -w) it runs PAIRS pairs
# (default 10) in two sets: set 1 runs OLD then NEW in each pair, set 2 NEW
# then OLD, so a drift in the host's speed over a set cannot favour one
# side. Every run uses the same seed (default 1) and BENCHMARK.json's
# run_seconds unless -s is given. One untimed run per side first warms its
# build cache.
#
# It prints, per workload and set, each end-to-end metric's median and
# quartiles on both sides and how many pairs the change (NEW) won, by the
# metric's better direction in BENCHMARK.json, and the runs that were not
# correct or had failed operations. Every run's result line, tagged with
# its side, set and pair, is kept in .bench_build/perfpair/results.jsonl.
# Needs git, jq and awk.
set -euo pipefail

pairs=10 seconds= seed=1 workloads=()
usage() {
	echo "usage: $0 [-n pairs] [-s seconds] [-S seed] [-w workload]... OLD NEW" >&2
	exit 2
}
while getopts n:s:S:w: opt; do
	case $opt in
	n) pairs=$OPTARG ;;
	s) seconds=$OPTARG ;;
	S) seed=$OPTARG ;;
	w) workloads+=("$OPTARG") ;;
	*) usage ;;
	esac
done
shift $((OPTIND - 1))
[ $# -eq 2 ] || usage

root=$(git rev-parse --show-toplevel)
old=$(git -C "$root" rev-parse --verify "$1^{commit}")
new=$(git -C "$root" rev-parse --verify "$2^{commit}")
base="$root/.bench_build/perfpair"
mkdir -p "$base"

trees=()
cleanup() {
	for t in "${trees[@]}"; do
		git -C "$root" worktree remove --force "$t" >/dev/null 2>&1 || true
	done
	git -C "$root" worktree prune
}
trap cleanup EXIT
for side in old new; do
	rev=${!side}
	git -C "$root" worktree remove --force "$base/$side" >/dev/null 2>&1 || true
	git -C "$root" worktree add --detach --force "$base/$side" "$rev" >/dev/null
	trees+=("$base/$side")
done

spec="$base/new/BENCHMARK.json"
mapfile -t cmd < <(jq -r '.command[]' "$spec")
[ -n "$seconds" ] || seconds=$(jq -r '.run_seconds' "$spec")
[ ${#workloads[@]} -gt 0 ] || mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")

results="$base/results.jsonl"
: >"$results"

# run SIDE WORKLOAD SET PAIR appends the run's tagged result line.
run() {
	local line
	line=$(cd "$base/$1" && "${cmd[@]}" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 2>>"$base/$1.log" | tail -n 1)
	jq -c --arg side "$1" --arg w "$2" --argjson set "$3" --argjson pair "$4" \
		'{side: $side, workload: $w, set: $set, pair: $pair} + .' <<<"$line" >>"$results"
}

echo "old $old"
echo "new $new"
echo "host $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2 | sed 's/^ //'), nproc $(nproc)"
echo "$pairs pairs x 2 sets per workload, seed $seed, $seconds s"
for side in old new; do
	(cd "$base/$side" && "${cmd[@]}" --workload "${workloads[0]}" --seed "$seed" --seconds 1 --trace 0 >/dev/null 2>>"$base/$side.log")
done
for w in "${workloads[@]}"; do
	for set in 1 2; do
		for ((i = 1; i <= pairs; i++)); do
			if [ "$set" = 1 ]; then
				run old "$w" "$set" "$i"
				run new "$w" "$set" "$i"
			else
				run new "$w" "$set" "$i"
				run old "$w" "$set" "$i"
			fi
		done
	done
done

# quartiles reads numbers, one a line, and prints "median q1 q3" (the
# quartiles are the medians of the lower and upper halves).
quartiles() {
	sort -g | awk '
		function med(lo, hi,   n, m) { n = hi - lo + 1; m = lo + int((n - 1) / 2); return n % 2 ? v[m] : (v[m] + v[m + 1]) / 2 }
		{ v[NR] = $1 }
		END { h = int(NR / 2); printf "%.4g [%.4g, %.4g]", med(1, NR), med(1, h), med(NR - h + 1, NR) }'
}

for w in "${workloads[@]}"; do
	for set in 1 2; do
		echo
		echo "== $w, set $set ($([ "$set" = 1 ] && echo 'old first' || echo 'new first'))"
		printf '%-16s %-30s %-30s %s\n' metric old new "new won"
		while read -r m better; do
			sel='select(.workload == $w and .set == ($set | tonumber))'
			o=$(jq -r --arg w "$w" --arg set "$set" --arg m "$m" "$sel"' | select(.side == "old") | .metrics[$m].value' "$results" | quartiles)
			n=$(jq -r --arg w "$w" --arg set "$set" --arg m "$m" "$sel"' | select(.side == "new") | .metrics[$m].value' "$results" | quartiles)
			won=$(jq -rs --arg w "$w" --arg set "$set" --arg m "$m" --arg better "$better" '
				map(select(.workload == $w and .set == ($set | tonumber)))
				| group_by(.pair)
				| map((map(select(.side == "old"))[0].metrics[$m].value) as $o
					| (map(select(.side == "new"))[0].metrics[$m].value) as $n
					| if $better == "lower" then $n < $o else $n > $o end)
				| "\(map(select(.)) | length)/\(length)"' "$results")
			printf '%-16s %-30s %-30s %s\n' "$m" "$o" "$n" "$won"
		done < <(jq -r '.end_to_end[] | "\(.name) \(.better)"' "$spec")
		jq -r --arg w "$w" --arg set "$set" \
			'select(.workload == $w and .set == ($set | tonumber) and (.correct != true or .failed != 0))
			| "not clean: \(.side) pair \(.pair): correct=\(.correct) failed=\(.failed)"' "$results"
	done
done
