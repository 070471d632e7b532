#!/usr/bin/env bash
# Paired benchmark runs of two revisions: builds prodbench at each
# revision and runs the two builds in alternating pairs on one workload.
#
#   scripts/ab.sh <rev-a> <rev-b> <workload> <pairs> [seconds] [seed]
#
# Each revision is checked out in a detached git worktree under
# .bench_build/ab/<commit> and built there with prodbench/run.sh's
# offline environment (local toolchain, no module proxy, every cache under
# .bench_build/ab). Pair i runs rev-a first when i is odd and rev-b first
# when it is even, so a drift of the host over the sitting falls on both
# sides alike; pairs appended to a file that holds some already are
# numbered after them. Each run's last line, prodbench's result object, is
# appended to .bench_build/ab/<workload>-seed<seed>.jsonl (or $AB_OUT) as
#
#   {"pair": i, "side": "a"|"b", "rev": "<commit>", "workload": ..., "seed": ..., "result": {...}}
#
# and `go run ./cmd/benchdiff pairs <file>` turns the file into the
# per-metric table docs/PERFORMANCE.md uses. Both revisions must hold the
# same prodbench/ code: a difference there would be measured as a
# difference of the program. seconds defaults to 25 (BENCHMARK.json's
# run_seconds) and seed to 1.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 6 ]; then
	sed -n '2,4p' "$0" >&2
	exit 2
fi
rev_a=$1 rev_b=$2 workload=$3 pairs=$4 seconds=${5:-25} seed=${6:-1}

root="$(git rev-parse --show-toplevel)"
cd "$root"
sha_a="$(git rev-parse --verify "$rev_a^{commit}")"
sha_b="$(git rev-parse --verify "$rev_b^{commit}")"
if ! git diff --quiet "$sha_a" "$sha_b" -- prodbench; then
	echo "ab.sh: prodbench/ differs between $rev_a and $rev_b; both sides must run the same benchmark code" >&2
	exit 2
fi

ab="$root/.bench_build/ab"
mkdir -p "$ab/gocache" "$ab/gopath" "$ab/tmp" "$ab/config"
export GOCACHE="$ab/gocache" GOPATH="$ab/gopath" GOTMPDIR="$ab/tmp" TMPDIR="$ab/tmp" \
	XDG_CONFIG_HOME="$ab/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
out="${AB_OUT:-$ab/$workload-seed$seed.jsonl}"

# checkout <commit>: a worktree of the commit with prodbench built in it.
checkout() {
	local dir="$ab/$1"
	if [ ! -e "$dir/.git" ]; then
		git worktree add --detach "$dir" "$1" >/dev/null
	fi
	(cd "$dir/prodbench" && go build -o "$dir/.bench_build/prodbench" .)
	echo "$dir"
}
dir_a="$(checkout "$sha_a")"
dir_b="$(checkout "$sha_b")"

# run <side> <commit> <dir> <pair>: one run from the worktree's root, as
# run.sh runs it from a checkout's root.
run() {
	local line
	line="$(cd "$3" && ./.bench_build/prodbench --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0 | tail -n 1)"
	printf '{"pair":%d,"side":"%s","rev":"%s","workload":"%s","seed":%d,"result":%s}\n' \
		"$4" "$1" "$2" "$workload" "$seed" "$line" >>"$out"
	echo "ab.sh: pair $4 side $1 done" >&2
}

# Pairs already in the file keep their numbers; these runs follow them.
first=1
if [ -s "$out" ]; then
	first=$(($(wc -l <"$out") / 2 + 1))
fi
for ((i = first; i < first + pairs; i++)); do
	if ((i % 2 == 1)); then
		run a "$sha_a" "$dir_a" "$i"
		run b "$sha_b" "$dir_b" "$i"
	else
		run b "$sha_b" "$dir_b" "$i"
		run a "$sha_a" "$dir_a" "$i"
	fi
done
echo "ab.sh: appended $((2 * pairs)) runs to $out" >&2
