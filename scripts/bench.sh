#!/bin/sh
# The repo's benchmark harness. Runs the hot-path benchmark suite — the flag
# layer, the simulator batch entry points, and the 16-worker session
# throughput headline — and persists the result as a BENCH_<n>.json
# trajectory point via cmd/benchdiff.
#
#   scripts/bench.sh            record the next BENCH_<n>.json
#   scripts/bench.sh -check     run fresh, compare against the latest
#                               recorded point, exit 1 on >10% regression
#                               or when that point is from another host
#
# `make bench` routes here; it used to invoke `go test -bench=. -benchmem`
# bare, which re-ran every unit test and threw the numbers away.
set -eu

cd "$(dirname "$0")/.."

MODE="record"
if [ "${1:-}" = "-check" ]; then
	MODE="check"
fi

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

# -run '^$' keeps unit tests out of the run; -benchtime is bounded so the
# whole suite stays in CI territory (a few minutes). Every benchmark runs
# $COUNT times and benchdiff records each metric's median, so one slow or
# fast sample cannot pass or fail the 10% gate on its own. The -bench
# selector names hot-path benchmarks only — one-shot constructors
# (BenchmarkBuildTree) are too noisy for a 10% regression gate and are not
# what the trajectory tracks.
COUNT=5
{
	# ExplicitArgs and ParseArgsIntoRecycled price a hierarchical
	# proposal (~350 explicit flags, shipped as its canonical form of
	# about ten args): the per-trial render on the controller and the
	# per-trial parse on an evald node. Crossover breeds one such
	# proposal, and ActiveFlags lists a branch's flags.
	go test -run '^$' -count $COUNT \
		-bench '^Benchmark(Config|CommandLine|ExplicitArgs|ParseArgs|MutateFlag|Crossover|SampleValue|Diff|Simulator|ActiveFlags)' \
		-benchmem -benchtime 1s \
		./internal/flags ./internal/jvmsim ./internal/hierarchy
	go test -run '^$' -count $COUNT -bench 'BenchmarkSessionThroughput16' -benchtime 5s \
		./internal/core
	# The dispatch pair: the same fresh trial in-process and over loopback
	# HTTP to a real evald handler. Their delta is the per-trial cost of
	# the distributed plane's transport. Batch16Proposal prices it at the
	# width a session ships; DecodeBatchRequest16 decodes that width and
	# the ~350-arg one older builds sent.
	go test -run '^$' -count $COUNT -bench '^Benchmark(Dispatch|DecodeBatchRequest)' -benchmem -benchtime 1s \
		./internal/dispatch
	# The transfer set: fingerprinting a workload, querying a populated
	# knowledge base, and — at the durable-warm benchmark's count of 1000
	# entries, ~86 args each — opening the store and repairing its priors;
	# all on every warm-started session's startup path.
	go test -run '^$' -count $COUNT -bench '^Benchmark(Fingerprint|StoreLookup|StoreOpen|Priors)$' -benchmem -benchtime 1s \
		./internal/transfer
	# The drift pair: the detector's per-observation fold (paid on every
	# delivered measurement of a drift-armed session) and the full re-tune
	# path — detection, demotion, searcher rebuild, recovery search.
	go test -run '^$' -count $COUNT -bench '^BenchmarkDriftDetector$' -benchmem -benchtime 1s \
		./internal/drift
	go test -run '^$' -count $COUNT -bench '^BenchmarkEpochRetune$' -benchtime 1x \
		./internal/core
	# The durability cost of a checkpointing session at the paper budget:
	# time, bytes and writes per session at every trial and every 8.
	go test -run '^$' -count $COUNT -bench '^BenchmarkSessionCheckpoint$' -benchtime 20x \
		./hotspot
} | tee /dev/stderr >"$OUT"

latest="$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)"

if [ "$MODE" = "check" ]; then
	if [ -z "$latest" ]; then
		echo "bench.sh: no recorded BENCH_*.json to compare against" >&2
		exit 1
	fi
	fresh="$(mktemp)"
	trap 'rm -f "$OUT" "$fresh"' EXIT
	go run ./cmd/benchdiff fmt -o "$fresh" <"$OUT"
	go run ./cmd/benchdiff check "$latest" "$fresh"
	exit 0
fi

if [ -z "$latest" ]; then
	n=1
else
	n=$(( $(basename "$latest" .json | cut -d_ -f2) + 1 ))
fi
go run ./cmd/benchdiff fmt -o "BENCH_${n}.json" \
	-note "${BENCH_NOTE:-recorded by scripts/bench.sh}" <"$OUT"
echo "bench.sh: wrote BENCH_${n}.json"
