#!/bin/sh
# The repo's verification gate: build everything, vet everything, check
# formatting, and run the full test suite under the race detector. The
# engine runs real goroutines (core executor, httpapi worker pool), so
# -race is part of the gate, not an optional extra.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...

# The formatting gate: gofmt must have nothing to say about any Go file in
# the repository. .bench_build/ holds the benchmark's build cache and
# module downloads, which are not ours to format.
unformatted="$(find . -path ./.bench_build -prune -o -name '*.go' -exec gofmt -l {} +)"
if [ -n "$unformatted" ]; then
    echo "verify: gofmt -l lists files that need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go test -race ./...

# The benchmark's build gate: prodbench is a nested module, so the root
# ./... above never compiles it, and a change to the exported shapes of
# runner or dispatch could pass everything else and still break it.
(cd prodbench && go vet . && go test -race -count=1 .)

# Replay the checked-in fuzz seed corpora (no fuzzing engine, just the
# corpus as regular tests) and enforce the coverage floors on the
# measurement pipeline.
go test -run 'Fuzz' ./internal/flags ./internal/runner ./internal/faultinject ./internal/checkpoint ./internal/dispatch ./internal/evald ./internal/transfer
./scripts/cover.sh

# The shared flag registry is built by whichever goroutine calls
# flags.NewRegistry first; concurrent first calls must get one instance.
go test -race -count=10 -run 'TestNewRegistryConcurrentFirstCall' ./internal/flags/firstcall

# Sessions share the process's one flag tree, which is read-only after
# its build: concurrent sessions must read it without a race.
go test -race -count=10 -run 'TestConcurrentSessionsShareTree' ./internal/core

# The durability gate: kill-and-resume drills for every searcher, the CLI,
# and the job farm must converge to byte-identical results.
make crash-matrix

# The overload gate: bursts shed with 429 + Retry-After while control
# requests keep answering, hedging and quarantine stay deterministic, and
# budget-killed runs degrade to best-so-far instead of failing.
make overload-drill

# The distributed gate: fixed-seed sessions against real evald sockets —
# including one where a node is SIGKILLed mid-session — stay byte-identical
# to the in-process run, and fleet death degrades instead of failing.
make dist-drill

# The transfer gate: warm starts reach the cold best at half the trials,
# torn stores salvage instead of failing, bogus stores degrade to cold
# starts, and warm-started fleet sessions match in-process byte for byte.
make transfer-drill

# The drift gate: a scheduled workload shift opens a recovery epoch that
# beats the stale winner on the post-shift profile, stationary sessions
# never false-positive, mid-epoch kills resume byte-identical, and polls
# surface the per-epoch breakdown and degraded-reason strings.
make drift-drill

# The perf gate (opt-in, BENCH_CHECK=1): rerun the benchmark suite and fail
# on >10% regression against the latest recorded BENCH_*.json, which must
# have been recorded on this host (benchdiff refuses a point from another
# host or from none, naming both). Off by default so tier-1 stays fast and
# deterministic on noisy machines.
if [ "${BENCH_CHECK:-0}" = "1" ]; then
    ./scripts/bench.sh -check
fi
