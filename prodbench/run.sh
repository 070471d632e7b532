#!/usr/bin/env bash
# Builds the production-shaped tuning benchmark from the checkout it sits in
# and runs it. Run from the checkout root; arguments pass through:
#
#   bash prodbench/run.sh --workload inproc-search --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temp files, the
# binary, session fixtures) stays under .bench_build/ in the checkout root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/prodbench" .)
exec "$out/prodbench" "$@"
