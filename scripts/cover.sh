#!/bin/sh
# Coverage floors for the measurement pipeline, the durability layer, and
# the overload controls: the retry/fault-injection machinery, the
# checkpoint/journal code, the admission/hedging/quarantine paths, and the
# farm API are exactly the code whose edge cases only show up on a bad
# day, so their packages must stay well covered. The flag layer and the
# flag tree decide what every proposal may touch and how it is read.
# Fails if any listed package drops below the floor.
set -eu

cd "$(dirname "$0")/.."

FLOOR=80

# Per-package overrides for code held to a higher bar: the drift detector
# is a tiny pure fold whose every branch is reachable from tests, and a
# miss there silently re-tunes (or fails to) whole sessions; the transfer
# store's codec and recovery paths decide what every warm start reads.
floor_for() {
    case "$1" in
        ./internal/drift) echo 85 ;;
        ./internal/transfer) echo 83 ;;
        *) echo "$FLOOR" ;;
    esac
}

status=0
for pkg in ./internal/runner ./internal/faultinject ./internal/telemetry \
           ./internal/checkpoint ./internal/persist ./internal/core \
           ./internal/httpapi ./internal/flags ./internal/hierarchy \
           ./internal/jvmsim ./internal/dispatch ./internal/evald \
           ./internal/transfer ./internal/drift; do
    line=$(go test -cover "$pkg" | tail -1)
    echo "$line"
    pct=$(echo "$line" | grep -o 'coverage: [0-9.]*' | grep -o '[0-9.]*')
    floor=$(floor_for "$pkg")
    if [ -z "$pct" ]; then
        echo "cover: no coverage figure for $pkg" >&2
        status=1
        continue
    fi
    below=$(awk -v p="$pct" -v f="$floor" 'BEGIN { print (p < f) ? 1 : 0 }')
    if [ "$below" = 1 ]; then
        echo "cover: $pkg at ${pct}% is below the ${floor}% floor" >&2
        status=1
    fi
done
exit $status
