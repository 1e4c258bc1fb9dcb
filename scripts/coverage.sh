#!/usr/bin/env bash
# coverage.sh — run the test suite with coverage and enforce a floor.
#
# Usage:
#   scripts/coverage.sh                  # gate at the default floor
#   COVER_MIN=90.0 scripts/coverage.sh   # custom floor
#   COVER_OUT=cov.out scripts/coverage.sh
#
# The gate measures the library surface (./internal/...) — cmd/ is
# thin mains around it, tested on their own, and would only dilute the
# number.
# Coverage is counted where the code lives: -coverpkg credits a
# statement to its own package whichever package's tests ran it, so
# code exercised only through its callers (the index through the
# matcher, the matcher through the shard group and the server) counts.
# The total read 95.9% when the gate switched to -coverpkg (94.5% with
# each package credited only by its own tests); the floor sits just
# under it, so a change that lands meaningfully under-tested code fails
# CI.

set -euo pipefail
cd "$(dirname "$0")/.."

MIN="${COVER_MIN:-95.5}"
OUT="${COVER_OUT:-coverage.out}"

go test -count=1 -coverpkg=./internal/... -coverprofile="$OUT" ./internal/...

total="$(go tool cover -func="$OUT" | awk '/^total:/ {sub(/%/, "", $3); print $3}')"
echo "total coverage: ${total}% (floor ${MIN}%)" >&2

awk -v total="$total" -v min="$MIN" 'BEGIN { exit (total + 0 < min + 0) ? 1 : 0 }' || {
    echo "FAIL: coverage ${total}% is below the ${MIN}% floor" >&2
    exit 1
}
echo "coverage gate passed" >&2
