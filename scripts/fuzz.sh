#!/usr/bin/env bash
# fuzz.sh — run every native fuzz target for a bounded time.
#
# Usage:
#   scripts/fuzz.sh           # 10s per target (CI smoke)
#   scripts/fuzz.sh 5m        # longer local session
#
# Go runs one -fuzz pattern per package invocation, so the targets are
# listed with `go test -list`, read per package, and run sequentially:
# a new Fuzz function is picked up without editing this script. The
# checked-in seed corpora under testdata/fuzz/ always replay as part of
# plain `go test ./...`; this script does additional coverage-guided
# input generation on top.

set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${1:-10s}"

# `go test -list` prints a package's matching names, then its "ok" line.
listing=$(go test -list '^Fuzz' ./...)
mapfile -t TARGETS < <(awk '
    /^Fuzz/ { names[n++] = $1; next }
    /^ok/   { for (i = 0; i < n; i++) print $2, names[i]; n = 0 }' <<<"$listing")
if [ "${#TARGETS[@]}" -eq 0 ]; then
    echo "no fuzz targets found" >&2
    exit 1
fi

for entry in "${TARGETS[@]}"; do
    read -r pkg target <<<"$entry"
    echo "=== fuzz $pkg $target ($FUZZTIME)" >&2
    go test "$pkg" -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME"
done

echo "all $((${#TARGETS[@]})) fuzz targets passed ($FUZZTIME each)" >&2
