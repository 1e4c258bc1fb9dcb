#!/usr/bin/env bash
# fuzz.sh — run every native fuzz target for a bounded time.
#
# Usage:
#   scripts/fuzz.sh           # 10s per target (CI smoke)
#   scripts/fuzz.sh 5m        # longer local session
#
# Go runs one -fuzz pattern per package invocation, so targets are
# enumerated explicitly and run sequentially. The checked-in seed
# corpora under testdata/fuzz/ always replay as part of plain
# `go test ./...`; this script does additional coverage-guided input
# generation on top.

set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${1:-10s}"

declare -a TARGETS=(
    "./internal/textproc FuzzTokenize"
    "./internal/textproc FuzzSplitSentences"
    "./internal/textproc FuzzStripHTML"
    "./internal/textproc FuzzDecodeEntity"
    "./internal/textproc FuzzStem"
    "./internal/pos FuzzTagWords"
    "./internal/segment FuzzStrategies"
    "./internal/variant FuzzTile"
    "./internal/secfile FuzzDecode"
    "./internal/secfile FuzzParseStringTable"
    "./internal/index FuzzIndexLoad"
    "./internal/index FuzzValidateSnapshot"
    "./internal/index FuzzDict"
    "./internal/core FuzzReadPipeline"
    "./internal/serve FuzzDecodeRelated"
    "./internal/serve FuzzAddBody"
    "./internal/fleet FuzzProbeRequest"
    "./internal/fleet FuzzExplainRequest"
    "./internal/fleet FuzzProbeReply"
)

for entry in "${TARGETS[@]}"; do
    read -r pkg target <<<"$entry"
    echo "=== fuzz $pkg $target ($FUZZTIME)" >&2
    go test "$pkg" -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME"
done

echo "all $((${#TARGETS[@]})) fuzz targets passed ($FUZZTIME each)" >&2
