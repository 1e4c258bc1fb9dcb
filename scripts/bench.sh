#!/usr/bin/env bash
# bench.sh — run the Fig 11 / offline-build benchmarks and write a
# machine-readable snapshot so the repo keeps a perf trajectory across PRs.
#
# Usage:
#   scripts/bench.sh                 # full run, writes BENCH_PR10.json
#   scripts/bench.sh -smoke          # 1-iteration smoke (CI: bench code must compile and run)
#   BENCH_OUT=perf.json scripts/bench.sh
#   QUERY_SIZES=1000 scripts/bench.sh     # shrink the query-pruning leg
#   FLEET_DOCS=0 scripts/bench.sh         # skip the fleet-overhead leg
#   LOADGEN_DOCS=0 scripts/bench.sh       # skip the open-loop loadgen leg
#
# The JSON output maps benchmark name -> {ns_per_op, bytes_per_op, allocs_per_op}
# plus a "meta" block (go version, GOMAXPROCS, benchtime, count) and a
# "query" block from cmd/querybench: exhaustive vs max-score-pruned ns/op and
# postings scanned per query at each corpus size (QUERY_SIZES=0 skips) —
# the full run includes the 1M-unit size, so the snapshot tracks pruning
# at serving scale. The full run enforces -require-speedup: the pruned
# path must be faster and scan >= 2x fewer postings at the largest size,
# or the run fails. A "fleet" block (FLEET_DOCS docs at FLEET_SHARDS
# shards, FLEET_DOCS=0 skips) records the serving-topology tax: the same
# query answered by the unsharded matcher, the in-process shard group,
# and the networked fleet coordinator over the in-process transport.
# A "loadgen" block (LOADGEN_DOCS docs, LOADGEN_DOCS=0 skips) records
# open-loop latency quantiles — P50/P99/P999 under a fixed arrival
# schedule, immune to coordinated omission — against three live
# topologies: one unsharded process ("single"), one process with an
# in-process shard group ("group"), and a networked fleet of four shard
# servers behind a coordinator ("fleet"). The leg also runs a
# cached-vs-uncached pair ("uncached"/"cached": the same server with
# and without -cache-entries, same Zipf(1.1) schedule, no adds) and
# gates on it: the cached run must report a result-cache hit rate
# >= 50% and a P99 no worse than the uncached run (a 10% allowance
# absorbs scheduling jitter), or the run fails.
#
# The Fig11cRetrievalIntent / Fig11cRetrievalIntentObserved pair tracks
# the observability tax on the query hot path (obs disabled vs enabled);
# the pair must stay within a few percent of each other. The
# ConcurrentServe family (unsharded / read-only / sharded at 1-8 shards)
# tracks the serving path's mixed-load profile across topologies; see
# EXPERIMENTS.md for how to read it on single- vs multi-core hosts.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${BENCH_OUT:-BENCH_PR10.json}"
QUERY_SIZES="${QUERY_SIZES:-1000,10000,100000,1000000}"
QUERY_RUNS="${QUERY_RUNS:-64}"
FLEET_DOCS="${FLEET_DOCS:-10000}"
FLEET_SHARDS="${FLEET_SHARDS:-4}"
LOADGEN_DOCS="${LOADGEN_DOCS:-2000}"
LOADGEN_RATE="${LOADGEN_RATE:-100}"
LOADGEN_DURATION="${LOADGEN_DURATION:-5s}"
LOADGEN_PORT="${LOADGEN_PORT:-18200}"
PATTERN='BenchmarkFig11aSegmentation|BenchmarkFig11bClustering|BenchmarkFig11cRetrievalIntent$|BenchmarkFig11cRetrievalIntentObserved|BenchmarkMRBuild|BenchmarkPipelineBuild1k|BenchmarkConcurrentServe$|BenchmarkConcurrentServeReadOnly|BenchmarkConcurrentServeSharded|BenchmarkConcurrentServeShardedWriteHeavy'
BENCHTIME="${BENCH_TIME:-2s}"
COUNT="${BENCH_COUNT:-3}"
# Benchmark names carry a -GOMAXPROCS suffix only when GOMAXPROCS != 1;
# the reducer must know the value to strip it without truncating
# sub-benchmark names like ConcurrentServeSharded/shards-4.
GOMP="${GOMAXPROCS:-$(nproc)}"

if [[ "${1:-}" == "-smoke" ]]; then
    # CI smoke: one iteration of the acceptance benchmarks plus a 1k-doc
    # querybench pass (pruned vs exhaustive must both run; the speedup
    # gate only applies at full scale, so it is not set here). Snapshot
    # write and load are measured by `go run ./bench` (core.snapshot_*).
    go test -run '^$' -bench 'BenchmarkFig11bClustering|BenchmarkFig11cRetrievalIntentObserved|BenchmarkPipelineBuild1k' -benchtime 1x .
    # The index-layer benchmarks a scan change is judged by (the 100k-unit
    # pruned-vs-exhaustive leg included) must keep compiling and running.
    go test -run '^$' -bench 'QueryReadOnly|QueryPrunedVsExhaustive' -benchtime 1x ./internal/index
    go run ./cmd/querybench -sizes 1000 -runs 16 -fleet-docs 300 -out /dev/null
    # Loadgen smoke: a 2-second open-loop run against a tiny live server
    # gates the full run's loadgen leg (loadgen must boot, find the
    # collection size via /stats, fire, and report sane quantiles).
    SMOKE_DIR="$(mktemp -d)"
    trap 'kill "${SMOKE_SRV:-}" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
    go build -o "$SMOKE_DIR/serve" ./cmd/serve
    go build -o "$SMOKE_DIR/loadgen" ./cmd/loadgen
    "$SMOKE_DIR/serve" -addr "127.0.0.1:$LOADGEN_PORT" -domain tech -n 200 -seed 42 2>/dev/null &
    SMOKE_SRV=$!
    for i in $(seq 1 50); do
        curl -sf "http://127.0.0.1:$LOADGEN_PORT/healthz" >/dev/null 2>&1 && break
        sleep 0.3
    done
    "$SMOKE_DIR/loadgen" -target "http://127.0.0.1:$LOADGEN_PORT" -rate 50 -duration 2s -name smoke |
        python3 -c 'import json,sys; r=json.load(sys.stdin); assert r["ok"] > 0 and r["p50_ns"] > 0 and r["p999_ns"] >= r["p99_ns"] >= r["p50_ns"], r'
    echo "loadgen smoke ok" >&2
    # Cached-serving gate: the same corpus behind -cache-entries under
    # the Zipf(1.1) schedule must turn repeat traffic into cache hits —
    # hit rate >= 50%, zero sheds (admission is off), and the report's
    # cache block present. This is the CI teeth for the hygiene layer.
    kill "$SMOKE_SRV" 2>/dev/null || true; wait "$SMOKE_SRV" 2>/dev/null || true
    "$SMOKE_DIR/serve" -addr "127.0.0.1:$LOADGEN_PORT" -domain tech -n 200 -seed 42 \
        -cache-entries 1024 2>/dev/null &
    SMOKE_SRV=$!
    for i in $(seq 1 50); do
        curl -sf "http://127.0.0.1:$LOADGEN_PORT/healthz" >/dev/null 2>&1 && break
        sleep 0.3
    done
    "$SMOKE_DIR/loadgen" -target "http://127.0.0.1:$LOADGEN_PORT" -rate 200 -duration 2s -name cached-smoke |
        python3 -c '
import json, sys
r = json.load(sys.stdin)
assert r["ok"] > 0 and r["shed"] == 0, r
assert r.get("cache"), "cached server reported no cache block: %s" % r
assert r["cache"]["hit_rate"] >= 0.5, "Zipf(1.1) hit rate %.3f < 0.5" % r["cache"]["hit_rate"]
'
    echo "cached loadgen smoke ok (hit rate >= 50%)" >&2
    exit 0
fi

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "running: go test -bench '$PATTERN' -benchmem -benchtime $BENCHTIME -count $COUNT ." >&2
go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$RAW" >&2

# Reduce repeated -count runs to the median ns/op (allocs are deterministic).
go_version="$(go version | awk '{print $3}')"
awk -v out="$OUT" -v gover="$go_version" -v benchtime="$BENCHTIME" -v count="$COUNT" -v gomp="$GOMP" '
/^Benchmark/ {
    name = $1
    if (gomp != 1) sub("-" gomp "$", "", name)   # strip the -GOMAXPROCS suffix (absent when GOMAXPROCS=1)
    ns[name] = ns[name] " " $3
    bytes[name] = $5
    allocs[name] = $7
    if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
function median(list,   m, arr, i, j, tmp) {
    m = split(list, arr, " ")
    for (i = 2; i <= m; i++)
        for (j = i; j > 1 && arr[j-1] + 0 > arr[j] + 0; j--) {
            tmp = arr[j]; arr[j] = arr[j-1]; arr[j-1] = tmp
        }
    return arr[int((m + 1) / 2)]
}
END {
    printf "{\n  \"meta\": {\"go\": \"%s\", \"benchtime\": \"%s\", \"count\": %s},\n", gover, benchtime, count > out
    printf "  \"benchmarks\": {\n" > out
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
            name, median(ns[name]), bytes[name], allocs[name], (i < n ? "," : "") > out
    }
    printf "  }\n}\n" > out
}' "$RAW"

# Query-pruning leg: exhaustive vs max-score ns/op and postings scanned
# across corpus sizes, merged into the snapshot. -require-speedup makes
# this the acceptance gate: a pruning regression fails the whole run.
if [[ "$QUERY_SIZES" != 0 ]]; then
    QB="$(mktemp)"
    trap 'rm -f "$RAW" "$QB"' EXIT
    echo "running: go run ./cmd/querybench -sizes $QUERY_SIZES -runs $QUERY_RUNS -fleet-docs $FLEET_DOCS -fleet-shards $FLEET_SHARDS -require-speedup" >&2
    go run ./cmd/querybench -sizes "$QUERY_SIZES" -runs "$QUERY_RUNS" \
        -fleet-docs "$FLEET_DOCS" -fleet-shards "$FLEET_SHARDS" -require-speedup -out "$QB"
    python3 - "$OUT" "$QB" <<'EOF'
import json, sys
out_path, qb_path = sys.argv[1], sys.argv[2]
snap = json.load(open(out_path))
qb = json.load(open(qb_path))
snap["query"] = qb["query"]
if "fleet" in qb:
    snap["fleet"] = qb["fleet"]
with open(out_path, "w") as f:
    json.dump(snap, f, indent=2)
    f.write("\n")
EOF
fi

# Open-loop loadgen leg: the same corpus served as three live
# topologies, each driven at a fixed arrival rate; the block records
# P50/P99/P999 and achieved throughput per topology. Single and group
# run the full Related/Add mix; the fleet coordinator is read-only, so
# its run keeps add-frac 0.
if [[ "$LOADGEN_DOCS" != 0 ]]; then
    LG="$(mktemp -d)"
    LG_PIDS=()
    trap 'kill "${LG_PIDS[@]}" 2>/dev/null || true; rm -f "$RAW" "${QB:-}"; rm -rf "${LG:-}"' EXIT
    echo "building serve + loadgen for the open-loop leg" >&2
    go build -o "$LG/serve" ./cmd/serve
    go build -o "$LG/loadgen" ./cmd/loadgen
    go build -o "$LG/gencorpus" ./cmd/gencorpus
    go build -o "$LG/intentmatch" ./cmd/intentmatch
    "$LG/gencorpus" -domain tech -n "$LOADGEN_DOCS" -seed 42 >"$LG/corpus.jsonl"

    lg_wait() { # lg_wait <port>
        for i in $(seq 1 150); do
            curl -sf "http://127.0.0.1:$1/healthz" >/dev/null 2>&1 && return 0
            sleep 0.3
        done
        echo "loadgen leg: server on port $1 never became healthy" >&2
        return 1
    }
    lg_kill() {
        kill "${LG_PIDS[@]}" 2>/dev/null || true
        wait "${LG_PIDS[@]}" 2>/dev/null || true
        LG_PIDS=()
    }

    # Single unsharded process.
    echo "loadgen: single ($LOADGEN_DOCS docs, $LOADGEN_RATE rps, $LOADGEN_DURATION)" >&2
    "$LG/serve" -addr "127.0.0.1:$LOADGEN_PORT" -corpus "$LG/corpus.jsonl" -seed 42 \
        -trace-rate 0 -trace-slow=-1ms 2>/dev/null &
    LG_PIDS+=($!)
    lg_wait "$LOADGEN_PORT"
    "$LG/loadgen" -target "http://127.0.0.1:$LOADGEN_PORT" -rate "$LOADGEN_RATE" \
        -duration "$LOADGEN_DURATION" -add-frac 0.02 -name single -out "$LG/single.json" >/dev/null
    # Cached-vs-uncached pair on the same process shape: identical
    # Zipf(1.1) schedules (same seed, no adds), with and without the
    # result cache. The python merge below gates on the pair.
    "$LG/loadgen" -target "http://127.0.0.1:$LOADGEN_PORT" -rate "$LOADGEN_RATE" \
        -duration "$LOADGEN_DURATION" -name uncached -out "$LG/uncached.json" >/dev/null
    lg_kill
    echo "loadgen: cached (-cache-entries 4096, same schedule)" >&2
    "$LG/serve" -addr "127.0.0.1:$LOADGEN_PORT" -corpus "$LG/corpus.jsonl" -seed 42 \
        -cache-entries 4096 -trace-rate 0 -trace-slow=-1ms 2>/dev/null &
    LG_PIDS+=($!)
    lg_wait "$LOADGEN_PORT"
    "$LG/loadgen" -target "http://127.0.0.1:$LOADGEN_PORT" -rate "$LOADGEN_RATE" \
        -duration "$LOADGEN_DURATION" -name cached -out "$LG/cached.json" >/dev/null
    lg_kill

    # One process, in-process shard group.
    echo "loadgen: group (-shards $FLEET_SHARDS)" >&2
    "$LG/serve" -addr "127.0.0.1:$LOADGEN_PORT" -corpus "$LG/corpus.jsonl" -seed 42 \
        -shards "$FLEET_SHARDS" -trace-rate 0 -trace-slow=-1ms 2>/dev/null &
    LG_PIDS+=($!)
    lg_wait "$LOADGEN_PORT"
    "$LG/loadgen" -target "http://127.0.0.1:$LOADGEN_PORT" -rate "$LOADGEN_RATE" \
        -duration "$LOADGEN_DURATION" -add-frac 0.02 -name group -out "$LG/group.json" >/dev/null
    lg_kill

    # Networked fleet: shard servers + coordinator, separate processes.
    echo "loadgen: fleet ($FLEET_SHARDS shard servers + coordinator)" >&2
    "$LG/intentmatch" -corpus "$LG/corpus.jsonl" -seed 42 -save-shards "$FLEET_SHARDS" -save "$LG/sharddir" >/dev/null
    printf '{"endpoints":[' >"$LG/topology.json"
    for ((s = 0; s < FLEET_SHARDS; s++)); do
        "$LG/serve" -addr "127.0.0.1:$((LOADGEN_PORT + 1 + s))" -shard-role shard \
            -load "$LG/sharddir" -own "$s" -trace-rate 0 -trace-slow=-1ms 2>/dev/null &
        LG_PIDS+=($!)
        [[ "$s" != 0 ]] && printf ',' >>"$LG/topology.json"
        printf '{"shard":%d,"primary":"http://127.0.0.1:%d"}' "$s" "$((LOADGEN_PORT + 1 + s))" >>"$LG/topology.json"
    done
    printf ']}\n' >>"$LG/topology.json"
    "$LG/serve" -addr "127.0.0.1:$LOADGEN_PORT" -shard-role coordinator -fleet "$LG/topology.json" \
        -trace-rate 0 -trace-slow=-1ms 2>/dev/null &
    LG_PIDS+=($!)
    lg_wait "$LOADGEN_PORT"
    "$LG/loadgen" -target "http://127.0.0.1:$LOADGEN_PORT" -rate "$LOADGEN_RATE" \
        -duration "$LOADGEN_DURATION" -name fleet -out "$LG/fleet.json" >/dev/null
    lg_kill

    python3 - "$OUT" "$LG/single.json" "$LG/group.json" "$LG/fleet.json" "$LG/uncached.json" "$LG/cached.json" <<'EOF'
import json, sys
out_path = sys.argv[1]
snap = json.load(open(out_path))
snap["loadgen"] = {}
for path in sys.argv[2:]:
    rep = json.load(open(path))
    snap["loadgen"][rep["name"]] = rep
with open(out_path, "w") as f:
    json.dump(snap, f, indent=2)
    f.write("\n")

# Acceptance gate on the cached-vs-uncached pair: the cache must turn
# the Zipf(1.1) repeat traffic into a >= 50% hit rate without hurting
# tail latency (10% P99 allowance for scheduling jitter).
cached, uncached = snap["loadgen"]["cached"], snap["loadgen"]["uncached"]
assert cached.get("cache"), "cached run reported no cache block: %s" % cached
hit_rate = cached["cache"]["hit_rate"]
assert hit_rate >= 0.5, "cached hit rate %.3f < 0.5 under Zipf(1.1)" % hit_rate
assert cached["p99_ns"] <= uncached["p99_ns"] * 1.10, (
    "cached P99 %.2fms worse than uncached %.2fms"
    % (cached["p99_ns"] / 1e6, uncached["p99_ns"] / 1e6))
print("cached-vs-uncached gate: hit rate %.1f%%, P99 %.2fms vs %.2fms uncached"
      % (hit_rate * 100, cached["p99_ns"] / 1e6, uncached["p99_ns"] / 1e6),
      file=sys.stderr)
EOF
fi

echo "wrote $OUT" >&2
cat "$OUT"
