#!/usr/bin/env bash
# smoke.sh — end-to-end smoke test of the serving binary: build
# cmd/serve, start it on a synthetic corpus, curl every endpoint, and
# assert status codes and body shapes. CI runs this as its own job; it
# is also the quickest local sanity check after touching the serve
# layer:
#
#   scripts/smoke.sh            # ~15s: build + serve + 12 endpoint probes
#
# Checks JSON bodies with python3 (stdlib only), so the script needs no
# tooling beyond go, curl, and python3.

set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
BIN="$(mktemp -d)/serve"
LOG="$(mktemp)"

cleanup() {
    [[ -n "${SERVER_PID:-}" ]] && kill "$SERVER_PID" 2>/dev/null || true
    [[ -n "${FLEET_PIDS[*]:-}" ]] && kill "${FLEET_PIDS[@]}" 2>/dev/null || true
    rm -rf "$(dirname "$BIN")" "$LOG" "${REF_DIR:-}"
}
trap cleanup EXIT

echo "== build" >&2
go build -o "$BIN" ./cmd/serve

echo "== start (200 synthetic posts, trace everything)" >&2
"$BIN" -addr "127.0.0.1:$PORT" -domain tech -n 200 -seed 42 -trace-slow 0 2>"$LOG" &
SERVER_PID=$!

for i in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "server died during startup:" >&2; cat "$LOG" >&2; exit 1
    fi
    sleep 0.3
done
curl -sf "$BASE/healthz" >/dev/null || { echo "server never became healthy" >&2; cat "$LOG" >&2; exit 1; }

fail=0
check() { # check <name> <expected-status> <curl args...>
    local name="$1" want="$2"; shift 2
    local got
    got="$(curl -s -o /tmp/smoke_body -w '%{http_code}' "$@")"
    if [[ "$got" != "$want" ]]; then
        echo "FAIL $name: status $got, want $want" >&2
        head -c 400 /tmp/smoke_body >&2; echo >&2
        fail=1
    else
        echo "ok   $name" >&2
    fi
}
json() { # json <name> <python expr over parsed body `b`>
    local name="$1" expr="$2"
    if python3 -c "import json,sys; b=json.load(open('/tmp/smoke_body')); sys.exit(0 if ($expr) else 1)"; then
        echo "ok   $name" >&2
    else
        echo "FAIL $name: assertion '$expr' on:" >&2
        head -c 400 /tmp/smoke_body >&2; echo >&2
        fail=1
    fi
}

check "POST /related" 200 -X POST "$BASE/related" -d '{"doc_id": 3, "k": 5}'
json  "  results present" "b['doc_id'] == 3 and 1 <= len(b['results']) <= 5"
json  "  scores descending" "all(b['results'][i]['score'] >= b['results'][i+1]['score'] for i in range(len(b['results'])-1))"

check "POST /related explain" 200 -X POST "$BASE/related" -d '{"doc_id": 3, "k": 5, "explain": true}'
json  "  explain reconciles" "all(abs(sum(c['score'] for c in r['explain']) - r['score']) < 1e-9 for r in b['results'])"

# Reference /related bodies for the sharded equivalence leg below —
# captured before /add so both topologies answer over the same corpus.
REF_DIR="$(mktemp -d)"
for doc in 3 17 57; do
    curl -s -X POST "$BASE/related" -d "{\"doc_id\": $doc, \"k\": 5}" >"$REF_DIR/related_$doc.json"
done
curl -s -X POST "$BASE/related" -d '{"doc_id": 3, "k": 5, "explain": true}' >"$REF_DIR/explain_3.json"

# Errors are the typed envelope on every surface: stable kind, prose message.
check "POST /related 404" 404 -X POST "$BASE/related" -d '{"doc_id": 99999}'
json  "  typed unknown_doc error" "b['error']['kind'] == 'unknown_doc' and b['error']['message']"
check "POST /related 400" 400 -X POST "$BASE/related" -d '{"doc_id": 0, "k": 500}'
json  "  typed bad_request error" "b['error']['kind'] == 'bad_request' and b['error']['message']"

check "POST /add" 200 -X POST "$BASE/add" -d '{"text": "My printer shows a paper jam error after the firmware update. How do I clear it?"}'
json  "  new id past corpus" "b['doc_id'] >= 200"

check "GET /stats" 200 "$BASE/stats"
json  "  build phases" "b['num_docs'] >= 200 and b['num_clusters'] > 0 and 'segmentation' in b['phase_ns']"

check "GET /metrics (json)" 200 "$BASE/metrics"
json  "  counters served" "b['counters']['http.related.requests'] >= 4"
json  "  p999 on every histogram" "all('p999' in h for h in list(b['histograms'].values()) + list(b['spans'].values()))"
json  "  quantiles monotone" "all(h['p50'] <= h['p90'] <= h['p99'] <= h['p999'] <= h['max_bound'] for h in b['spans'].values() if h['count'] > 0)"
json  "  slo instruments" "'slo.related.latency' in b['spans'] and 'slo.related.errors' in b['counters'] and 'slo.related.breaches' in b['counters']"

check "GET /metrics (prometheus)" 200 "$BASE/metrics?format=prometheus"
grep -q '^# TYPE http_related_requests_total counter$' /tmp/smoke_body || { echo "FAIL prometheus exposition body" >&2; fail=1; }
grep -q '^runtime_goroutines ' /tmp/smoke_body || { echo "FAIL runtime gauges missing from prometheus body" >&2; fail=1; }

check "GET /metrics (Accept negotiation)" 200 -H 'Accept: text/plain' "$BASE/metrics"
grep -q '^# TYPE ' /tmp/smoke_body || { echo "FAIL Accept: text/plain did not negotiate prometheus" >&2; fail=1; }

check "GET /debug/traces" 200 "$BASE/debug/traces"
json  "  traces captured" "len(b['traces']) >= 5 and all(t['id'] and t['duration_ns'] > 0 for t in b['traces'])"
json  "  trace events monotone" "all(all(e[i]['at_ns'] <= e[i+1]['at_ns'] for i in range(len(e)-1)) for t in b['traces'] for e in [t['events'] or []])"

check "GET /healthz" 200 "$BASE/healthz"
check "GET /debug/pprof/" 200 "$BASE/debug/pprof/"

# The access log must be JSON lines with the trace ids in them.
if python3 - "$LOG" <<'EOF'
import json, sys
recs = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
reqs = [r for r in recs if r.get("msg") == "request"]
assert len(reqs) >= 10, f"only {len(reqs)} access-log records"
related = [r for r in reqs if r.get("endpoint") == "/related" and r.get("status") == 200]
assert related and all("trace_id" in r and "latency_ns" in r and "results" in r for r in related), related[:2]
EOF
then echo "ok   access log" >&2; else echo "FAIL access log:" >&2; tail -5 "$LOG" >&2; fail=1; fi

kill "$SERVER_PID" 2>/dev/null && wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# Sharded leg: the same corpus served with -shards 4 must answer
# /related byte-for-byte identically to the unsharded server (the shard
# package's equivalence guarantee, probed end to end), report the shard
# topology in /stats, and accept an /add that lands on one shard.
echo "== start sharded (-shards 4, same corpus)" >&2
"$BIN" -addr "127.0.0.1:$PORT" -domain tech -n 200 -seed 42 -shards 4 -trace-slow 0 2>"$LOG" &
SERVER_PID=$!
for i in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "sharded server died during startup:" >&2; cat "$LOG" >&2; exit 1
    fi
    sleep 0.3
done
curl -sf "$BASE/healthz" >/dev/null || { echo "sharded server never became healthy" >&2; cat "$LOG" >&2; exit 1; }

for doc in 3 17 57; do
    check "POST /related (sharded) doc $doc" 200 -X POST "$BASE/related" -d "{\"doc_id\": $doc, \"k\": 5}"
    if cmp -s /tmp/smoke_body "$REF_DIR/related_$doc.json"; then
        echo "ok   sharded /related doc $doc matches unsharded byte-for-byte" >&2
    else
        echo "FAIL sharded /related doc $doc diverges from unsharded:" >&2
        diff <(head -c 400 "$REF_DIR/related_$doc.json") <(head -c 400 /tmp/smoke_body) >&2 || true
        fail=1
    fi
done
check "POST /related explain (sharded)" 200 -X POST "$BASE/related" -d '{"doc_id": 3, "k": 5, "explain": true}'
if cmp -s /tmp/smoke_body "$REF_DIR/explain_3.json"; then
    echo "ok   sharded explain matches unsharded byte-for-byte" >&2
else
    echo "FAIL sharded explain diverges from unsharded" >&2
    fail=1
fi

check "GET /stats (sharded)" 200 "$BASE/stats"
json  "  shard topology" "b['shards'] == 4 and len(b['shard_docs']) == 4 and sum(b['shard_docs']) == b['num_docs'] == 200"

check "POST /add (sharded)" 200 -X POST "$BASE/add" -d '{"text": "My printer shows a paper jam error after the firmware update. How do I clear it?"}'
json  "  new id past corpus" "b['doc_id'] >= 200"
check "POST /related (post-add)" 200 -X POST "$BASE/related" -d '{"doc_id": 200, "k": 5}'
json  "  added doc retrievable" "b['doc_id'] == 200 and len(b['results']) >= 1"
check "GET /stats (post-add)" 200 "$BASE/stats"
json  "  shard counts grew" "sum(b['shard_docs']) == b['num_docs'] == 201"

check "GET /metrics (sharded)" 200 "$BASE/metrics"
json  "  per-shard counters" "all(('shard.%02d.queries' % s) in b['counters'] for s in range(4))"

kill "$SERVER_PID" 2>/dev/null && wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# Cached-serving leg: the same corpus behind -cache-entries and
# admission limits must answer /related byte-for-byte like the default
# server — on the cold pass (a miss that computes) and the warm pass (a
# hit served straight from the cache) — and /stats must expose the
# hygiene blocks with a live hit rate.
echo "== cached serving (-cache-entries 1024 -max-inflight 8 -max-queued 16)" >&2
"$BIN" -addr "127.0.0.1:$PORT" -domain tech -n 200 -seed 42 \
    -cache-entries 1024 -max-inflight 8 -max-queued 16 -trace-slow 0 2>"$LOG" &
SERVER_PID=$!
for i in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "cached server died during startup:" >&2; cat "$LOG" >&2; exit 1
    fi
    sleep 0.3
done
curl -sf "$BASE/healthz" >/dev/null || { echo "cached server never became healthy" >&2; cat "$LOG" >&2; exit 1; }

for pass in cold warm; do
    for doc in 3 17 57; do
        check "POST /related (cached, $pass) doc $doc" 200 -X POST "$BASE/related" -d "{\"doc_id\": $doc, \"k\": 5}"
        if cmp -s /tmp/smoke_body "$REF_DIR/related_$doc.json"; then
            echo "ok   cached ($pass) /related doc $doc matches uncached byte-for-byte" >&2
        else
            echo "FAIL cached ($pass) /related doc $doc diverges from uncached:" >&2
            diff <(head -c 400 "$REF_DIR/related_$doc.json") <(head -c 400 /tmp/smoke_body) >&2 || true
            fail=1
        fi
    done
    check "POST /related explain (cached, $pass)" 200 -X POST "$BASE/related" -d '{"doc_id": 3, "k": 5, "explain": true}'
    if cmp -s /tmp/smoke_body "$REF_DIR/explain_3.json"; then
        echo "ok   cached ($pass) explain matches uncached byte-for-byte" >&2
    else
        echo "FAIL cached ($pass) explain diverges from uncached" >&2
        fail=1
    fi
done

check "GET /stats (cached)" 200 "$BASE/stats"
json  "  cache block with hits" "b['cache']['capacity'] == 1024 and b['cache']['hits'] >= 4 and b['cache']['hit_rate'] > 0"
json  "  admission config" "b['admission']['max_inflight'] == 8 and b['admission']['max_queued'] == 16 and b['admission']['shed'] == 0"
json  "  singleflight block" "'leaders' in b['singleflight'] and 'followers' in b['singleflight']"

kill "$SERVER_PID" 2>/dev/null && wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# Shed probe: with -max-inflight 1 and no queue, a burst of concurrent
# expensive queries must produce at least one typed 503 with
# Retry-After — the overload contract clients back off on. The burst
# retries a few times because overlap, while near-certain, is up to the
# scheduler.
echo "== shed probe (-max-inflight 1 -max-queued 0)" >&2
"$BIN" -addr "127.0.0.1:$PORT" -domain tech -n 200 -seed 42 -max-inflight 1 2>"$LOG" &
SERVER_PID=$!
for i in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "shed-probe server died during startup:" >&2; cat "$LOG" >&2; exit 1
    fi
    sleep 0.3
done
SHED_DIR="$(mktemp -d)"
shed_hit=""
for attempt in 1 2 3; do
    rm -f "$SHED_DIR"/*
    CURL_PIDS=()
    for i in $(seq 1 40); do
        curl -s -D "$SHED_DIR/head$i" -o "$SHED_DIR/body$i" -X POST "$BASE/related" \
            -d '{"doc_id": 3, "k": 100, "explain": true}' &
        CURL_PIDS+=($!)
    done
    wait "${CURL_PIDS[@]}" 2>/dev/null || true
    shed_hit="$(grep -l '^HTTP/[0-9.]* 503' "$SHED_DIR"/head* 2>/dev/null | head -1 || true)"
    [[ -n "$shed_hit" ]] && break
done
if [[ -n "$shed_hit" ]]; then
    echo "ok   shed burst produced a 503 (attempt $attempt)" >&2
    if grep -qi '^Retry-After: 1' "$shed_hit"; then
        echo "ok   shed carries Retry-After: 1" >&2
    else
        echo "FAIL shed response missing Retry-After:" >&2; cat "$shed_hit" >&2; fail=1
    fi
    cp "${shed_hit/head/body}" /tmp/smoke_body
    json "  typed overloaded envelope" "b['error']['kind'] == 'overloaded'"
else
    echo "FAIL no 503 in three 40-request bursts against -max-inflight 1" >&2
    fail=1
fi
check "GET /stats (after shed)" 200 "$BASE/stats"
json  "  sheds counted" "b['admission']['shed'] >= 1 and b['admission']['inflight'] == 0"
rm -rf "$SHED_DIR"

kill "$SERVER_PID" 2>/dev/null && wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# Persistence leg: build once offline, save the pipeline, then serve
# the file with -load. Every /related body must match the
# build-from-scratch references byte for byte.
echo "== persistence (save a snapshot, serve it with -load)" >&2
WORK="$(dirname "$BIN")"
go build -o "$WORK/gencorpus" ./cmd/gencorpus
go build -o "$WORK/intentmatch" ./cmd/intentmatch
"$WORK/gencorpus" -domain tech -n 200 -seed 42 >"$WORK/corpus.jsonl"
"$WORK/intentmatch" -corpus "$WORK/corpus.jsonl" -seed 42 -save "$WORK/snap.idx" >/dev/null

"$BIN" -addr "127.0.0.1:$PORT" -load "$WORK/snap.idx" -trace-slow 0 2>"$LOG" &
SERVER_PID=$!
for i in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "server died loading the snapshot:" >&2; cat "$LOG" >&2; exit 1
    fi
    sleep 0.3
done
curl -sf "$BASE/healthz" >/dev/null || { echo "server never became healthy on the snapshot" >&2; cat "$LOG" >&2; exit 1; }
for doc in 3 17 57; do
    check "POST /related (loaded snapshot) doc $doc" 200 -X POST "$BASE/related" -d "{\"doc_id\": $doc, \"k\": 5}"
    if cmp -s /tmp/smoke_body "$REF_DIR/related_$doc.json"; then
        echo "ok   snapshot-loaded /related doc $doc matches built server byte-for-byte" >&2
    else
        echo "FAIL snapshot-loaded /related doc $doc diverges from built server:" >&2
        diff <(head -c 400 "$REF_DIR/related_$doc.json") <(head -c 400 /tmp/smoke_body) >&2 || true
        fail=1
    fi
done
check "POST /related explain (loaded snapshot)" 200 -X POST "$BASE/related" -d '{"doc_id": 3, "k": 5, "explain": true}'
if cmp -s /tmp/smoke_body "$REF_DIR/explain_3.json"; then
    echo "ok   snapshot-loaded explain matches built server byte-for-byte" >&2
else
    echo "FAIL snapshot-loaded explain diverges from built server" >&2
    fail=1
fi
kill "$SERVER_PID" 2>/dev/null && wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# A corrupted snapshot must refuse to serve, with a descriptive error.
head -c 1000 "$WORK/snap.idx" >"$WORK/snap_truncated.idx"
if "$BIN" -addr "127.0.0.1:$PORT" -load "$WORK/snap_truncated.idx" 2>"$LOG"; then
    echo "FAIL serve accepted a truncated snapshot" >&2
    fail=1
elif grep -q "truncated" "$LOG"; then
    echo "ok   truncated snapshot rejected with a descriptive error" >&2
else
    echo "FAIL truncated snapshot error is not descriptive:" >&2; tail -2 "$LOG" >&2
    fail=1
fi

# So must a file that is not a snapshot at all — which, since the gob
# encodings were retired, is what a file written by an older build is.
head -c 4096 /dev/urandom >"$WORK/snap_garbage.idx"
if "$BIN" -addr "127.0.0.1:$PORT" -load "$WORK/snap_garbage.idx" 2>"$LOG"; then
    echo "FAIL serve accepted a file of garbage as a snapshot" >&2
    fail=1
elif grep -q "bad magic" "$LOG"; then
    echo "ok   non-snapshot file rejected by its magic" >&2
else
    echo "FAIL non-snapshot file error does not name the magic:" >&2; tail -2 "$LOG" >&2
    fail=1
fi

# A build flag beside -load would be ignored, so it is refused by name.
if "$BIN" -addr "127.0.0.1:$PORT" -load "$WORK/snap.idx" -n 50 2>"$LOG"; then
    echo "FAIL serve accepted -n beside -load" >&2
    fail=1
elif grep -q -- '-n is a build flag' "$LOG"; then
    echo "ok   build flag beside -load refused by name" >&2
else
    echo "FAIL -n beside -load refused without naming the flag:" >&2; tail -2 "$LOG" >&2
    fail=1
fi

# The coordinator's one timing knob is -fleet-timeout; the schedule it
# derives has no flags of its own, so one of the old ones is refused.
if "$BIN" -addr "127.0.0.1:$PORT" -shard-role coordinator -fleet-retries 1 2>"$LOG"; then
    echo "FAIL serve accepted -fleet-retries" >&2
    fail=1
elif grep -q -- 'flag provided but not defined: -fleet-retries' "$LOG"; then
    echo "ok   -fleet-retries refused (the budget derives the retries)" >&2
else
    echo "FAIL -fleet-retries refused for another reason:" >&2; tail -2 "$LOG" >&2
    fail=1
fi

# Networked fleet leg: the same corpus saved as one 4-shard snapshot
# file and served as SIX processes — four shard servers, one replica of
# shard 0, and a coordinator. A healthy fleet must answer /related
# byte-for-byte identically to the single-process server; killing one
# shard server must degrade to well-formed partials (partial_results +
# shards_missing) for docs homed elsewhere and a typed 503 for docs
# homed on the dead shard — never a hang, never a silently wrong
# complete answer.
echo "== fleet (4 shard servers + 1 replica + coordinator, separate processes)" >&2
"$WORK/intentmatch" -corpus "$WORK/corpus.jsonl" -seed 42 -save-shards 4 -save "$WORK/shards.idx" >/dev/null
FLEET_PIDS=()
SHARD_PORT0=$((PORT+10))
for s in 0 1 2 3; do
    "$BIN" -addr "127.0.0.1:$((SHARD_PORT0+s))" -shard-role shard -load "$WORK/shards.idx" -own "$s" 2>"$WORK/shard$s.log" &
    FLEET_PIDS+=($!)
done
"$BIN" -addr "127.0.0.1:$((SHARD_PORT0+4))" -shard-role shard -load "$WORK/shards.idx" -own 0 2>"$WORK/replica0.log" &
FLEET_PIDS+=($!)
cat >"$WORK/topology.json" <<EOF
{"endpoints":[
  {"shard":0,"primary":"http://127.0.0.1:$SHARD_PORT0","replicas":["http://127.0.0.1:$((SHARD_PORT0+4))"]},
  {"shard":1,"primary":"http://127.0.0.1:$((SHARD_PORT0+1))"},
  {"shard":2,"primary":"http://127.0.0.1:$((SHARD_PORT0+2))"},
  {"shard":3,"primary":"http://127.0.0.1:$((SHARD_PORT0+3))"}
]}
EOF
COORD="http://127.0.0.1:$((SHARD_PORT0+5))"
"$BIN" -addr "127.0.0.1:$((SHARD_PORT0+5))" -shard-role coordinator -fleet "$WORK/topology.json" -fleet-timeout 1s -trace-slow 0 2>"$WORK/coord.log" &
FLEET_PIDS+=($!)

# The coordinator only reports healthy once it has bootstrapped meta
# from every shard, so one readiness loop covers the whole fleet.
for i in $(seq 1 100); do
    if curl -sf "$COORD/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "${FLEET_PIDS[5]}" 2>/dev/null; then
        echo "coordinator died during startup:" >&2; cat "$WORK/coord.log" >&2; exit 1
    fi
    sleep 0.3
done
curl -sf "$COORD/healthz" >/dev/null || { echo "fleet never became healthy" >&2; cat "$WORK/coord.log" >&2; exit 1; }

# Before any leg has latency history, every shard hedges after the
# floor the 1s budget derives: T/20 = 50ms.
check "GET /stats (fleet, no history)" 200 "$COORD/stats"
json  "  hedge floor is T/20" "len(b['shard_health']) == 4 and all(h['latency_samples'] == 0 and h['hedge_delay_ns'] == 50000000 for h in b['shard_health'])"

for doc in 3 17 57; do
    check "POST /related (fleet) doc $doc" 200 -X POST "$COORD/related" -d "{\"doc_id\": $doc, \"k\": 5}"
    if cmp -s /tmp/smoke_body "$REF_DIR/related_$doc.json"; then
        echo "ok   fleet /related doc $doc matches single-process byte-for-byte" >&2
    else
        echo "FAIL fleet /related doc $doc diverges from single-process:" >&2
        diff <(head -c 400 "$REF_DIR/related_$doc.json") <(head -c 400 /tmp/smoke_body) >&2 || true
        fail=1
    fi
done
check "POST /related explain (fleet)" 200 -X POST "$COORD/related" -d '{"doc_id": 3, "k": 5, "explain": true}'
if cmp -s /tmp/smoke_body "$REF_DIR/explain_3.json"; then
    echo "ok   fleet explain matches single-process byte-for-byte" >&2
else
    echo "FAIL fleet explain diverges from single-process" >&2
    fail=1
fi

check "GET /stats (fleet)" 200 "$COORD/stats"
json  "  fleet topology" "b['shards'] == 4 and b['num_docs'] == 200 and b['epoch'] > 0"
json  "  shard health ledger" "len(b['shard_health']) == 4 and all(h['consecutive_failures'] == 0 and h['hedge_delay_ns'] > 0 for h in b['shard_health'])"
check "POST /add (fleet read-only)" 501 -X POST "$COORD/add" -d '{"text": "should be refused"}'
json  "  typed read_only error" "b['error']['kind'] == 'read_only'"
# The coordinator is the same server as the single process, profiles included.
check "GET /debug/pprof/ (coordinator)" 200 "$COORD/debug/pprof/"

# Distributed tracing: the coordinator captures every request
# (-trace-slow 0) and flags its shard RPCs, so its /debug/traces must
# contain stitched remote events, and each shard's own /debug/traces
# must show the shard-local child traces of the same requests.
check "GET /debug/traces (coordinator)" 200 "$COORD/debug/traces"
json  "  stitched remote events" "any(e['name'].startswith('remote.') for t in b['traces'] for e in (t['events'] or []))"
json  "  leg markers with rtt" "any(e['name'] == 'fleet.leg' and any(a['key'] == 'rtt_ns' for a in e.get('attrs', [])) for t in b['traces'] for e in (t['events'] or []))"
json  "  stitched traces monotone" "all(all(e[i]['at_ns'] <= e[i+1]['at_ns'] for i in range(len(e)-1)) for t in b['traces'] for e in [t['events'] or []])"
check "GET /debug/traces (shard 0)" 200 "http://127.0.0.1:$SHARD_PORT0/debug/traces"
json  "  shard-side child traces" "any(e['name'] == 'host.recv' for t in b['traces'] for e in (t['events'] or []))"
check "GET /metrics (shard 0, prometheus)" 200 "http://127.0.0.1:$SHARD_PORT0/metrics?format=prometheus"
grep -q '^runtime_goroutines ' /tmp/smoke_body || { echo "FAIL runtime gauges missing from shard prometheus body" >&2; fail=1; }

# Federated scrape: the coordinator's ?scope=fleet view must aggregate
# every counter as exactly the sum of the per-shard snapshots it
# carries, with all four shards scraped successfully.
check "GET /metrics?scope=fleet" 200 "$COORD/metrics?scope=fleet"
json  "  all shards scraped" "b['scope'] == 'fleet' and len(b['scrape']) == 4 and all(not s.get('error') for s in b['scrape'])"
json  "  aggregate == sum of shards" "all(v == sum(s['snapshot']['counters'].get(k, 0) for s in b['scrape']) for k, v in b['fleet']['counters'].items())"
json  "  shard probes visible fleet-wide" "b['fleet']['counters'].get('http.shard.probe.requests', 0) >= 4"
check "GET /metrics?scope=fleet (prometheus)" 200 "$COORD/metrics?scope=fleet&format=prometheus"
grep -q '^fleet_shard00_up 1$' /tmp/smoke_body || { echo "FAIL fleet prometheus exposition missing per-shard up markers" >&2; fail=1; }

# Cached coordinator: a second coordinator over the same healthy fleet
# with -cache-entries must answer byte-for-byte like the single-process
# references, cold and warm, and expose the fleet cache epoch in /stats.
echo "== fleet: cached coordinator (-cache-entries 1024)" >&2
CACHED_COORD="http://127.0.0.1:$((SHARD_PORT0+6))"
"$BIN" -addr "127.0.0.1:$((SHARD_PORT0+6))" -shard-role coordinator -fleet "$WORK/topology.json" \
    -cache-entries 1024 -trace-slow 0 2>"$WORK/coordcache.log" &
CACHED_COORD_PID=$!
FLEET_PIDS+=($CACHED_COORD_PID)
for i in $(seq 1 100); do
    if curl -sf "$CACHED_COORD/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$CACHED_COORD_PID" 2>/dev/null; then
        echo "cached coordinator died during startup:" >&2; cat "$WORK/coordcache.log" >&2; exit 1
    fi
    sleep 0.3
done
for pass in cold warm; do
    for doc in 3 17 57; do
        check "POST /related (cached fleet, $pass) doc $doc" 200 -X POST "$CACHED_COORD/related" -d "{\"doc_id\": $doc, \"k\": 5}"
        if cmp -s /tmp/smoke_body "$REF_DIR/related_$doc.json"; then
            echo "ok   cached fleet ($pass) doc $doc matches single-process byte-for-byte" >&2
        else
            echo "FAIL cached fleet ($pass) doc $doc diverges from single-process:" >&2
            diff <(head -c 400 "$REF_DIR/related_$doc.json") <(head -c 400 /tmp/smoke_body) >&2 || true
            fail=1
        fi
    done
done
check "GET /stats (cached coordinator)" 200 "$CACHED_COORD/stats"
json  "  fleet cache block" "b['cache']['hits'] >= 3 and b['cache']['hit_rate'] > 0 and b['cache_epoch'] >= b['epoch']"

# Kill shard 2's only server. Docs homed on shard 2 must fail with a
# typed 503; everything else must degrade to partial_results with
# shards_missing=[2].
echo "== fleet: kill shard 2" >&2
kill "${FLEET_PIDS[2]}" 2>/dev/null; wait "${FLEET_PIDS[2]}" 2>/dev/null || true
partials=0
for doc in 3 17 57 101 140; do
    got="$(curl -s -o /tmp/smoke_body -w '%{http_code}' -X POST "$COORD/related" -d "{\"doc_id\": $doc, \"k\": 5}")"
    case "$got" in
    200)
        json "  doc $doc partial after shard kill" "b['partial_results'] == True and b['shards_missing'] == [2] and len(b['results']) >= 1"
        partials=$((partials+1))
        ;;
    503)
        json "  doc $doc homed on dead shard -> typed 503" "b['error']['kind'] == 'fleet_unavailable'"
        ;;
    *)
        echo "FAIL fleet doc $doc after shard kill: status $got" >&2
        head -c 400 /tmp/smoke_body >&2; echo >&2
        fail=1
        ;;
    esac
done
if [[ "$partials" -ge 1 ]]; then
    echo "ok   fleet degraded to $partials well-formed partials" >&2
else
    echo "FAIL no doc produced a partial result after the shard kill" >&2
    fail=1
fi

# The federated scrape must mark the dead shard explicitly and keep
# aggregating the survivors.
check "GET /metrics?scope=fleet (degraded)" 200 "$COORD/metrics?scope=fleet"
json  "  dead shard marked" "[s['shard'] for s in b['scrape'] if s.get('error')] == [2]"
json  "  survivors still aggregated" "all(v == sum(s['snapshot']['counters'].get(k, 0) for s in b['scrape'] if 'snapshot' in s) for k, v in b['fleet']['counters'].items())"
check "GET /stats (degraded health)" 200 "$COORD/stats"
json  "  failure streak recorded" "any(h['shard'] == 2 and h['consecutive_failures'] >= 1 and h['last_error_kind'] for h in b['shard_health'])"

# The cached coordinator must not serve stale complete answers once it
# observes the degradation: an uncached-shape probe forces the shard
# failure into view (advancing the fleet cache epoch), after which the
# warm key from the healthy pass recomputes — an honest partial or a
# typed 503, never the cached complete body.
probe_status="$(curl -s -o /tmp/smoke_body -w '%{http_code}' -X POST "$CACHED_COORD/related" -d '{"doc_id": 3, "k": 7}')"
echo "ok   cached coordinator degradation probe (status $probe_status)" >&2
got="$(curl -s -o /tmp/smoke_body -w '%{http_code}' -X POST "$CACHED_COORD/related" -d '{"doc_id": 3, "k": 5}')"
case "$got" in
200)
    if cmp -s /tmp/smoke_body "$REF_DIR/related_3.json"; then
        echo "FAIL cached coordinator served a stale complete answer after the shard kill" >&2
        fail=1
    else
        json "  warm key recomputed as partial after epoch advance" "b['partial_results'] == True and 2 in b['shards_missing']"
    fi
    ;;
503)
    json "  warm key recomputed -> typed 503" "b['error']['kind'] == 'fleet_unavailable'"
    ;;
*)
    echo "FAIL cached coordinator degraded warm query: status $got" >&2
    head -c 400 /tmp/smoke_body >&2; echo >&2
    fail=1
    ;;
esac
check "GET /stats (cached coordinator, degraded)" 200 "$CACHED_COORD/stats"
json  "  cache epoch advanced past topology epoch" "b['cache_epoch'] > b['epoch']"

kill "${FLEET_PIDS[@]}" 2>/dev/null || true
wait 2>/dev/null || true
FLEET_PIDS=()

rm -rf "$REF_DIR"

if [[ "$fail" != 0 ]]; then
    echo "smoke test FAILED" >&2
    exit 1
fi
echo "smoke test passed" >&2
