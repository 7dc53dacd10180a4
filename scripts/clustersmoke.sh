#!/bin/sh
# clustersmoke.sh — the multi-node gate for calibcluster, runnable
# locally (`make clustersmoke`) and in CI. It boots two calibserved
# backends plus calibgate, creates sessions through the gateway, live-
# migrates one, grows the ring with a third backend (join) and shrinks
# it back (leave) asserting every session stays reachable through both
# rebalances, then SIGKILLs one backend and requires the gateway to keep
# serving the surviving shard while answering 503 + Retry-After for the
# dead one. The gateway-aggregated /metrics exposition is validated and
# written to METRICS_OUT (the CI artifact; by default a fresh
# clustersmoke-metrics.* file in $TMPDIR that outlives the run, unlike
# the removed work directory). Plain sh + curl + sed + grep; no other
# dependencies.
set -eu

WORKDIR=$(mktemp -d)
METRICS_OUT=${METRICS_OUT:-$(mktemp "${TMPDIR:-/tmp}/clustersmoke-metrics.XXXXXX")}
PIDS=""
cleanup() {
    for p in $PIDS; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

echo "clustersmoke: building calibserved and calibgate"
go build -o "$WORKDIR/calibserved" ./cmd/calibserved
go build -o "$WORKDIR/calibgate" ./cmd/calibgate

# ready LOGFILE CMD: whether the daemon CMD, logging to LOGFILE and
# listening on ADDR, is ready: calibserved once it logs "serving" (boot
# recovery is done; until then every /v1 request gets a 503), calibgate
# once /healthz answers.
ready() {
    case "$2" in
    *calibserved) grep -q '"msg":"serving"' "$1" ;;
    *) curl -fsS "http://$ADDR/healthz" > /dev/null 2>&1 ;;
    esac
}

# boot LOGFILE CMD [ARGS...]: starts a daemon, sets ADDR/PID from its
# JSON "listening" log record, and waits until it is ready.
boot() {
    LOG="$1"
    shift
    : > "$LOG"
    "$@" 2> "$LOG" &
    PID=$!
    PIDS="$PIDS $PID"
    ADDR=""
    i=0
    while [ $i -lt 100 ]; do
        ADDR=$(sed -n 's/.*"msg":"listening","addr":"\([^"]*\)".*/\1/p' "$LOG" | head -n 1)
        [ -n "$ADDR" ] && ready "$LOG" "$1" && break
        kill -0 "$PID" 2>/dev/null || { echo "clustersmoke: daemon died during boot"; cat "$LOG"; exit 1; }
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$ADDR" ] && ready "$LOG" "$1" || { echo "clustersmoke: daemon never became ready"; cat "$LOG"; exit 1; }
}

boot "$WORKDIR/a.log" "$WORKDIR/calibserved" -addr 127.0.0.1:0 -data-dir "$WORKDIR/data-a" -fsync none
A="http://$ADDR"; A_PID=$PID
boot "$WORKDIR/b.log" "$WORKDIR/calibserved" -addr 127.0.0.1:0 -data-dir "$WORKDIR/data-b" -fsync none
B="http://$ADDR"; B_PID=$PID
boot "$WORKDIR/gw.log" "$WORKDIR/calibgate" -addr 127.0.0.1:0 \
    -backends "$A,$B" -health-interval 200ms -retry-backoff 20ms
GW="http://$ADDR"
echo "clustersmoke: backends $A $B behind gateway $GW"

# status URL [CURL-ARGS...]: HTTP status code only, never fails the script.
status() {
    URL="$1"
    shift
    curl -s -o /dev/null -w '%{http_code}' "$@" "$URL" || echo 000
}

# Create sessions through the gateway and drive each a little.
SESSIONS=""
N=12
i=0
while [ $i -lt $N ]; do
    ID=$(curl -fsS -X POST "$GW/v1/sessions" -d '{"t":6,"g":12,"alg":"alg2"}' \
        | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
    [ -n "$ID" ] || { echo "clustersmoke: create returned no id"; exit 1; }
    curl -fsS -X POST "$GW/v1/sessions/$ID/arrivals" \
        -d '{"jobs":[{"release":1,"weight":4},{"release":3,"weight":1}]}' > /dev/null
    curl -fsS -X POST "$GW/v1/sessions/$ID/step" -d '{"steps":4}' > /dev/null
    SESSIONS="$SESSIONS $ID"
    i=$((i + 1))
done
echo "clustersmoke: created $N sessions through the gateway"

# reachable LABEL: every session must answer 200 through the gateway.
# The acceptance bar is >= 99% correct routing; the smoke demands 100%.
reachable() {
    OK=0
    for ID in $SESSIONS; do
        [ "$(status "$GW/v1/sessions/$ID")" = 200 ] && OK=$((OK + 1))
    done
    echo "clustersmoke: $1: $OK/$N sessions reachable"
    [ "$OK" -eq "$N" ] || { echo "clustersmoke: routing broken after $1"; exit 1; }
}
reachable "initial placement"

# Live-migrate the first session and keep driving it.
FIRST=${SESSIONS# }
FIRST=${FIRST%% *}
MIG=$(curl -fsS -X POST "$GW/v1/cluster/migrate" -d "{\"session\":\"$FIRST\"}")
echo "clustersmoke: migrated: $MIG"
echo "$MIG" | grep -q '"from"' || { echo "clustersmoke: migrate response malformed"; exit 1; }
curl -fsS -X POST "$GW/v1/sessions/$FIRST/step" -d '{"steps":4}' > /dev/null

# Cross-node tracing: drive one step with an injected W3C traceparent
# and require the gateway's stitched trace to carry the same trace ID
# with at least three distinct attributed phases (proxy at the gateway
# plus http/queue-wait/engine-step from the owning backend). Spans land
# asynchronously after the response, so poll briefly.
TRACE_ID=4bf92f3577b34da6a3ce929d0e0e4736
curl -fsS -X POST "$GW/v1/sessions/$FIRST/step" \
    -H "traceparent: 00-$TRACE_ID-00f067aa0ba902b7-01" -d '{"steps":2}' > /dev/null
PHASES=0
i=0
while [ $i -lt 50 ]; do
    TRACE=$(curl -s "$GW/v1/traces/$TRACE_ID" || true)
    PHASES=$(echo "$TRACE" | grep -o '"phase":"[^"]*"' | sort -u | wc -l)
    [ "$PHASES" -ge 3 ] && break
    sleep 0.1
    i=$((i + 1))
done
[ "$PHASES" -ge 3 ] || { echo "clustersmoke: stitched trace has $PHASES phases, want >= 3: $TRACE"; exit 1; }
echo "$TRACE" | grep -q "\"trace_id\":\"$TRACE_ID\"" || { echo "clustersmoke: stitched trace lost the injected trace ID"; exit 1; }
echo "$TRACE" | grep -q '"phase":"proxy"' || { echo "clustersmoke: stitched trace has no gateway proxy span"; exit 1; }
echo "clustersmoke: stitched trace $TRACE_ID spans $PHASES phases through the gateway"

# Grow the ring: boot a third backend and join it; only ring-moved
# sessions migrate, and every session must remain reachable.
boot "$WORKDIR/c.log" "$WORKDIR/calibserved" -addr 127.0.0.1:0 -data-dir "$WORKDIR/data-c" -fsync none
C="http://$ADDR"
JOIN=$(curl -fsS -X POST "$GW/v1/cluster/join" -d "{\"node\":\"$C\"}")
echo "clustersmoke: join: $JOIN"
echo "$JOIN" | grep -q '"failed"' && { echo "clustersmoke: join rebalance had failures"; exit 1; }
reachable "join rebalance"

# Shrink it back: drain the third node out gracefully.
LEAVE=$(curl -fsS -X POST "$GW/v1/cluster/leave" -d "{\"node\":\"$C\"}")
echo "clustersmoke: leave: $LEAVE"
echo "$LEAVE" | grep -q '"failed"' && { echo "clustersmoke: leave rebalance had failures"; exit 1; }
reachable "leave rebalance"

# Find one session living on each surviving backend (list each node
# directly; the gateway owns the routing, the node owns the truth).
SESS_A=$(curl -fsS "$A/v1/sessions" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p' | head -n 1)
SESS_B=$(curl -fsS "$B/v1/sessions" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$SESS_A" ] || { echo "clustersmoke: backend A holds no sessions"; exit 1; }
[ -n "$SESS_B" ] || { echo "clustersmoke: backend B holds no sessions"; exit 1; }

echo "clustersmoke: SIGKILL backend B ($B_PID)"
kill -9 "$B_PID"
wait "$B_PID" 2>/dev/null || true

# The dead node's sessions must turn into 503 + Retry-After (fail-open)
# once the gateway notices — first contact may be a 502 while the dial
# failure is being discovered.
DEAD=""
i=0
while [ $i -lt 50 ]; do
    CODE=$(status "$GW/v1/sessions/$SESS_B")
    if [ "$CODE" = 503 ]; then DEAD=yes; break; fi
    [ "$CODE" = 502 ] || [ "$CODE" = 200 ] || { echo "clustersmoke: unexpected status $CODE for dead-node session"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$DEAD" ] || { echo "clustersmoke: gateway never flipped to 503 for the dead node"; exit 1; }
curl -s -D - -o /dev/null "$GW/v1/sessions/$SESS_B" | grep -qi '^retry-after:' \
    || { echo "clustersmoke: dead-node 503 carries no Retry-After"; exit 1; }

# The surviving shard keeps serving through the gateway.
[ "$(status "$GW/v1/sessions/$SESS_A")" = 200 ] || { echo "clustersmoke: surviving shard unreachable"; exit 1; }
curl -fsS -X POST "$GW/v1/sessions/$SESS_A/step" -d '{"steps":2}' > /dev/null
echo "clustersmoke: surviving shard still serving; dead shard fails open with 503"

# Aggregated metrics: scrape, save as the artifact, and validate the
# exposition — every line a comment or a well-formed sample (optionally
# carrying an OpenMetrics exemplar suffix on histogram buckets),
# counters present from both planes, and the dead node reported down.
curl -fsS "$GW/metrics" > "$METRICS_OUT"
grep -q '^# TYPE calibserved_sessions_created counter$' "$METRICS_OUT"
grep -q '^calibgate_sessions_migrated ' "$METRICS_OUT"
grep -q '^calibgate_rebalances ' "$METRICS_OUT"
grep -q '^calibgate_build_info{' "$METRICS_OUT"
grep -q 'calibserved_build_info{' "$METRICS_OUT"
grep -q "calibgate_node_up{node=\"$B\"} 0" "$METRICS_OUT"
grep -q "calibgate_node_up{node=\"$A\"} 1" "$METRICS_OUT"
BAD=$(grep -Ev '^$|^#|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?( # \{[a-zA-Z_]+="[^"]*"\} -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)?$' "$METRICS_OUT" || true)
[ -z "$BAD" ] || { echo "clustersmoke: malformed exposition lines:"; echo "$BAD"; exit 1; }
echo "clustersmoke: aggregated metrics valid ($(wc -l < "$METRICS_OUT") lines) at $METRICS_OUT"

echo "clustersmoke: PASS"
