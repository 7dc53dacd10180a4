#!/bin/sh
# crashtest.sh — the kill -9 gate for calibstore, runnable locally
# (`make crashtest`) and in CI. It boots calibserved with a data dir,
# drives real traffic over HTTP, captures the schedule, SIGKILLs the
# daemon mid-flight, restarts it on the same directory, and requires the
# recovered schedule to be byte-identical — then keeps stepping to prove
# the recovered session is live, and drains cleanly. Plain sh + curl +
# sed + diff; no other dependencies.
set -eu

WORKDIR=$(mktemp -d)
BIN="$WORKDIR/calibserved"
DATA="$WORKDIR/data"
PID=""
cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

echo "crashtest: building calibserved"
go build -o "$BIN" ./cmd/calibserved

# boot LOGFILE DATADIR FSYNC: starts the daemon, sets ADDR/PID from its
# JSON "listening" log record, and returns once it logs "serving": boot
# recovery is done, and until then every /v1 request gets a 503.
boot() {
    : > "$1"
    "$BIN" -addr 127.0.0.1:0 -data-dir "$2" -fsync "$3" -snapshot-every 5 2> "$1" &
    PID=$!
    ADDR=""
    i=0
    while [ $i -lt 100 ]; do
        ADDR=$(sed -n 's/.*"msg":"listening","addr":"\([^"]*\)".*/\1/p' "$1")
        [ -n "$ADDR" ] && grep -q '"msg":"serving"' "$1" && break
        kill -0 "$PID" 2>/dev/null || { echo "crashtest: daemon died during boot"; cat "$1"; exit 1; }
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$ADDR" ] && grep -q '"msg":"serving"' "$1" || { echo "crashtest: daemon never reported serving"; cat "$1"; exit 1; }
    BASE="http://$ADDR"
}

boot "$WORKDIR/boot1.log" "$DATA" none
echo "crashtest: daemon up at $BASE (pid $PID)"

curl -fsS -X POST "$BASE/v1/sessions" -d '{"t":6,"g":12,"alg":"alg2"}' > /dev/null
SESS="$BASE/v1/sessions/s-000001"
curl -fsS -X POST "$SESS/arrivals" \
    -d '{"jobs":[{"release":0,"weight":5},{"release":2,"weight":1},{"release":9,"weight":3}]}' > /dev/null
curl -fsS -X POST "$SESS/step" -d '{"steps":4}' > /dev/null
curl -fsS -X POST "$SESS/arrivals" -d '{"jobs":[{"release":12,"weight":7}]}' > /dev/null
curl -fsS -X POST "$SESS/step" -d '{"steps":3}' > /dev/null
curl -fsS "$SESS/schedule" > "$WORKDIR/before.json"

echo "crashtest: SIGKILL $PID mid-flight"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

boot "$WORKDIR/boot2.log" "$DATA" none
echo "crashtest: recovered daemon at $BASE (pid $PID)"
SESS="$BASE/v1/sessions/s-000001"
curl -fsS "$SESS/schedule" > "$WORKDIR/after.json"

if ! diff -u "$WORKDIR/before.json" "$WORKDIR/after.json"; then
    echo "crashtest: FAIL — schedule diverged across kill -9 + recovery"
    exit 1
fi
echo "crashtest: schedules byte-identical across recovery"

# The recovered session must keep serving, not just replay.
curl -fsS -X POST "$SESS/step" -d '{"steps":60}' | grep -q '"done":true' || {
    echo "crashtest: FAIL — recovered session did not finish its jobs"
    exit 1
}

kill -TERM "$PID"
wait "$PID" || { echo "crashtest: FAIL — daemon exited non-zero on drain"; cat "$WORKDIR/boot2.log"; exit 1; }
PID=""
grep -q 'drained cleanly' "$WORKDIR/boot2.log" || {
    echo "crashtest: FAIL — no clean drain after recovery"; cat "$WORKDIR/boot2.log"; exit 1;
}
echo "crashtest: phase 1 (fsync none) PASS"

# ---------------------------------------------------------------------
# Phase 2: group commit (-fsync always, the default -group-commit on).
# Three sessions take synchronous, acknowledged traffic; a background
# step is fired on session 3 and the daemon is SIGKILLed immediately, so
# the kill lands while the group committer may be mid-write or mid-fsync
# on the shared journal. Required: every acknowledged command survives
# (sessions 1 and 2 byte-identical), and a second kill -9 with no new
# commands recovers byte-identically (the journal merge is idempotent).
# ---------------------------------------------------------------------
echo "crashtest: phase 2 — group commit with mid-group-commit kill"
DATA2="$WORKDIR/data2"

boot "$WORKDIR/boot3.log" "$DATA2" always
echo "crashtest: group-commit daemon up at $BASE (pid $PID)"
grep -q '"group_commit":true' "$WORKDIR/boot3.log" || {
    echo "crashtest: FAIL — group commit not active under -fsync always"; cat "$WORKDIR/boot3.log"; exit 1;
}

i=1
while [ $i -le 3 ]; do
    curl -fsS -X POST "$BASE/v1/sessions" -d '{"t":6,"g":12,"alg":"alg2"}' > /dev/null
    S="$BASE/v1/sessions/s-00000$i"
    curl -fsS -X POST "$S/arrivals" \
        -d "{\"jobs\":[{\"release\":0,\"weight\":$i},{\"release\":3,\"weight\":2}]}" > /dev/null
    curl -fsS -X POST "$S/step" -d '{"steps":5}' > /dev/null
    curl -fsS "$S/schedule" > "$WORKDIR/g_before_$i.json"
    i=$((i + 1))
done
[ -f "$DATA2/commit.log" ] || {
    echo "crashtest: FAIL — no group-commit journal on disk"; exit 1;
}

# In-flight command on session 3 only; its ack may or may not land
# before the kill, so only sessions 1 and 2 have a pinned schedule.
curl -fsS -X POST "$BASE/v1/sessions/s-000003/step" -d '{"steps":4}' > /dev/null 2>&1 &
CURL_PID=$!
sleep 0.05
echo "crashtest: SIGKILL $PID mid-group-commit"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
wait "$CURL_PID" 2>/dev/null || true
PID=""

boot "$WORKDIR/boot4.log" "$DATA2" always
echo "crashtest: recovered group-commit daemon at $BASE (pid $PID)"
# A group-commit boot keeps the journal until its first rotation.
[ -s "$DATA2/commit.log" ] || {
    echo "crashtest: FAIL — group-commit boot dropped the journal"; exit 1;
}
i=1
while [ $i -le 2 ]; do
    curl -fsS "$BASE/v1/sessions/s-00000$i/schedule" > "$WORKDIR/g_after_$i.json"
    if ! diff -u "$WORKDIR/g_before_$i.json" "$WORKDIR/g_after_$i.json"; then
        echo "crashtest: FAIL — acknowledged schedule of session $i lost across mid-commit kill"
        exit 1
    fi
    i=$((i + 1))
done
curl -fsS "$BASE/v1/sessions/s-000003/schedule" > "$WORKDIR/g_rec1_3.json"
echo "crashtest: acknowledged schedules intact across mid-commit kill"

# Double crash with no new commands: recovery must be deterministic.
echo "crashtest: SIGKILL $PID again (no new commands)"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

boot "$WORKDIR/boot5.log" "$DATA2" always
curl -fsS "$BASE/v1/sessions/s-000003/schedule" > "$WORKDIR/g_rec2_3.json"
if ! diff -u "$WORKDIR/g_rec1_3.json" "$WORKDIR/g_rec2_3.json"; then
    echo "crashtest: FAIL — recovery not idempotent across a double kill -9"
    exit 1
fi
echo "crashtest: double-crash recovery byte-identical"

# The recovered fleet must keep serving under group commit.
curl -fsS -X POST "$BASE/v1/sessions/s-000001/step" -d '{"steps":60}' | grep -q '"done":true' || {
    echo "crashtest: FAIL — recovered group-commit session did not finish its jobs"
    exit 1
}

kill -TERM "$PID"
wait "$PID" || { echo "crashtest: FAIL — group-commit daemon exited non-zero on drain"; cat "$WORKDIR/boot5.log"; exit 1; }
PID=""
grep -q 'drained cleanly' "$WORKDIR/boot5.log" || {
    echo "crashtest: FAIL — no clean drain after group-commit recovery"; cat "$WORKDIR/boot5.log"; exit 1;
}
echo "crashtest: PASS"
