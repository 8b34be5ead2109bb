#!/usr/bin/env sh
# Drive the campaign server with concurrent well-formed + adversarial
# traffic and fail on any failed request.
#
# Usage: bench/run_server_bench.sh [build_dir]
#
# Starts a throwaway campaign_server on an ephemeral loopback port,
# runs server_loadgen against it, tears the server down and exits with
# the loadgen's status. Run from the repository root.
set -eu

BUILD_DIR=${1:-build}
SERVER="$BUILD_DIR/bench/campaign_server"
LOADGEN="$BUILD_DIR/bench/server_loadgen"

for bin in "$SERVER" "$LOADGEN"; do
    if [ ! -x "$bin" ]; then
        echo "run_server_bench: $bin not found (build the bench tree)" >&2
        exit 1
    fi
done

LOG=$(mktemp)
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill -TERM "$SERVER_PID" 2>/dev/null && \
        wait "$SERVER_PID" 2>/dev/null
    rm -f "$LOG"
}
trap cleanup EXIT

"$SERVER" --port 0 --executors 2 >"$LOG" 2>&1 &
SERVER_PID=$!
PORT=""
i=0
while [ $i -lt 100 ]; do
    PORT=$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "$LOG")
    [ -n "$PORT" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$PORT" ]; then
    echo "run_server_bench: server did not report a port" >&2
    cat "$LOG" >&2
    exit 1
fi

# No pipeline here: the loadgen's exit code (nonzero on ANY failed
# request) must propagate through `set -e`.
"$LOADGEN" --port "$PORT" --clients 4 --requests 500 \
    --adversarial-every 4
