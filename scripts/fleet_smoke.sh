#!/usr/bin/env bash
# Fleet smoke gate over the cross-process (socket) transport:
#
#   Leg 1 (sockets): start two persistent `ptest_cli --listen 0` worker
#   daemons ONCE, then run the whole catalog through them — one
#   `--connect host:port,host:port` coordinator per scenario at a small
#   budget — and diff the merged corpus each coordinator exports
#   against the corpus of a plain single-process run of the same
#   scenario and budget.  The fleet invariant says the two must be
#   byte-identical; any difference fails the script.  The same two
#   daemon processes serving every campaign is the persistence claim.
#
#   Leg 2 (trace): one scenario re-runs through the same persistent
#   socket daemons with `--trace`, and scripts/check_trace.py validates
#   the stitched Chrome trace — both worker lanes present with their
#   compile/session spans, the coordinator lane carrying issue/ack/
#   merge, monotonic timestamps, and zero dropped events (the rings
#   must not wrap at smoke scale).
#
#   scripts/fleet_smoke.sh BUILD_DIR [BUDGET] [TRACE_OUT]
#
# BUDGET defaults to 8 sessions per scenario — enough for every oracle
# check ptest_cli performs to be exercised while keeping the whole
# catalog sweep CI-fast.  Exit codes from the fleet runs themselves are
# respected per scenario: buggy scenarios must satisfy their oracle
# (exit 0), and a 64 from either side is a wiring bug.  TRACE_OUT names
# where the leg-2 trace lands (CI uploads it as an artifact); default
# is inside the throwaway workdir.  Finally `--halt-fleet` shuts the
# daemons down, and both must exit 0.
set -euo pipefail

build_dir="${1:?usage: fleet_smoke.sh BUILD_DIR [BUDGET] [TRACE_OUT]}"
budget="${2:-8}"
trace_out="${3:-}"
cli="${build_dir}/examples/ptest_cli"
script_dir="$(cd "$(dirname "$0")" && pwd)"
[ -x "$cli" ] || { echo "error: $cli not built" >&2; exit 2; }

workdir="$(mktemp -d)"
daemon0_pid=""
daemon1_pid=""
cleanup() {
  # Belt and braces: the daemons normally exit via --halt-fleet below.
  [ -n "$daemon0_pid" ] && kill "$daemon0_pid" 2>/dev/null || true
  [ -n "$daemon1_pid" ] && kill "$daemon1_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

# The plain-text catalog listing: first column of every row after the
# header line.
scenarios="$("$cli" --list-scenarios | awk 'NR > 1 { print $1 }')"
[ -n "$scenarios" ] || { echo "error: empty scenario catalog" >&2; exit 2; }

# --- socket daemons: started once, serving the entire sweep ----------------
"$cli" --listen 0 > "$workdir/daemon0.out" 2>&1 &
daemon0_pid=$!
"$cli" --listen 0 > "$workdir/daemon1.out" 2>&1 &
daemon1_pid=$!
# Each daemon prints "listening on port N" before serving.
port_of() {
  local out="$1" port="" i
  for i in $(seq 1 100); do
    port="$(awk '/^listening on port / { print $4; exit }' "$out" 2>/dev/null)"
    [ -n "$port" ] && break
    sleep 0.1
  done
  [ -n "$port" ] || { echo "error: no port in $out" >&2; exit 2; }
  echo "$port"
}
port0="$(port_of "$workdir/daemon0.out")"
port1="$(port_of "$workdir/daemon1.out")"
endpoints="localhost:$port0,localhost:$port1"
echo "socket daemons up on ports $port0, $port1"

failed=0
for scenario in $scenarios; do
  serial_corpus="$workdir/$scenario-serial.json"
  socket_corpus="$workdir/$scenario-socket.json"

  # Single-process reference (its corpus is the whole budget as one
  # span — exactly what the fleet must merge back to).  2 = oracle not
  # satisfied at this tiny budget, which is legitimate; anything else
  # nonzero is a wiring failure.  The fleet run must agree either way.
  serial_code=0
  "$cli" --scenario "$scenario" --runs "$budget" \
         --export-corpus "$serial_corpus" \
         > "$workdir/$scenario-serial.out" 2>&1 || serial_code=$?
  if [ "$serial_code" -ne 0 ] && [ "$serial_code" -ne 2 ]; then
    echo "FAIL $scenario: serial run exited $serial_code" >&2
    cat "$workdir/$scenario-serial.out" >&2
    failed=1
    continue
  fi

  # Leg 1: the same campaign through the two persistent socket daemons.
  socket_code=0
  "$cli" --scenario "$scenario" --runs "$budget" --connect "$endpoints" \
         --fleet 2 --export-corpus "$socket_corpus" \
         > "$workdir/$scenario-socket.out" 2>&1 || socket_code=$?
  if [ "$socket_code" -ne "$serial_code" ]; then
    echo "FAIL $scenario: serial exit $serial_code vs socket exit $socket_code" >&2
    cat "$workdir/$scenario-socket.out" >&2
    failed=1
    continue
  fi
  if ! cmp -s "$serial_corpus" "$socket_corpus"; then
    echo "FAIL $scenario: socket corpus differs from single-process" >&2
    diff "$serial_corpus" "$socket_corpus" >&2 || true
    failed=1
    continue
  fi
  echo "ok $scenario (exit $serial_code, socket corpus identical to serial)"
done

# --- leg 2: trace one campaign through the same daemons --------------------
# The daemons have already served the whole catalog; the traced run
# proves the observability path works on a long-lived fleet, not just a
# fresh one.  check_trace.py gates the stitched document: both worker
# lanes with compile/session spans, coordinator issue/ack/merge,
# monotonic timestamps, zero drops.
[ -n "$trace_out" ] || trace_out="$workdir/fleet_trace.json"
trace_scenario="$(echo "$scenarios" | head -n 1)"
trace_code=0
"$cli" --scenario "$trace_scenario" --runs "$budget" --connect "$endpoints" \
       --fleet 2 --trace "$trace_out" \
       > "$workdir/trace-run.out" 2>&1 || trace_code=$?
if [ "$trace_code" -ne 0 ] && [ "$trace_code" -ne 2 ]; then
  echo "FAIL: traced run of $trace_scenario exited $trace_code" >&2
  cat "$workdir/trace-run.out" >&2
  failed=1
elif ! python3 "$script_dir/check_trace.py" "$trace_out" --expect-workers 2
then
  echo "FAIL: check_trace.py rejected $trace_out" >&2
  failed=1
else
  echo "ok trace ($trace_scenario through both daemons -> $trace_out)"
fi

# A clean explicit shutdown: the daemons that served the whole catalog
# must exit 0 on the halt broadcast, not be killed.
"$cli" --halt-fleet --connect "$endpoints" || {
  echo "FAIL: --halt-fleet errored" >&2
  failed=1
}
halt_ok=1
wait "$daemon0_pid" || { echo "FAIL: daemon 0 exited nonzero" >&2; halt_ok=0; }
wait "$daemon1_pid" || { echo "FAIL: daemon 1 exited nonzero" >&2; halt_ok=0; }
daemon0_pid=""
daemon1_pid=""
[ "$halt_ok" -eq 1 ] || failed=1

if [ "$failed" -ne 0 ]; then
  echo "fleet smoke: FAILED" >&2
  exit 1
fi
echo "fleet smoke: all scenarios bit-identical to serial over sockets"
