#!/usr/bin/env bash
# End-to-end daemon smoke (the ctest `gateway_smoke` entry):
#
#   1. saiyand --record writes a deterministic multi-tag trace with
#      ground-truth markers;
#   2. saiyand serves it from a --config file whose `workers` differs
#      from --workers, throttled so the replay is still in flight when
#      the signal lands;
#   3. saiyand-control polls `stats` over the control socket;
#   4. a SIGHUP mid-replay re-reads the file and re-applies the flags
#      over it, so the reload is accepted — in-flight jobs must keep
#      decoding (zero dropped frames);
#   5. the script waits until frames_decoded == markers_expected, then
#      drains and SIGTERMs.
#
# Before serving, a negative numeric flag must exit 2 naming the flag.
# Any lost frame, failed job, dead daemon, rejected reload, or wedged
# socket fails the script.
# Usage: gateway_smoke.sh <saiyand> <saiyand-control>
set -euo pipefail

SAIYAND=${1:?usage: gateway_smoke.sh <saiyand> <saiyand-control>}
CONTROL=${2:?usage: gateway_smoke.sh <saiyand> <saiyand-control>}

WORK=$(mktemp -d "${TMPDIR:-/tmp}/saiyan_gw_smoke.XXXXXX")
SOCK="$WORK/control.sock"
TRACE="$WORK/demo.sytrc"
DAEMON_PID=

cleanup() {
  [[ -n $DAEMON_PID ]] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

stat_value() {  # stat_value <key> <stats-text>
  awk -v k="$1" '$1 == k { print $2; found = 1 } END { exit !found }' <<<"$2"
}

# --- 0. numeric flags are strict --------------------------------------
# The address-space cap makes a regression that reaches an allocation
# sized by a wrapped value fail fast instead of eating the host. ASan
# and TSan reserve terabytes of shadow address space and cannot start
# under a cap, so their builds run uncapped.
VMEM_CAP=1500000
if grep -qaE '__(a|t)san_init' "$SAIYAND"; then VMEM_CAP=unlimited; fi
expect_flag_rejected() {  # expect_flag_rejected <flag> <saiyand args...>
  local flag=$1 rc=0
  shift
  (ulimit -v "$VMEM_CAP"; exec "$SAIYAND" "$@") >/dev/null 2>"$WORK/flag.err" || rc=$?
  if [[ $rc -ne 2 ]] || ! grep -q -- "$flag" "$WORK/flag.err"; then
    echo "$*: expected exit 2 naming $flag, got exit $rc"; cat "$WORK/flag.err"; exit 1
  fi
}
expect_flag_rejected --workers --workers -3 --oneshot --socket "$WORK/neg.sock"
expect_flag_rejected --tags --record "$WORK/neg.sytrc" --tags -1

# --- 1. record ---------------------------------------------------------
"$SAIYAND" --record "$TRACE" --tags 3 --packets 4 --payload-symbols 16

# --- 2. serve, throttled so SIGHUP lands mid-replay --------------------
# The flags apply after the file, at start and on reload.
printf 'workers 1\nthrottle_us 0\n' >"$WORK/saiyand.conf"
"$SAIYAND" --config "$WORK/saiyand.conf" --trace "$TRACE" --socket "$SOCK" \
  --workers 2 --throttle-us 3000 >"$WORK/daemon.out" 2>"$WORK/daemon.err" &
DAEMON_PID=$!

# --- 3. wait for the control socket ------------------------------------
STATS=
for _ in $(seq 1 100); do
  if STATS=$("$CONTROL" --socket "$SOCK" stats 2>/dev/null); then
    break
  fi
  kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$WORK/daemon.err"; echo "daemon died before serving"; exit 1; }
  sleep 0.1
done
[[ -n $STATS ]] || { echo "control socket never came up"; exit 1; }

EXPECTED=$(stat_value markers_expected "$STATS")
[[ $EXPECTED -gt 0 ]] || { echo "no markers expected?"; exit 1; }

# --- 4. SIGHUP mid-replay ----------------------------------------------
DECODED=$(stat_value frames_decoded "$STATS")
if [[ $DECODED -ge $EXPECTED ]]; then
  echo "replay finished before the reload could land mid-flight" >&2
  exit 1
fi
kill -HUP "$DAEMON_PID"

# --- 5. poll until every ground-truth frame is decoded -----------------
DONE=0
for _ in $(seq 1 300); do
  STATS=$("$CONTROL" --socket "$SOCK" stats)
  DECODED=$(stat_value frames_decoded "$STATS")
  if [[ $DECODED -ge $EXPECTED ]]; then DONE=1; break; fi
  kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$WORK/daemon.err"; echo "daemon died mid-replay"; exit 1; }
  sleep 0.1
done
[[ $DONE -eq 1 ]] || { echo "timed out: decoded $DECODED of $EXPECTED"; cat "$WORK/daemon.err"; exit 1; }

# --- 6. assertions ------------------------------------------------------
[[ $DECODED -eq $EXPECTED ]] || { echo "decoded $DECODED != expected $EXPECTED"; exit 1; }
RELOADS=$(stat_value config_reloads "$STATS")
[[ $RELOADS -ge 1 ]] || { echo "SIGHUP reload not recorded"; cat "$WORK/daemon.err"; exit 1; }
WORKERS=$(stat_value workers "$STATS")
[[ $WORKERS -eq 2 ]] || { echo "--workers 2 lost to the file: $WORKERS workers"; exit 1; }
FAILED=$(stat_value jobs_failed "$STATS")
[[ $FAILED -eq 0 ]] || { echo "$FAILED jobs failed"; exit 1; }
DROPPED=$(stat_value ingest.spans_dropped "$STATS")
[[ $DROPPED -eq 0 ]] || { echo "$DROPPED spans dropped across reload"; exit 1; }

# --- 7. graceful drain + stop ------------------------------------------
"$CONTROL" --socket "$SOCK" drain
kill -TERM "$DAEMON_PID"
for _ in $(seq 1 100); do
  kill -0 "$DAEMON_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then
  echo "daemon ignored SIGTERM"; exit 1
fi
wait "$DAEMON_PID" || { echo "daemon exited nonzero"; exit 1; }
DAEMON_PID=

grep -q "frames_decoded $EXPECTED" "$WORK/daemon.out" \
  || { echo "final stats dump missing"; cat "$WORK/daemon.out"; exit 1; }

echo "gateway_smoke: $EXPECTED/$EXPECTED frames across a mid-replay reload"
