#!/usr/bin/env bash
# Chaos smoke test: the three-daemon fleet from smoke_fleet.sh, but
# every daemon runs with AMOS_NET_CHAOS injecting faults into 10% of
# its socket operations (short reads, partial writes, stalls, resets,
# corrupted frames).  The contract under test: clients that reconnect
# and retry always get real answers (degraded `source` is fine), no
# daemon ever crashes on an injected fault, a malformed chaos spec is
# rejected at startup instead of silently ignored, and the fleet still
# drains cleanly at the end.
set -euo pipefail

cd "$(dirname "$0")/.."

dune build bin/amos_cli.exe
CLI=_build/default/bin/amos_cli.exe

DIR="$(mktemp -d "${TMPDIR:-/tmp}/amos-chaos.XXXXXX")"
TOKEN="smoke-chaos-token"
BASE=$((11000 + $$ % 20000))
PA=$BASE; PB=$((BASE + 1)); PC=$((BASE + 2))
AA="127.0.0.1:$PA"; AB="127.0.0.1:$PB"; AC="127.0.0.1:$PC"
pids=""
cleanup() {
  for p in $pids; do
    if kill -0 "$p" 2>/dev/null; then
      kill -9 "$p" 2>/dev/null || true
      wait "$p" 2>/dev/null || true
    fi
  done
  rm -rf "$DIR"
}
trap cleanup EXIT

# a malformed chaos spec must refuse to start: a daemon that silently
# ran without its faults would make every chaos run vacuous
if AMOS_NET_CHAOS="rate=banana" "$CLI" serve --tcp "$AA" --token "$TOKEN" \
    > "$DIR/badspec.log" 2>&1; then
  echo "FAIL: daemon started despite a malformed AMOS_NET_CHAOS"
  exit 1
fi
grep -qi "AMOS_NET_CHAOS" "$DIR/badspec.log" \
  || { echo "FAIL: bad-spec refusal does not name AMOS_NET_CHAOS"; exit 1; }

start_daemon() { # name, own addr, peer addrs, chaos seed
  local name=$1 addr=$2 peers=$3 seed=$4
  AMOS_NET_CHAOS="rate=0.1,seed=$seed,stall=0.005" \
    "$CLI" serve --tcp "$addr" --token "$TOKEN" --peers "$peers" \
    --cache-dir "$DIR/cache-$name" --workers 2 \
    > "$DIR/serve-$name.log" 2>&1 &
  eval "pid_$name=$!"
  pids="$pids $!"
}

start_daemon a "$AA" "$AB,$AC" 101
start_daemon b "$AB" "$AA,$AC" 202
start_daemon c "$AC" "$AA,$AB" 303

wait_healthy() { # name, addr
  local name=$1 addr=$2 pid
  eval "pid=\$pid_$name"
  for _ in $(seq 1 100); do
    if "$CLI" client health --tcp "$addr" --token "$TOKEN" > /dev/null 2>&1; then
      return 0
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "FAIL: daemon $name exited during startup"
      sed "s/^/  $name| /" "$DIR/serve-$name.log"
      exit 1
    fi
    sleep 0.1
  done
  echo "FAIL: daemon $name never became healthy"
  exit 1
}
wait_healthy a "$AA"
wait_healthy b "$AB"
wait_healthy c "$AC"

# an injected fault may kill any single connection; a client that
# reconnects must always land the request eventually
retries=0
retry() { # log, cli args...
  local log=$1; shift
  for _ in $(seq 1 15); do
    if "$CLI" "$@" > "$log" 2>&1; then
      return 0
    fi
    retries=$((retries + 1))
    sleep 0.1
  done
  echo "FAIL: request never succeeded under chaos: $*"
  sed "s/^/  chaos| /" "$log"
  exit 1
}

OP="$DIR/gemm.dsl"
cat > "$OP" <<'EOF'
for {i:24, j:16} for {r:16r}: out[i,j] += a[i,r] * b[r,j]
EOF

# tune once through A, carrying a deadline budget through the chaos
retry "$DIR/tune.log" client tune --tcp "$AA" --token "$TOKEN" \
  --accel toy --dsl "$OP" --seed 7 --deadline-ms 5000
grep -q "^fingerprint" "$DIR/tune.log" \
  || { echo "FAIL: tune under chaos printed no plan"; sed 's/^/  tune| /' "$DIR/tune.log"; exit 1; }

# a barrage of repeat tunes through every daemon: 100% must eventually
# be served; which path answers (hot/cache/peer/tuned) may degrade when
# a forward hits an injected fault, but a plan always comes back.  The
# rate applies per socket call and a frame costs one read, so it takes
# 24 rounds to fire some 50 faults across the fleet.
for round in $(seq 1 24); do
  for addr in "$AA" "$AB" "$AC"; do
    retry "$DIR/plan-$round-${addr##*:}.log" client tune \
      --tcp "$addr" --token "$TOKEN" --accel toy --dsl "$OP" --seed 7 \
      --deadline-ms 5000
    grep -q "^source" "$DIR/plan-$round-${addr##*:}.log" \
      || { echo "FAIL: tune via $addr printed no source"; exit 1; }
  done
done

# the barrage must not have taken a daemon down
for pair in "a=$pid_a" "b=$pid_b" "c=$pid_c"; do
  name=${pair%%=*}; pid=${pair#*=}
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "FAIL: daemon $name died under chaos"
    sed "s/^/  $name| /" "$DIR/serve-$name.log"
    exit 1
  fi
done

# stats must still parse over a chaotic wire (retry absorbs faults)
retry "$DIR/stats-a.log" client stats --tcp "$AA" --token "$TOKEN"
grep -q "^uptime" "$DIR/stats-a.log" \
  || { echo "FAIL: stats under chaos did not print uptime"; exit 1; }

# graceful drain still works with faults in flight
shutdown_one() { # name, addr
  local name=$1 addr=$2 pid
  eval "pid=\$pid_$name"
  for _ in $(seq 1 15); do
    if "$CLI" client shutdown --tcp "$addr" --token "$TOKEN" \
        > "$DIR/shutdown-$name.log" 2>&1; then
      grep -q "drained" "$DIR/shutdown-$name.log" \
        || { echo "FAIL: daemon $name shutdown did not report a drain"; exit 1; }
      wait "$pid" || { echo "FAIL: daemon $name exited non-zero"; exit 1; }
      return 0
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
      # the previous attempt's frame landed before its reply was lost
      wait "$pid" || { echo "FAIL: daemon $name exited non-zero"; exit 1; }
      return 0
    fi
    sleep 0.1
  done
  echo "FAIL: daemon $name never acknowledged shutdown"
  exit 1
}
shutdown_one a "$AA"
shutdown_one b "$AB"
shutdown_one c "$AC"
pids=""

# each daemon reports the faults its plan fired as it exits
injected=$(awk '/^amosd: [0-9]+ network faults injected$/ { n += $2 }
  END { print n + 0 }' "$DIR"/serve-[abc].log)
if [ "$injected" -eq 0 ]; then
  echo "FAIL: no fault fired in any daemon — the chaos run is vacuous"
  exit 1
fi

echo "chaos smoke test: OK (bad spec refused, every request landed under a 10% fault rate: $injected faults injected, $retries client retries; no daemon died, clean drain)"
