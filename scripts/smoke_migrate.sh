#!/usr/bin/env bash
# Migrated-plan tuning-cost smoke test.
#
# Tunes ResNet C5 for A100 seeded with a plan migrated from V100, into a
# fresh cache directory, then checks what the cache economy was told the
# migrated plan cost: its journal record must carry the measured
# tuning time, not the 1.000000 s default an unstamped store falls back
# to.  Any failure exits non-zero.
set -euo pipefail

cd "$(dirname "$0")/.."

dune build bin/amos_cli.exe
CLI=_build/default/bin/amos_cli.exe

DIR="$(mktemp -d "${TMPDIR:-/tmp}/amos-migrate.XXXXXX")"
trap 'rm -rf "$DIR"' EXIT
CACHE="$DIR/cache"

"$CLI" tune --accel a100 --layer C5 --migrate-from v100 --cache-dir "$CACHE" \
  > "$DIR/tune.log" 2>&1 || {
  echo "FAIL: tune --migrate-from exited non-zero"
  sed 's/^/  tune| /' "$DIR/tune.log"
  exit 1
}
grep -q '^\[migrated ' "$DIR/tune.log" || {
  echo "FAIL: no plan was migrated"
  sed 's/^/  tune| /' "$DIR/tune.log"
  exit 1
}

# the migrated entry is the one stored for the target accelerator: its
# record is `add <fp> <bytes> <tuning_seconds> <digest> <entry>`, the
# entry's newlines escaped as \n
add="$(grep '^add .*\\naccel A100\\n' "$CACHE/journal.txt" || true)"
if [ "$(printf '%s\n' "$add" | grep -c .)" -ne 1 ]; then
  echo "FAIL: expected exactly one A100 record in the journal"
  sed 's/^/  journal| /' "$CACHE/journal.txt"
  exit 1
fi
fp="$(printf '%s\n' "$add" | awk '{print $2}')"
seconds="$(printf '%s\n' "$add" | awk '{print $4}')"
if [ -z "$seconds" ] || [ "$seconds" = "1.000000" ]; then
  echo "FAIL: migrated entry stored with the default tuning cost: $add"
  exit 1
fi

echo "OK: migrated entry $fp stored with its measured tuning cost ${seconds}s"
