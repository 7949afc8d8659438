#!/usr/bin/env bash
# Builds the daemon and the benchmark from source in the current
# checkout, then runs the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 15 --trace 0
#
# The benchmark and the daemons it starts (which inherit the mask) run
# on one core, the last one this process may use: the client and the
# daemon take turns in a closed loop, so they lose no parallelism, and
# the speed the benchmark measures next to its timed work (speed.ml) is
# that of the core doing the work.
set -euo pipefail
dune build --root . ./bin/amos_cli.exe ./perfbench/perfbench.exe 1>&2
bench=./_build/default/perfbench/perfbench.exe
if command -v taskset >/dev/null; then
  cpus=$(taskset -pc $$ | sed 's/.*: *//')
  exec taskset -c "${cpus##*[,-]}" "$bench" "$@"
fi
echo "run.sh: taskset not found, running unpinned" >&2
exec "$bench" "$@"
