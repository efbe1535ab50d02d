#!/bin/sh
# Build the benchmark from source, then run it from the repository root.
# Arguments go to `gossip_benchmark run` unless the first one names
# another subcommand:
#   sh benchmark/run.sh --workload certify-sweep --seed 1 --seconds 25 --trace 0
#   sh benchmark/run.sh compare ../parent ../change
set -eu
cd "$(dirname "$0")/.."
exe=./_build/default/benchmark/gossip_benchmark.exe
dune build --root . "$exe" 1>&2
case "${1:-}" in
  run | compare) exec "$exe" "$@" ;;
  *) exec "$exe" run "$@" ;;
esac
