#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with
# the given arguments.  Run it from the repository root, e.g.
#   bash benchmark/run.sh --workload rpc --seed 1 --seconds 20 --trace 0
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run this from the repository root (dune-project and lib/ not found)" >&2
  exit 2
fi
# Keep every build product inside the checkout: no shared dune cache, and
# the compiler's temporary files under _build.
export DUNE_CACHE=disabled
export TMPDIR="$PWD/_build/tmp"
mkdir -p "$TMPDIR"
dune build --root . --display quiet ./benchmark/run.exe >&2
exec ./_build/default/benchmark/run.exe "$@"
