#!/bin/sh
# Build the shipped CLIs and the benchmark in the release profile, then
# run one workload:
#
#   sh perfbench/run.sh --workload stream_qaoa --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout.  Builds, inputs, outputs and
# results all stay under _perfbench/ there: the dune cache is off and
# TMPDIR points inside the checkout.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
mkdir -p _perfbench/tmp
TMPDIR="$root/_perfbench/tmp"
export TMPDIR
dune build --cache=disabled --root . --profile release --build-dir "$root/_perfbench/build" \
  ./bin/compile_cli.exe ./bin/serve_cli.exe ./perfbench/bench.exe 1>&2
exec _perfbench/build/default/perfbench/bench.exe "$@"
