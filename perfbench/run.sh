#!/bin/sh
# Builds the end-to-end benchmark from source and runs it; every argument
# is passed through to perfbench/e2e.exe (see README.md). Run it from the
# repository root:
#   sh perfbench/run.sh --workload ring_serial --seed 1 --seconds 25 --trace 0
set -e
cd "$(dirname "$0")/.."
exec dune exec --root . --display quiet ./perfbench/e2e.exe -- "$@"
