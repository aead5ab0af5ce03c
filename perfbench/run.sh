#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the module root:
#
#   bash perfbench/run.sh --workload sim-mix --seed 1 --seconds 30 --trace 0
#
# The binary and the Go build cache live under $CARGO_TARGET_DIR (default
# .bench_build) and a traced run writes its spans to .bench_build, so
# nothing is written outside the checkout.
set -euo pipefail

if ! grep -qs '^module anonconsensus$' go.mod || [ ! -f perfbench/main.go ]; then
	echo "perfbench: run from the root of an anonconsensus checkout (go.mod and perfbench/ not found)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
