#!/usr/bin/env bash
# Builds the benchmark and votmd from the source tree it sits in, then runs
# the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload kv-read-skew --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory (Go build cache included), so nothing outside the
# checkout is touched.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/votmd" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/votmd here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

go build -o "$build/votmd" ./cmd/votmd
(cd "$root/perfbench" && go build -o "$build/perfbench" .)

exec "$build/perfbench" -root "$root" -votmd "$build/votmd" "$@"
