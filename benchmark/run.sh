#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash benchmark/run.sh --workload lib-zipf-8k --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh --rank
#
# Everything the build and the runs leave behind (Go build cache, the
# binary, the mail stores) goes under .bench_build/ at the repository
# root; nothing is written elsewhere.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off
export GOFLAGS=-mod=mod

(cd "$here" && go build -o "$out/mailperf" .) >&2
exec "$out/mailperf" -root "$root" "$@"
