#!/usr/bin/env bash
# run.sh builds the end-to-end benchmark from the checkout it sits in and
# runs it with the given arguments, from the checkout's root:
#
#   bash bench/run.sh --workload query --seed 3 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root: the Go build cache, the binary, the servers' spill and ledger
# directories, and the span files of traced runs. Outside a full checkout
# (no repro module one directory up) the build fails and so does the run.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS="" GOENV=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/privelet-bench" .)
cd "$root"
exec "$out/privelet-bench" "$@"
