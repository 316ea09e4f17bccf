#!/usr/bin/env bash
# Builds cmd/ssspd and the benchmark from source, then runs one
# benchmark pass. Run it from the repository root:
#
#   bash bench/run.sh --workload road-hit --seed 1 --seconds 30 --trace 0
#
# Every file the toolchain or the benchmark writes goes under
# .bench_build/ in the current directory, and the module proxy is off:
# the benchmark needs only the standard library. Every process it starts
# has ended when it exits.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# With telemetry on, each go command may leave a detached upload process
# behind it. "go telemetry off" starts none itself and records the mode
# under $XDG_CONFIG_HOME, so the builds below start none either.
go telemetry off
go build -o "$out/ssspd" ./cmd/ssspd
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -ssspd "$out/ssspd" -out "$out" "$@"
