#!/usr/bin/env bash
# Builds cavbench from source and runs it with the given arguments. Run
# from the repository root; every file the toolchain and the benchmark
# write stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
go -C "$root/cavbench" build -buildvcs=false -o "$out/cavbench" .
exec "$out/cavbench" "$@"
