#!/usr/bin/env bash
# Builds the host benchmark from the source tree it sits in, then runs it
# with the given arguments from the repository root. Every build product
# (binary, Go build cache, Go config) stays under .bench_build/ at the
# repository root, and the Go toolchain is pinned to the local install
# with the module proxy off, so a build never reaches the network.
#
#   bash benchmark/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh                   # every workload, one child each
#   bash benchmark/run.sh compare OLD.json NEW.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

(
	cd "$root/benchmark"
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
		GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
	go build -o "$out/genesys-bench" .
)

cd "$root"
exec "$out/genesys-bench" "$@"
