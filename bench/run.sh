#!/usr/bin/env bash
# Builds telabench and telamallocd from this checkout, then runs telabench.
#
#   bash bench/run.sh                          # all four workloads
#   bash bench/run.sh -workload serve-repeat -seed 3 -trace 1
#
# Run it from the repository root. Everything the build and the run write —
# Go build cache, binaries, span logs — goes under .bench_build (or
# $CARGO_TARGET_DIR when set), so the checkout is the only place touched.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" || ! -d "$root/cmd/telamallocd" ]]; then
	echo "run.sh: run from the root of a telamalloc checkout" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off CGO_ENABLED=0

go build -C "$root/bench" -o "$out/bin/telabench" .
go build -o "$out/bin/telamallocd" ./cmd/telamallocd
exec "$out/bin/telabench" -daemon "$out/bin/telamallocd" -trace-dir "$out/trace" "$@"
