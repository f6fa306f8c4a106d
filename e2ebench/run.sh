#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# with the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload serve-warm --seed 1 --seconds 40 --trace 0
#   bash e2ebench/run.sh steady --workload serve-warm --runs 5 --seconds 40
#   bash e2ebench/run.sh compare .bench_out/run-A.json .bench_out/run-B.json
#   bash e2ebench/run.sh selftest
#
# Everything it builds or writes stays inside the checkout: the Go build
# cache, temporary files and the binary under .bench_build (or
# $CARGO_TARGET_DIR), run records under .bench_out.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/serve" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the repository root; the program's sources (go.mod, internal/serve) are not here" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

if [[ "${1:-}" = selftest ]]; then
	shift
	exec go -C e2ebench test -count=1 "$@" .
fi
go -C e2ebench build -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
