#!/usr/bin/env bash
# Builds the spatial-join benchmark from the sources in this checkout and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-tree --seed 1 --seconds 30 --trace 0
#
# The build cache, temporary files, the go command's config and telemetry
# directory, the binary and traced-run span dumps all stay under
# .bench_build/ in the checkout. The build never fetches modules: the
# benchmark depends only on the enclosing spjoin module and the standard
# library.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
