#!/usr/bin/env bash
# Builds the benchmark from the checkout this is started in and runs it
# with the arguments given. Everything the Go toolchain writes — build
# cache, temporary files, the binary — stays under .bench_build/ in the
# checkout. The first build in a fresh checkout compiles the standard
# library too and takes about a minute; later ones about a second.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: start it from the root of a checkout of the repository" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
