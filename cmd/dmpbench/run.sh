#!/usr/bin/env bash
# Builds dmpbench from source and runs it with the given arguments. Run
# it from the repository root. The build cache, the binary, temporary
# files and trace output all stay under .bench_build there.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd cmd/dmpbench && go build -o "$out/dmpbench" .)
exec "$out/dmpbench" "$@"
