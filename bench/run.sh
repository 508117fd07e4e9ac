#!/usr/bin/env bash
# Builds the harness from source and runs it. Everything the build and
# the run leave behind (Go build cache, binary, inputs, span files) goes
# under .bench_build/ at the root of the checkout, nowhere else.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOENV=off
(cd "$here" && go build -o "$out/bench" .) >&2
cd "$root"
exec "$out/bench" -workdir "$out" "$@"
