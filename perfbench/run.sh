#!/usr/bin/env bash
# Builds the campaign benchmark and the cmd/diffprop binary it drives into
# .bench_build/ at the repository root, then runs one workload:
#
#   bash perfbench/run.sh --workload sa-c1908 --seed 7 --seconds 30 --trace 0
#
# The Go build, module and telemetry state and the compiler's scratch files
# live in .bench_build/ too, so a run reads and writes nothing outside the
# checkout. Exits non-zero, printing no result, when the repository's
# sources are missing and nothing builds.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/diffprop" repro/cmd/diffprop) >&2
cd "$root"
exec "$out/perfbench" -diffprop "$out/diffprop" -workdir "$out" "$@"
