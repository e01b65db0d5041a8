#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# e.g. `bash tools/bench/run.sh --workload registry-sweep --seed 0
# --seconds 36 --trace 0`, from the repository root. The binary, the Go
# build cache and the go command's temporary and telemetry files all
# live under .bench_build (or $CARGO_TARGET_DIR when set), so a run
# reads and writes only inside the checkout. Outside a full checkout the
# build fails and the script exits non-zero without running anything.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomod XDG_CONFIG_HOME=$out/config
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/tools/bench" && go build -o "$out/vpbench" .)
exec "$out/vpbench" "$@"
