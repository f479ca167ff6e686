#!/usr/bin/env bash
# Builds the ledger from this checkout and runs it:
#
#   bash ledger/run.sh --workload ny-read|gnu-paged|ingest-mixed|all \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build outputs, the Go build cache, stores and
# reports all stay under .bench_build/ (or $CARGO_TARGET_DIR if set).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/ledger" && go build -buildvcs=false -o "$out/ledger" .)

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/ledger" -workdir "$out/ledger-work" -commit "$commit" "$@"
