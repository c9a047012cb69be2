#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash farmbench/run.sh --workload storm --seed 1 --seconds 15 --trace 0
# Run from the repository root. Everything the build writes (the binary,
# the Go build cache, temporary files, Go's own config and telemetry)
# stays under $CARGO_TARGET_DIR, default .bench_build, so the run
# touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
(cd "$here" && go build -o "$out/farmbench" .)
exec "$out/farmbench" "$@"
