#!/usr/bin/env bash
# Builds hcserved and the benchmark driver from the checkout this script sits
# in, then runs one benchmark invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot_reads --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build (or
# $CARGO_TARGET_DIR when set), including the Go build cache, so nothing is
# written outside the checkout. Build output goes to stderr; the last line on
# stdout is the JSON result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/hcserved" ] || [ ! -f "$root/perfbench/go.mod" ]; then
  echo "perfbench: run from the repository root (cmd/hcserved and perfbench/ must be present)" >&2
  exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/hcserved" ./cmd/hcserved >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -hcserved "$out/hcserved" -workdir "$out/run" -root "$root" "$@"
