#!/usr/bin/env bash
# Builds pimentod and the benchmark driver from the checkout's sources,
# then runs the driver with the given arguments. Everything the build
# and the run leave behind goes under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload fig5-personalized --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --all --seed 1 --seconds 20
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/pimentod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/pimentod and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOENV=off
export XDG_CONFIG_HOME="$out/config" HOME="$out/home"
export CGO_ENABLED=0

go build -o "$out/bin/pimentod" ./cmd/pimentod >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -pimentod "$out/bin/pimentod" "$@"
