#!/usr/bin/env bash
# Builds the benchmark and coflowd from the source tree it is run in,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload offline-stretch --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binaries, the Go build cache, traces)
# stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/coflowd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/coflowd and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
go build -o "$out/bin/coflowd" ./cmd/coflowd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

# Pin the benchmark, and the coflowd and set-up processes it starts, to
# the last CPU it may use, so that each speed probe runs on the core
# the op it scales ran on (see speed.go).
pin=()
if command -v taskset >/dev/null; then
	cpus=$(taskset -pc $$ | sed 's/.*: //')
	pin=(taskset -c "${cpus##*[,-]}")
fi
exec "${pin[@]}" "$out/bin/perfbench" --coflowd .bench_build/bin/coflowd --out .bench_build "$@"
