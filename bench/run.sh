#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. It builds the harness from the
# checkout's own source and runs it with the arguments it was given:
#
#	bash bench/run.sh --workload burst-storm --seed 1 --seconds 20 --trace 0
#
# Everything it writes — the Go build cache, the binary, the run's
# snapshot files — stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go build -o "$out/swift-bench" ./bench
exec "$out/swift-bench" "$@"
