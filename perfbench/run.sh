#!/usr/bin/env bash
# Builds overlayd and the benchmark driver from the checkout in the
# current directory (the repository root), then runs one workload:
#
#   bash perfbench/run.sh --workload wire-read --seed 3 --seconds 20 --trace 0
#
# Build outputs, Go's build cache, fleet logs, spans and result copies all
# stay under .bench_build in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/overlayd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
if ! command -v taskset >/dev/null; then
	echo "perfbench: needs taskset (util-linux) to pin the run to one CPU" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
go build -o "$out/overlayd" ./cmd/overlayd
(cd perfbench && go build -o "$out/perfbench" .)

# The driver, the fleet it boots and the load generator all run on one
# CPU, the first this shell may use. On a shared virtual machine a wakeup
# across vCPUs goes through the hypervisor, and its cost follows the other
# tenants' load; on one CPU every hop is a local context switch (README.md,
# "Steadiness").
cpus=$(taskset -pc $$)
cpu=${cpus##*: }
cpu=${cpu%%[,-]*}
exec taskset -c "$cpu" "$out/perfbench" -overlayd "$out/overlayd" -out "$out" "$@"
