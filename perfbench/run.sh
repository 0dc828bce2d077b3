#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload capture-serial --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build artifact and cache stays under
# .bench_build/ (or $CARGO_TARGET_DIR when set), so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod not found)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

go -C "$root/perfbench" build -o "$build/perfbench" .

# --workload all runs the three workloads one after another with the same
# seed and flags; it exits non-zero if any of them fails.
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
	if [[ ${args[i]} == --workload && ${args[i + 1]} == all ]]; then
		status=0
		for w in capture-serial capture-impaired daemon; do
			args[i + 1]=$w
			"$build/perfbench" "${args[@]}" || status=1
		done
		exit "$status"
	fi
done
exec "$build/perfbench" "$@"
