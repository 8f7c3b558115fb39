#!/usr/bin/env bash
# Builds the benchmark (its own Go module in bench/) and runs it. Run it
# from the repository root; every flag is passed through, e.g.
#
#   bash bench/run.sh --workload paper-local --seed 1 --seconds 30 --trace 0
#
# All build state (Go build cache, the built CLIs, temporary files)
# stays in $CARGO_TARGET_DIR, or .bench_build when that is unset, and
# nothing is fetched from the network.
set -euo pipefail
state=${CARGO_TARGET_DIR:-.bench_build}
case $state in /*) ;; *) state=$PWD/$state ;; esac
mkdir -p "$state/gocache" "$state/gomod" "$state/tmp" "$state/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in $state too.
export GOCACHE=$state/gocache GOMODCACHE=$state/gomod GOTMPDIR=$state/tmp TMPDIR=$state/tmp \
	XDG_CONFIG_HOME=$state/config GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=
go -C bench build -o "$state/tctp-bench" .
exec "$state/tctp-bench" "$@"
