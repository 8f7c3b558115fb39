#!/usr/bin/env bash
# bench-alternate.sh runs the bench-gate benchmarks of a head checkout
# and, optionally, a base checkout in alternating rounds: head, base,
# head, base, ... Each round runs the three benchmark invocations below
# once per side (-count 1), so slow phases of a shared host land on
# both sides alike instead of on whichever side ran second. Each side's
# test binaries are built once, before the first round.
#
# Usage (from the head checkout's root):
#
#	.github/bench-alternate.sh ROUNDS OUT_DIR HEAD_DIR [BASE_DIR]
#
# It writes OUT_DIR/bench-head.txt and, given BASE_DIR,
# OUT_DIR/bench-base.txt: the concatenated outputs that benchstat and
# cmd/benchgate read. The test binaries go to OUT_DIR/.benchbin-head
# and OUT_DIR/.benchbin-base.
set -euo pipefail

rounds=$1
out=$(realpath "$2")
head=$(realpath "$3")
base=${4:+$(realpath "$4")}

# The benchmarks run in three invocations, because a -bench pattern
# with a '/' level runs no benchmark that lacks sub-benchmarks:
#   1. every package: the sub-benchmarked ladders at one rung (n=1000,
#      or n=15 for the exact solver), 5 iterations per run;
#   2. the engine microbenchmarks and the service hot paths, 2000
#      iterations per run;
#   3. the root package's simulation benchmarks, 5 iterations per run.
bench1='^(BenchmarkPlanNearestNeighbor|BenchmarkPlanGreedyEdge|BenchmarkPlanConvexHullInsertion|BenchmarkPlanKMeans|BenchmarkPlanFleet|BenchmarkPlanRegions|BenchmarkPlanCHBAssign|BenchmarkReplanAbsorb|BenchmarkOptimalHeldKarp|BenchmarkCellSimulation)$/^n=(1000|15)$'
bench2='^(BenchmarkEngine|BenchmarkEngineCancel|BenchmarkCacheHitSweep|BenchmarkCacheDedup|BenchmarkRemoteDispatch|BenchmarkServerWarmSweep)$'
bench3='^(BenchmarkSimulationThroughput|BenchmarkSimulationEngine|BenchmarkSimulationExclusive|BenchmarkSimulationExclusiveRegions)$'

# build compiles, for the checkout $1, the test binary of every
# package with tests into the directory $2, and lists the package
# directories (relative to the checkout: "." or "./internal/...") in
# $2/pkgs.
build() {
	local dir=$1 bin=$2 rel
	rm -rf "$bin"
	mkdir -p "$bin"
	(
		cd "$dir"
		for rel in $(go list -f '{{if or .TestGoFiles .XTestGoFiles}}{{.Dir}}{{end}}' ./...); do
			rel=.${rel#"$dir"}
			go test -c -o "$bin/$(tr / _ <<<"$rel").test" "$rel"
			echo "$rel" >>"$bin/pkgs"
		done
	)
}

# run appends to $3 one invocation over the binaries in $2 built from
# the checkout $1, each run in its package directory as go test would:
# $4 is the -bench pattern, $5 the -benchtime, and the remaining
# arguments are the package directories.
run() {
	local dir=$1 bin=$2 dst=$3 pattern=$4 benchtime=$5 rel
	shift 5
	for rel in "$@"; do
		(
			cd "$dir/$rel"
			"$bin/$(tr / _ <<<"$rel").test" -test.run '^$' \
				-test.bench "$pattern" -test.benchtime "$benchtime" \
				-test.count 1 -test.timeout 10m
		) >>"$dst"
	done
}

# round runs the three invocations once over the checkout $1 for side
# $2 (head or base).
round() {
	local dir=$1 bin=$out/.benchbin-$2 dst=$out/bench-$2.txt
	run "$dir" "$bin" "$dst" "$bench1" 5x $(cat "$bin/pkgs")
	run "$dir" "$bin" "$dst" "$bench2" 2000x ./internal/sim ./internal/sweep/cache ./internal/sweep/dispatch ./internal/sweep/server
	run "$dir" "$bin" "$dst" "$bench3" 5x .
}

mkdir -p "$out"
build "$head" "$out/.benchbin-head"
: >"$out/bench-head.txt"
if [ -n "$base" ]; then
	build "$base" "$out/.benchbin-base"
	: >"$out/bench-base.txt"
fi
for i in $(seq 1 "$rounds"); do
	echo "round $i of $rounds" >&2
	round "$head" head
	if [ -n "$base" ]; then
		round "$base" base
	fi
done
