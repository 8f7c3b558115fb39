#!/usr/bin/env bash
# loc.sh prints the Go line counts of the main module (everything
# outside bench/, which is a module of its own), production and test
# files apart. Given a base revision it also prints the net change of
# the tracked Go files against it. It reports and never gates: net line
# count is a metric to read, not a bound.
#
# Usage (from the repository root):
#
#	.github/loc.sh [BASE_REV]
set -euo pipefail

files=$(git ls-files -co --exclude-standard -- '*.go' ':(exclude)bench/**')
prod=$(grep -v '_test\.go$' <<<"$files" | xargs cat | wc -l)
tests=$(grep '_test\.go$' <<<"$files" | xargs cat | wc -l)
echo "Go lines outside bench/: production $prod, test $tests"

if [ -n "${1:-}" ]; then
	git diff --numstat "$1" -- '*.go' ':(exclude)bench/**' | awk -v base="$1" '
		$1 == "-" { next } # binary
		$3 ~ /_test\.go$/ { ta += $1; td += $2; next }
		{ pa += $1; pd += $2 }
		END {
			printf "net change against %s: production %+d (+%d/-%d), test %+d (+%d/-%d)\n",
				base, pa - pd, pa, pd, ta - td, ta, td
		}'
fi
