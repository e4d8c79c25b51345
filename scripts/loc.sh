#!/usr/bin/env bash
# Code-diet ratchets: prints the non-test Go lines of every package by the
# ROADMAP "Code diet" count, then the number of binaries (cmd/*), internal
# packages (internal/*), named CI steps and the bytes of the four prose
# documents (README, DESIGN, EXPERIMENTS, CHANGES), and fails when any of
# the five exceeds its ceiling. The ceilings only ever move down: a PR that shrinks
# a count lowers its ceiling to its own result, a PR that grows one past
# it has to delete something first (or argue the case in review and raise
# it by hand).
set -euo pipefail
cd "$(dirname "$0")/.."

LINES_CEILING=23777
BINARIES_CEILING=6
PACKAGES_CEILING=27
CI_STEPS_CEILING=24
DOC_BYTES_CEILING=229645

per_package=$(find . -name '*.go' -not -name '*_test.go' \
	-not -path './bench/*' -not -path './scripts/*' -not -path './examples/*' \
	-print0 | xargs -0 wc -l |
	awk '$2 != "total" { sub(/\/[^\/]*$/, "", $2); n[$2] += $1 } END { for (d in n) printf "%7d  %s\n", n[d], d }' |
	sort -k2)
echo "$per_package"

fail=0
ratchet() { # name count ceiling
	printf '%7d  %s (ceiling %d)\n' "$2" "$1" "$3"
	if (($2 > $3)); then
		echo "loc: $2 $1 exceed the ceiling of $3" >&2
		fail=1
	fi
}
ratchet 'non-test Go lines' "$(awk '{ t += $1 } END { print t }' <<<"$per_package")" "$LINES_CEILING"
ratchet 'binaries (cmd/*)' "$(ls cmd | wc -l)" "$BINARIES_CEILING"
ratchet 'packages (internal/*)' "$(ls internal | wc -l)" "$PACKAGES_CEILING"
ratchet 'CI steps' "$(grep -c '^      - name:' .github/workflows/ci.yml)" "$CI_STEPS_CEILING"
ratchet 'document bytes' "$(cat README.md DESIGN.md EXPERIMENTS.md CHANGES.md | wc -c)" "$DOC_BYTES_CEILING"
exit "$fail"
