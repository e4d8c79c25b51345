#!/usr/bin/env bash
# Code-diet ratchet: prints the non-test Go lines of every package by the
# ROADMAP "Code diet" count and fails when the total exceeds CEILING.
# The ceiling only ever moves down: a PR that shrinks the tree lowers it
# to its own result, a PR that grows the tree past it has to delete
# something first (or argue the case in review and raise it by hand).
set -euo pipefail
cd "$(dirname "$0")/.."

CEILING=25199

per_package=$(find . -name '*.go' -not -name '*_test.go' \
	-not -path './bench/*' -not -path './scripts/*' -not -path './examples/*' \
	-print0 | xargs -0 wc -l |
	awk '$2 != "total" { sub(/\/[^\/]*$/, "", $2); n[$2] += $1 } END { for (d in n) printf "%7d  %s\n", n[d], d }' |
	sort -k2)
total=$(awk '{ t += $1 } END { print t }' <<<"$per_package")

echo "$per_package"
printf '%7d  total (ceiling %d)\n' "$total" "$CEILING"
if ((total > CEILING)); then
	echo "loc: $total non-test Go lines exceed the ceiling of $CEILING" >&2
	exit 1
fi
