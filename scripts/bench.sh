#!/bin/sh
# bench.sh — snapshot the repository's headline benchmarks into a
# dated JSON file (BENCH_<YYYY-MM-DD>.json in the repo root) so perf
# regressions are visible across PRs.
#
# Usage: scripts/bench.sh [-count N] [-benchtime D] [output.json]
set -eu

cd "$(dirname "$0")/.."

COUNT=3
BENCHTIME=1s
OUT=""
while [ $# -gt 0 ]; do
	case "$1" in
	-count) COUNT="$2"; shift 2 ;;
	-benchtime) BENCHTIME="$2"; shift 2 ;;
	*) OUT="$1"; shift ;;
	esac
done
DATE=$(date +%Y-%m-%d)
# Default output is keyed by date and never overwrites an existing
# snapshot: a second run on the same day writes BENCH_<date>.2.json,
# then .3, ... An explicit output argument is used verbatim.
if [ -z "$OUT" ]; then
	OUT="BENCH_${DATE}.json"
	N=2
	while [ -e "$OUT" ]; do
		OUT="BENCH_${DATE}.${N}.json"
		N=$((N + 1))
	done
fi

PATTERN='^(BenchmarkAddressFX|BenchmarkInverseMapping|BenchmarkClusterRetrieve|BenchmarkBatchRetrieve|BenchmarkDistributedRetrieve|BenchmarkDurableRetrieve|BenchmarkDurableBulkLoad|BenchmarkScanMatching|BenchmarkPlanCache|BenchmarkRetrieveWithInjectedLatency|BenchmarkRetrieveInstrumentation|BenchmarkGateRetrieve|BenchmarkGateRetrieveParallel|BenchmarkClientRetrieve)'
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

echo "running go test -bench '$PATTERN' -benchtime $BENCHTIME -count $COUNT ..." >&2
# The root package holds the headline ladder; internal/engine holds the
# reporting-overhead isolate (BenchmarkRetrieveInstrumentation/off|on),
# internal/pagestore the durable scan's inner loop (BenchmarkScanMatching).
go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" -count "$COUNT" -benchmem . ./internal/engine ./internal/pagestore | tee "$RAW" >&2

GOVERSION=$(go version | sed 's/^go version //')
COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

# Fold repeated -count runs of each benchmark into mean ns/op, B/op,
# allocs/op, and emit one JSON object per benchmark.
awk -v date="$DATE" -v gover="$GOVERSION" -v commit="$COMMIT" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)          # strip -GOMAXPROCS suffix
	runs[name]++
	iters[name] += $2
	for (i = 3; i < NF; i++) {
		if ($(i+1) == "ns/op")     ns[name] += $i
		if ($(i+1) == "B/op")      bytes[name] += $i
		if ($(i+1) == "allocs/op") allocs[name] += $i
	}
}
END {
	printf "{\n"
	printf "  \"date\": \"%s\",\n", date
	printf "  \"go\": \"%s\",\n", gover
	printf "  \"commit\": \"%s\",\n", commit
	printf "  \"benchmarks\": [\n"
	n = 0
	for (name in runs) order[++n] = name
	# stable output: sort names
	for (i = 1; i <= n; i++)
		for (j = i + 1; j <= n; j++)
			if (order[j] < order[i]) { t = order[i]; order[i] = order[j]; order[j] = t }
	for (i = 1; i <= n; i++) {
		name = order[i]
		printf "    {\"name\": \"%s\", \"runs\": %d, \"iterations\": %d, \"ns_per_op\": %.1f", \
			name, runs[name], iters[name], ns[name] / runs[name]
		if (name in bytes)  printf ", \"bytes_per_op\": %.1f", bytes[name] / runs[name]
		if (name in allocs) printf ", \"allocs_per_op\": %.1f", allocs[name] / runs[name]
		printf "}%s\n", (i < n ? "," : "")
	}
	printf "  ]\n}\n"
}' "$RAW" >"$OUT"

echo "wrote $OUT" >&2
