#!/usr/bin/env bash
# A/A check: two interleaved sets (a, b) of RUNS runs of this checkout on
# every workload, then a table of both sets' medians and quartiles per
# workload and end-to-end metric against the bounds in BENCHMARK.json.
# Every run has the same seed, so what the table shows is the box's
# noise and nothing else. Exits non-zero when set b's median is worse
# than set a's by more than a bound, when a set's quartile distance
# exceeds its bound, when an in-set spread (max-min)/median exceeds 10%
# (setup_s excepted), or when any run failed an operation.
#
#   bash bench/aa.sh            # 5 runs per set, seed 1, BENCHMARK.json's run_seconds
#   RUNS=10 SEED=100 SEED_STEP=1 bash bench/aa.sh
#
# SEED_STEP=1 gives every run a seed of its own, which is how the
# driver accepts a benchmark: ten runs on ten seeds, twice.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
runs=${RUNS:-5}
seed=${SEED:-1}
step=${SEED_STEP:-0}
seconds=${SECONDS_PER_RUN:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
out=bench/out/aa
rm -rf "$out"
mkdir -p "$out"
for ((i = 1; i <= runs; i++)); do
	for set in a b; do
		for w in gate_point gate_scan memory_point durable_mixed; do
			bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
				>"$out/$set-$w-$i.txt" || echo "run $set-$w-$i exited $?" >&2
		done
		seed=$((seed + step))
	done
done
.bench_build/fxload -aa "$out" -benchmark BENCHMARK.json
