#!/usr/bin/env bash
# Builds bench/fxload from source and runs it. This is BENCHMARK.json's
# command:
#
#   bash bench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# "all" runs the four workloads in their fixed order, each in a fresh
# process. Everything the build and the run write stays inside the
# checkout: the binary and Go's caches under .bench_build/, traces and
# the durable workload's data under bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export TMPDIR=$build/tmp # the go command writes temporaries outside GOTMPDIR too

GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp GOENV=off \
GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off XDG_CONFIG_HOME=$build/config \
	go build -C bench -o "$build/fxload" ./fxload

args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case ${args[i]} in
	-workload | --workload) name=${args[i + 1]-} at=$((i + 1)) ;;
	-workload=* | --workload=*) name=${args[i]#*=} at=$i flagform=1 ;;
	esac
done
if [[ ${name-} != all ]]; then
	exec "$build/fxload" "$@"
fi
for w in gate_point gate_scan memory_point durable_mixed; do
	if [[ -n ${flagform-} ]]; then args[at]=--workload=$w; else args[at]=$w; fi
	"$build/fxload" "${args[@]}"
done
