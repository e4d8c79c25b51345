// Command benchdiff is the perf-regression gate: it compares two
// benchmark snapshots written by scripts/bench.sh and exits non-zero
// when the current one regresses past the gates (ns/op beyond the
// noise allowance, B/op growth, allocs/op creep, or a benchmark
// missing from the current snapshot).
//
// Usage:
//
//	scripts/bench.sh /tmp/cur.json
//	benchdiff BENCH_2026-08-05.4.json /tmp/cur.json
//	benchdiff -ns-frac 0.5 -bytes-frac 0.3 -allocs-frac 0.1 base.json cur.json
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	def := DefaultThresholds()
	nsFrac := flag.Float64("ns-frac", def.NsFrac, "allowed fractional ns/op growth before failing")
	bytesFrac := flag.Float64("bytes-frac", def.BytesFrac, "allowed fractional B/op growth before failing")
	allocsFrac := flag.Float64("allocs-frac", def.AllocsFrac, "allowed fractional allocs/op growth before failing")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-ns-frac F] [-bytes-frac F] [-allocs-frac F] base.json current.json")
		os.Exit(2)
	}
	base, err := Load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := Load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	th := Thresholds{NsFrac: *nsFrac, BytesFrac: *bytesFrac, AllocsFrac: *allocsFrac}
	deltas, regressed := Diff(base, cur, th)
	WriteText(os.Stdout, base, cur, deltas, th)
	if regressed {
		fmt.Fprintln(os.Stderr, "benchdiff: performance regression detected")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
