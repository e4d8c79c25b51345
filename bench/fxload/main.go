// Command fxload is the repository's end-to-end benchmark: it builds one
// workload's stack in this process from the public constructors, warms
// it, drives a closed loop of clients over it while checking every
// answer against a single-node oracle, and prints each metric by name
// with its unit. The last line of standard output is one JSON object
// (see bench/README.md for the contract and the metric definitions).
//
//	fxload -workload gate_point -seed 1 -seconds 20 -trace 0
//	fxload -aa bench/out/aa            # summarise an A/A run (bench/aa.sh)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"fxdist/internal/mkhash"
)

// defaultSeed is the seed a run uses when none is given.
const defaultSeed = 1

// workloadSpec pins one workload: its relation, its query band, its
// entry point and its write share.
type workloadSpec struct {
	name  string
	entry string // "gate", "memory" or "durable": what buildStack builds
	rel   relation
	band  band
	// writeEvery makes every n-th operation of a client an insert; 0 is
	// read-only.
	writeEvery int
}

// The four workloads, in the fixed order `-workload all` runs them.
var workloads = []workloadSpec{
	{name: "gate_point", entry: "gate", rel: readRelation, band: pointBand},
	{name: "gate_scan", entry: "gate", rel: readRelation, band: scanBand},
	{name: "memory_point", entry: "memory", rel: readRelation, band: pointBand},
	{name: "durable_mixed", entry: "durable", rel: durableRelation, band: midBand, writeEvery: 5},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	warm     float64
	setups   int
	traceOps int
	outDir   string
}

// runner is one run's state.
type runner struct {
	w       workloadSpec
	opt     options
	clients int
	stack   *stack
	streams [][]poolQuery
	states  []clientState
}

// metric is one named, unit-carrying number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what a run reports.
type result struct {
	endToEnd  []metric
	load      []metric // the window's ungated load.* diagnostics
	perLayer  []metric // empty unless traced
	attempted int
	failed    int
	errs      []string
}

func main() {
	var opt options
	var aaDir, benchFile string
	flag.StringVar(&opt.workload, "workload", "", "gate_point, gate_scan, memory_point or durable_mixed")
	flag.Int64Var(&opt.seed, "seed", defaultSeed, "seed of every generated input")
	flag.Float64Var(&opt.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&opt.trace, "trace", 0, "1 replays the layer ladder after the window and reports per-layer metrics")
	flag.Float64Var(&opt.warm, "warm-seconds", 2, "length of the closed-loop warm-up before the window")
	flag.IntVar(&opt.setups, "setups", 5, "times the stack is built; setup_s is the quickest")
	flag.IntVar(&opt.traceOps, "trace-ops", 400, "queries replayed at each rung of the ladder")
	flag.StringVar(&opt.outDir, "out", "bench/out", "directory for trace files and the durable workload's data")
	flag.StringVar(&aaDir, "aa", "", "summarise the A/A result files in this directory and exit")
	flag.StringVar(&benchFile, "benchmark", "BENCHMARK.json", "benchmark definition, read for the bounds by -aa")
	flag.Parse()

	if aaDir != "" {
		ok, err := reportAA(os.Stdout, aaDir, benchFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fxload:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	w, ok := workloadByName(opt.workload)
	if !ok || opt.seconds <= 0 || opt.setups < 1 || opt.traceOps < 1 {
		fmt.Fprintf(os.Stderr, "fxload: unknown workload %q or bad flag value\n", opt.workload)
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(context.Background(), w, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fxload:", err)
		os.Exit(1)
	}
	if !emit(os.Stdout, w.name, opt, res) {
		os.Exit(1)
	}
}

// run executes one workload once.
func run(ctx context.Context, w workloadSpec, opt options) (*result, error) {
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	r := &runner{w: w, opt: opt, clients: procs, states: make([]clientState, procs)}

	// The first set-up is the one the run measures on. The others come
	// after every other number is taken, so that what a closed stack
	// leaves behind can not weigh on the window or on heap_live_mb.
	setups := make([]float64, 1, opt.setups)
	var err error
	if setups[0], err = r.setUp(ctx); err != nil {
		return nil, err
	}
	defer func() { r.stack.close() }() //nolint:errcheck // best-effort teardown on error paths

	warm := r.newLogs(0)
	r.burst(ctx, seconds(opt.warm), warm)
	warmOps := 0
	for _, l := range warm {
		if l.failed > 0 {
			return nil, fmt.Errorf("warm-up: %d of %d operations failed; first failures: %v", l.failed, l.attempted, l.errs)
		}
		warmOps += l.attempted
	}
	// Sample buffers sized from the warm-up's rate, with headroom.
	sampleCap := 0
	if opt.warm > 0 {
		sampleCap = int(float64(warmOps)/opt.warm*opt.seconds/segments/float64(r.clients)*1.5) + 64
	}
	win, err := r.runWindow(ctx, seconds(opt.seconds), sampleCap)
	if err != nil {
		return nil, err
	}
	if win.ok() == 0 {
		return nil, fmt.Errorf("no operation succeeded; first failures: %v", win.errs)
	}

	res := &result{attempted: win.attempted, failed: win.failed, errs: win.errs}
	r.summarise(win, res)
	if opt.trace != 0 {
		if res.perLayer, err = r.traceLayers(ctx, win, res.load); err != nil {
			return nil, err
		}
	}
	for len(setups) < opt.setups {
		if err := r.stack.close(); err != nil {
			return nil, err
		}
		s, err := r.setUp(ctx)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	// The quickest of them: whatever disturbs a set-up on this box only
	// ever adds to it, and the median of five moved two to three times
	// as much from run to run as their minimum (bench/AA.md).
	res.endToEnd = append([]metric{{"setup_s", slices.Min(setups), "s"}}, res.endToEnd...)
	return res, r.stack.close()
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setUp builds the workload's stack once and returns how long data
// generation, stack build and the counted warm pass took, stolen time
// taken out (steal.go). The query pools and their oracle answers are
// the harness's own checker, computed on the first call and not timed.
func (r *runner) setUp(ctx context.Context) (float64, error) {
	var file *mkhash.File
	var userBytes int64
	generate, err := unstolen(func() (err error) {
		file, userBytes, err = buildFile(r.w.rel, r.opt.seed)
		return err
	})
	if err != nil {
		return 0, err
	}
	if r.streams == nil {
		if r.streams, err = buildStreams(file, r.w.rel, r.w.band, r.opt.seed, r.clients); err != nil {
			return 0, err
		}
	}
	build, err := unstolen(func() (err error) {
		if r.stack, err = r.buildStack(file, userBytes); err != nil {
			return err
		}
		if err := r.warmPass(ctx); err != nil {
			return errors.Join(err, r.stack.close())
		}
		return nil
	})
	return generate + build, err
}

func (r *runner) buildStack(file *mkhash.File, userBytes int64) (*stack, error) {
	switch r.w.entry {
	case "gate":
		return buildGateStack(file, r.w.rel, r.clients)
	case "memory":
		return buildMemoryStack(file, r.w.rel)
	default:
		return buildDurableStack(file, r.w.rel, userBytes, r.opt.outDir)
	}
}

// warmPerClient is how many queries of each client's stream the warm
// pass runs.
const warmPerClient = 32

// warmPass runs one query of every shape in the pools, then the first
// warmPerClient queries of each client's stream, serially and checked.
// After it every plan the window needs is compiled, connections are
// open and pools are primed; it is part of set-up time.
func (r *runner) warmPass(ctx context.Context) error {
	for _, q := range distinctShapes(r.streams) {
		ans, err := r.stack.read(ctx, 0, q)
		if err == nil {
			err = checkAnswer(q, ans, true)
		}
		if err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
	}
	if r.w.writeEvery > 0 {
		// The read-back's shape: every field specified.
		if _, err := r.stack.retrieve(ctx, exactMatch(insertRecord(r.w.rel, r.opt.seed, 0, 0))); err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
	}
	for c, stream := range r.streams {
		for i := 0; i < warmPerClient && i < len(stream); i++ {
			ans, err := r.stack.read(ctx, c, &stream[i])
			if err == nil {
				err = checkAnswer(&stream[i], ans, true)
			}
			if err != nil {
				return fmt.Errorf("warm pass: %w", err)
			}
		}
	}
	return nil
}

// summarise turns the timed window into the end-to-end metrics (all but
// setup_s, which run adds) and the load.* diagnostics. The time-based
// numbers are computed per segment and reported as the median segment,
// so a noisy-neighbour burst or one GC storm moves one segment, not the
// result. Even so this box can not repeat them within a tenth (see
// bench/AA.md), which is why they are diagnostics and not gated.
func (r *runner) summarise(win *windowResult, res *result) {
	segSeconds := win.seconds / segments
	var ops, p50, p90, cpu []float64
	var all []uint32
	for i := range win.segs {
		seg := &win.segs[i]
		s := seg.statsOf(segSeconds)
		ops = append(ops, s.opsPerSec)
		p50 = append(p50, s.p50ms)
		p90 = append(p90, s.p90ms)
		cpu = append(cpu, s.cpuMsPerOp)
		all = append(all, seg.lat...)
		seg.lat = nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.load = []metric{
		{"load.ops_per_s", median(ops), "1/s"},
		{"load.lat_p50_ms", median(p50), "ms"},
		{"load.lat_p90_ms", median(p90), "ms"},
		{"load.cpu_ms_per_op", median(cpu), "ms"},
		{"load.lat_p99_ms", float64(percentile(all, 99)) / 1e6, "ms"},
		{"load.lat_max_ms", float64(percentile(all, 100)) / 1e6, "ms"},
		{"load.lat_samples", float64(len(all)), "count"},
		{"load.segment_spread", spread(ops), "ratio"},
		{"load.gc_cycles", float64(win.after.mem.NumGC - win.before.mem.NumGC), "count"},
		{"load.gc_pause_ms", float64(win.after.mem.PauseTotalNs-win.before.mem.PauseTotalNs) / 1e6, "ms"},
	}

	// Resident cost of dataset, caches and pools: the harness's own
	// sample buffers are dropped before the forced collections. Two of
	// them, because a sync.Pool gives up what it holds over two cycles,
	// and how much the pools hold when the window ends is a matter of
	// timing (one cycle: 3.4% between runs on gate_scan; two: 1.2%).
	all = nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	n := float64(win.ok())
	res.endToEnd = []metric{
		{"allocs_per_op", float64(win.after.mem.Mallocs-win.before.mem.Mallocs) / n, "count"},
		{"alloc_bytes_per_op", float64(win.after.mem.TotalAlloc-win.before.mem.TotalAlloc) / n, "B"},
		{"heap_live_mb", float64(ms.HeapAlloc) / (1 << 20), "MB"},
	}
}

// emit prints every metric by name with its unit, the failures if any,
// and the result object as the last line. It reports whether the run
// was correct.
func emit(out io.Writer, workload string, opt options, res *result) bool {
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %d\n", workload, opt.seed, opt.seconds, opt.trace)
	for _, m := range res.endToEnd {
		fmt.Fprintf(out, "%-34s %16.6f %s\n", m.name, m.value, m.unit)
	}
	for _, m := range append(res.perLayer, res.load...) {
		fmt.Fprintf(out, "%-34s %16.6f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(out, "%-34s %16d count\n%-34s %16d count\n", "attempted", res.attempted, "failed", res.failed)
	for _, e := range res.errs {
		fmt.Fprintln(out, "failure:", e)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	reported := res.endToEnd
	if opt.trace != 0 {
		reported = append(res.perLayer, res.load...)
	}
	metrics := make(map[string]value, len(reported))
	for _, m := range reported {
		metrics[m.name] = value{m.value, m.unit}
	}
	correct := res.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fxload:", err)
		return false
	}
	fmt.Fprintln(out, string(line))
	return correct
}
