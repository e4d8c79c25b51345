// Command pmquery demonstrates end-to-end partial match retrieval on a
// simulated parallel machine: it generates a synthetic relation, builds a
// multi-key hashed file, declusters it over M devices with a chosen
// method, runs a query workload, and reports result counts and the
// simulated parallel cost breakdown.
//
// Usage:
//
//	pmquery -records 20000 -devices 16 -method fx -queries 10 -p 0.5
//	pmquery -method modulo -model disk
//	pmquery -queries 64 -batch
//	pmquery -queries 3 -explain
//	pmquery -queries 50 -flight
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"fxdist"
	"fxdist/internal/analysis"
	"fxdist/internal/obs"
)

func main() {
	// All work happens in run so its defers (metrics listener shutdown,
	// profile spooling) execute before the process exits — os.Exit here
	// would skip them if it lived past the defer registrations.
	if err := run(); err != nil {
		var terr *fxdist.TracedError
		if errors.As(err, &terr) {
			fmt.Fprintf(os.Stderr, "pmquery: %v [join trace %d against /debug/traces]\n", err, terr.TraceID)
		} else {
			fmt.Fprintln(os.Stderr, "pmquery:", err)
		}
		os.Exit(1)
	}
}

func run() error {
	records := flag.Int("records", 20000, "number of synthetic records")
	devices := flag.Int("devices", 16, "number of parallel devices (power of two)")
	method := flag.String("method", "fx", "declustering method: fx, basicfx, modulo, gdm")
	queries := flag.Int("queries", 10, "number of queries to run")
	p := flag.Float64("p", 0.5, "per-field specification probability")
	model := flag.String("model", "memory", "device model: memory or disk")
	seed := flag.Int64("seed", 1988, "workload seed")
	batch := flag.Bool("batch", false, "submit the whole workload as one RetrieveBatch instead of one query at a time")
	explain := flag.Bool("explain", false, "print the span tree, stage cost breakdown and per-device optimality verdict for each query")
	flight := flag.Bool("flight", false, "after the workload, dump the slow-query flight recorder (slowest retained queries per shape)")
	metricsAddr := flag.String("metrics-addr", "", "serve the cluster's handler (/metrics, /debug/optimality, /debug/hotpath, /debug/flight, ...; see /debug/) on this address while the workload runs")
	flag.Parse()

	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "part", Cardinality: 2000},
		{Name: "supplier", Cardinality: 300},
		{Name: "warehouse", Cardinality: 40},
		{Name: "status", Cardinality: 8},
	}}
	depths := []int{5, 4, 3, 2} // F = 32, 16, 8, 4

	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, depths))
	if err != nil {
		return err
	}
	recs, err := fxdist.GenerateRecords(spec, *records, *seed)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := file.Insert(r); err != nil {
			return err
		}
	}

	fs, err := file.FileSystem(*devices)
	if err != nil {
		return err
	}
	var alloc fxdist.GroupAllocator
	switch strings.ToLower(*method) {
	case "fx":
		alloc, err = fxdist.NewFX(fs)
	case "basicfx":
		alloc, err = fxdist.NewBasicFX(fs)
	case "modulo":
		alloc = fxdist.NewModulo(fs)
	case "gdm":
		alloc, err = fxdist.NewGDM(fs, []int{2, 3, 5, 7})
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	if err != nil {
		return err
	}

	cm := analysis.MainMemory
	if strings.ToLower(*model) == "disk" {
		cm = analysis.ParallelDisk
	}

	cluster, err := fxdist.Open(fxdist.Config{File: file, Allocator: alloc})
	if err != nil {
		return err
	}
	defer cluster.Close()
	if *metricsAddr != "" {
		addr, stopMetrics, err := obs.ListenAndServe(*metricsAddr, cluster.DebugHandler())
		if err != nil {
			return err
		}
		defer stopMetrics()
		fmt.Printf("pmquery: observability on http://%s/metrics — endpoint index at http://%s/debug/\n\n", addr, addr)
	}

	fmt.Printf("file: %d records, directory %v, %d devices, method %s, model %s\n\n",
		file.Len(), file.Sizes(), *devices, alloc.Name(), cm.Name)

	pms, err := fxdist.GeneratePartialMatches(spec, *queries, *p, *seed+1)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var results []fxdist.RetrieveResult
	if *batch {
		results, err = cluster.RetrieveBatch(ctx, pms)
		if err != nil {
			return err
		}
	} else {
		results = make([]fxdist.RetrieveResult, len(pms))
		for i, pm := range pms {
			if results[i], err = cluster.RetrieveContext(ctx, pm); err != nil {
				return fmt.Errorf("query %d: %w", i, err)
			}
		}
	}
	var worst, total float64
	for i, res := range results {
		sim := analysis.Simulate(cm, res.DeviceBuckets, res.DeviceRecords)
		fmt.Printf("q%-2d %-60s hits=%-6d buckets(max/dev)=%-4d response=%-12v work=%v\n",
			i, renderQuery(spec, pms[i]), len(res.Records), res.LargestResponseSize,
			sim.Response, sim.TotalWork)
		if *explain {
			explainResult(cluster, file, fs, pms[i], res)
		}
		total += sim.Response.Seconds()
		worst = max(worst, sim.Response.Seconds())
	}
	fmt.Printf("\navg response %.6fs, worst %.6fs\n", total/float64(len(pms)), worst)

	if *flight {
		fmt.Println()
		fxdist.WriteFlightReport(os.Stdout, []fxdist.BackendFlights{cluster.FlightReport()})
	}
	return nil
}

// explainResult prints one query's per-device optimality verdict against
// the paper's strict-optimality bound ceil(|R(q)|/M), plus the span tree
// of the retrieval (joinable with /debug/traces?tree=1 by trace id).
func explainResult(cluster *fxdist.Cluster, file *fxdist.File, fs fxdist.FileSystem, pm fxdist.PartialMatch, res fxdist.RetrieveResult) {
	q, err := file.BucketQuery(pm)
	if err != nil {
		fmt.Printf("    explain: %v\n", err)
		return
	}
	rq := q.NumQualified(fs)
	m := len(res.DeviceBuckets)
	bound := obs.Bound(rq, m)
	fmt.Printf("    |R(q)|=%d devices=%d strict-optimal bound=ceil(%d/%d)=%d\n", rq, m, rq, m, bound)
	for d, b := range res.DeviceBuckets {
		verdict := "ok"
		if b > bound {
			verdict = fmt.Sprintf("OVER bound by %d", b-bound)
		}
		fmt.Printf("    device %-3d buckets=%-5d %s\n", d, b, verdict)
	}
	printStages(cluster, res.TraceID, "    ")
	if res.TraceID == 0 {
		return
	}
	for _, tree := range cluster.RecentTraceTrees(256) {
		if tree.TraceID == res.TraceID {
			fmt.Printf("    trace %d:\n", res.TraceID)
			obs.WriteSpanTree(os.Stdout, tree, "      ")
			return
		}
	}
	fmt.Printf("    trace %d: evicted from trace ring\n", res.TraceID)
}

// printStages renders one query's cost breakdown, as the kept event of its
// trace holds it in the cluster's store: wall time per stage (and wire
// bytes on the net.* stages), with each top-level stage's share of the
// whole-query latency.
// A query not kept has only its shape's means, on /debug/hotpath.
func printStages(cluster *fxdist.Cluster, traceID uint64, indent string) {
	var stages []fxdist.StageSample
	for _, ev := range cluster.QueryEvents(1024) {
		if traceID != 0 && ev.TraceID == traceID {
			stages = ev.Stages
		}
	}
	if stages == nil {
		fmt.Printf("%sstages: query not kept; its shape's means are on /debug/hotpath\n", indent)
		return
	}
	var total time.Duration
	for _, s := range stages {
		if slices.Contains(obs.TopStages, s.Stage) {
			total += s.Wall
		}
	}
	fmt.Printf("%sstages:\n", indent)
	for _, s := range stages {
		frac := ""
		if total > 0 && slices.Contains(obs.TopStages, s.Stage) {
			frac = fmt.Sprintf(" (%4.1f%%)", 100*float64(s.Wall)/float64(total))
		}
		wire := ""
		if s.Bytes > 0 {
			wire = fmt.Sprintf("  wire=%dB", s.Bytes)
		}
		fmt.Printf("%s  %-12s %10v%s%s\n", indent, s.Stage, s.Wall, frac, wire)
	}
}

func renderQuery(spec fxdist.RecordSpec, pm fxdist.PartialMatch) string {
	parts := make([]string, len(pm))
	for i, v := range pm {
		if v == nil {
			parts[i] = spec.Fields[i].Name + "=*"
		} else {
			parts[i] = spec.Fields[i].Name + "=" + *v
		}
	}
	return strings.Join(parts, " ")
}
