// Pipeline: the full life of a partial-match file, end to end —
//
//  1. DESIGN   the directory: split the bit budget across fields by how
//     often queries specify them (the Aho-Ullman problem the paper cites),
//  2. DECLUSTER with FX over M devices,
//  3. REPLICATE with chained declustering (backup on the ring successor),
//  4. FAIL a device and watch load spread around the ring instead of
//     doubling on one neighbour,
//  5. GROW a directory field and plan the redistribution.
//
// Run with: go run ./examples/pipeline
package main

import (
	"fmt"

	"fxdist"
	"fxdist/internal/analysis"
	"fxdist/internal/rebalance"
	"fxdist/internal/storage"
)

func main() {
	const m = 16

	// 1. Design: ~40k records at ~10 records/bucket => 12 directory bits.
	// "part" is specified by 80% of queries, "status" by 10%.
	bits, err := analysis.BitsFor(40000, 10)
	check(err)
	res, err := analysis.Depths(bits, []analysis.Field{
		{SpecProb: 0.8},              // part
		{SpecProb: 0.5},              // supplier
		{SpecProb: 0.3, MaxDepth: 4}, // warehouse (only ~16 distinct values)
		{SpecProb: 0.1, MaxDepth: 3}, // status
	})
	check(err)
	fmt.Printf("design: %d directory bits -> depths %v (F = %v), E[qualified buckets] = %.1f\n",
		bits, res.Depths, res.Sizes(), res.ExpectedQualified)

	// 2. Decluster the designed grid with FX.
	fs, err := fxdist.NewFileSystem(res.Sizes(), m)
	check(err)
	fx, err := fxdist.NewFX(fs)
	check(err)
	fmt.Printf("decluster: %s over %d devices; perfect optimal: %v\n",
		fx.Name(), m, fxdist.PerfectOptimal(fx))

	// 3. + 4. Replicate and fail a device.
	q := fxdist.NewQuery([]int{3, fxdist.Unspecified, fxdist.Unspecified, fxdist.Unspecified})
	for _, mode := range []fxdist.ReplicaMode{fxdist.NaiveFailover, fxdist.ChainedFailover} {
		p := storage.NewPlacement(fx, mode)
		check(p.Fail(5))
		d := p.Degradation(q)
		fmt.Printf("failover %-8v device 5 down: max load %d -> %d (%.2fx)\n",
			mode, d.HealthyMax, d.DegradedMax, d.Ratio)
	}

	// 5. Grow the hottest field (part) one doubling and plan the move.
	plans, err := rebalance.GrowthSeries(res.Sizes(), m, 0, 1,
		func(fs fxdist.FileSystem) (fxdist.GroupAllocator, error) {
			return fxdist.NewFX(fs)
		})
	check(err)
	fmt.Printf("growth: doubling field 0 moves %d of %d buckets (%.0f%%) between devices\n",
		plans[0].Moved, plans[0].Total, 100*plans[0].MoveFraction())
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
