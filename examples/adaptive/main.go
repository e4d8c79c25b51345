// Adaptive: the closed loop a long-lived deployment runs —
//
//  1. OBSERVE  the query stream with a workload tracker,
//  2. RECOMMEND a declustering method for the measured specification
//     probabilities (expected largest response size),
//  3. MIGRATE  if the recommendation beats the current method, with a
//     bucket-movement plan,
//  4. WATCH    occupancy and grow the directory field that splits best.
//
// Run with: go run ./examples/adaptive
package main

import (
	"fmt"

	"fxdist"
	"fxdist/internal/analysis"
	"fxdist/internal/design"
	"fxdist/internal/rebalance"
)

func main() {
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "device", Cardinality: 900},
		{Name: "metric", Cardinality: 40},
		{Name: "region", Cardinality: 10},
	}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{3, 3, 2}))
	check(err)
	records, err := fxdist.GenerateRecords(spec, 30000, 3)
	check(err)
	for _, r := range records {
		check(file.Insert(r))
	}
	const m = 32
	fs, err := file.FileSystem(m)
	check(err)

	// The deployment starts on Modulo (a legacy choice).
	current := fxdist.GroupAllocator(fxdist.NewModulo(fs))
	fmt.Printf("running on %s, %d records, %d devices\n\n", current.Name(), file.Len(), m)

	// 1. Observe: a scan-heavy stream (few fields specified).
	tracker, err := design.NewTracker(file.NumFields())
	check(err)
	queries, err := fxdist.GeneratePartialMatches(spec, 500, 0.3, 9)
	check(err)
	for _, pm := range queries {
		check(tracker.ObservePartialMatch(pm))
	}
	probs := tracker.SpecProbs()
	fmt.Printf("observed %d queries; specification probabilities %.2f\n",
		tracker.Queries(), probs)

	// 2. Recommend.
	fx, err := fxdist.NewFX(fs)
	check(err)
	candidates := []fxdist.GroupAllocator{current, fx}
	rec, err := analysis.Recommend(candidates, probs)
	check(err)
	fmt.Printf("expected largest response: %s=%.2f, %s=%.2f -> recommend %s\n",
		current.Name(), rec.Expected[0], fx.Name(), rec.Expected[1], rec.Name)

	// 3. Migrate if it pays.
	if rec.Best != 0 {
		plan, err := rebalance.PlanMigration(current, candidates[rec.Best])
		check(err)
		fmt.Printf("migration: %d of %d buckets move (%.0f%%)\n",
			plan.Moved, plan.Total, 100*plan.MoveFraction())
		current = candidates[rec.Best]
	}

	// 4. Directory health: grow the field that splits best when buckets
	// run hot.
	mean, max := file.Occupancy()
	fmt.Printf("\noccupancy: mean %.1f, max %d records/bucket\n", mean, max)
	if idx, ok := file.GrowAdvice(); ok {
		check(file.Grow(idx))
		mean2, max2 := file.Occupancy()
		fmt.Printf("grew field %d (%s): occupancy now mean %.1f, max %d\n",
			idx, spec.Fields[idx].Name, mean2, max2)
		// The allocator must follow the new directory sizes.
		fs2, err := file.FileSystem(m)
		check(err)
		next, err := fxdist.NewFX(fs2)
		check(err)
		fmt.Printf("re-declustered as %s on the grown grid\n", next.Name())
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
