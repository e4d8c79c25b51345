// Declustercompare: a side-by-side study of the declustering methods on
// the paper's Table 7 configuration (M = 32, six fields of size 8),
// including the GDM "trial and error" problem: GDM can match FX, but only
// if you search for good multipliers — FX needs no search.
//
// Run with: go run ./examples/declustercompare
package main

import (
	"fmt"

	"fxdist"
	"fxdist/internal/analysis"
	"fxdist/internal/decluster"
)

func main() {
	sizes := []int{8, 8, 8, 8, 8, 8}
	const m = 32
	fs, err := fxdist.NewFileSystem(sizes, m)
	check(err)

	fx, err := fxdist.NewFX(fs, fxdist.WithRoundRobinPlan(), fxdist.WithFamily(fxdist.FamilyIU1))
	check(err)
	md := fxdist.NewModulo(fs)
	gdm1, err := fxdist.NewGDM(fs, decluster.GDM1Multipliers)
	check(err)
	dhw := fxdist.NewDHW(fs)

	methods := []fxdist.GroupAllocator{md, gdm1, dhw, fx}
	fmt.Printf("file system: F = %v, M = %d\n\n", sizes, m)
	fmt.Println("average largest response size over all queries with k unspecified fields:")
	fmt.Printf("%-3s %10s %10s %10s %10s %10s\n", "k", "Modulo", "GDM1", "DHW", "FX", "Optimal")
	for _, row := range analysis.ResponseTable(fs, methods, []int{2, 3, 4, 5, 6}) {
		fmt.Printf("%-3d %10.1f %10.1f %10.1f %10.1f %10.1f\n",
			row.K, row.Avg[0], row.Avg[1], row.Avg[2], row.Avg[3], row.Optimal)
	}

	// The GDM trial-and-error search the paper alludes to: score odd
	// multiplier sets up to 63 and keep the best k=2 average. FX hits the
	// value its theorems promise with zero search.
	fmt.Println("\nGDM multiplier search (k=2 average largest response size):")
	search, err := analysis.SearchGDM(fs, 2, 60, 63)
	check(err)
	fxRows := analysis.ResponseTable(fs, []fxdist.GroupAllocator{fx}, []int{2})
	fmt.Printf("  best of %d random GDM sets: %.2f with %v\n", search.Evaluated, search.AvgLargest, search.Multipliers)
	fmt.Printf("  FX, no search:             %.2f\n", fxRows[0].Avg[0])

	// Why FX wins: the transform images interlock. Show the device of the
	// same bucket under each method.
	bucket := []int{1, 2, 3, 4, 5, 6}
	fmt.Printf("\nbucket %v -> Modulo:%d GDM1:%d DHW:%d FX:%d\n",
		bucket, md.Device(bucket), gdm1.Device(bucket), dhw.Device(bucket), fx.Device(bucket))

	// Optimality certificates across query shapes.
	fmt.Println("\nstrict-optimality certificates (3 unspecified fields):")
	q := fxdist.NewQuery([]int{fxdist.Unspecified, fxdist.Unspecified, fxdist.Unspecified, 0, 0, 0})
	fmt.Printf("  query %v: FX guaranteed=%v exact=%v; Modulo guaranteed=%v exact=%v\n",
		q, fxdist.FXGuaranteed(fx, q), fxdist.StrictOptimal(fx, q),
		fxdist.ModuloGuaranteed(fs, q), fxdist.StrictOptimal(md, q))
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
