package fxdist_test

import (
	"fmt"

	"fxdist"
)

// Example declusters a small bucket grid with FX and inspects a query's
// per-device spread.
func Example() {
	fs, _ := fxdist.NewFileSystem([]int{8, 8, 4}, 16)
	fx, _ := fxdist.NewFX(fs)
	q := fxdist.NewQuery([]int{3, fxdist.Unspecified, fxdist.Unspecified})
	fmt.Println("largest response size:", fxdist.LargestLoad(fx, q))
	fmt.Println("strict optimal:", fxdist.StrictOptimal(fx, q))
	// Output:
	// largest response size: 2
	// strict optimal: true
}

// ExampleNewFX shows the planner assigning different transformation
// methods to fields smaller than M (Theorem 9's ordering).
func ExampleNewFX() {
	fs, _ := fxdist.NewFileSystem([]int{2, 8, 4}, 16)
	fx, _ := fxdist.NewFX(fs)
	fmt.Println(fx.Name())
	fmt.Println("perfect optimal:", fxdist.PerfectOptimal(fx))
	// Output:
	// FX[U I IU2]
	// perfect optimal: true
}

// ExampleNewModulo shows the baseline losing exactly where the paper says
// it does: two unspecified fields, both smaller than M.
func ExampleNewModulo() {
	fs, _ := fxdist.NewFileSystem([]int{4, 4}, 16)
	md := fxdist.NewModulo(fs)
	fx, _ := fxdist.NewFX(fs)
	q := fxdist.AllQuery(2)
	fmt.Println("Modulo largest response:", fxdist.LargestLoad(md, q))
	fmt.Println("FX largest response:    ", fxdist.LargestLoad(fx, q))
	// Output:
	// Modulo largest response: 4
	// FX largest response:     1
}

// ExampleNewInverseMapper enumerates one device's share of a query
// without scanning the grid.
func ExampleNewInverseMapper() {
	fs, _ := fxdist.NewFileSystem([]int{4, 8}, 4)
	fx, _ := fxdist.NewBasicFX(fs)
	im := fxdist.NewInverseMapper(fx)
	q := fxdist.NewQuery([]int{2, fxdist.Unspecified})
	im.EachOnDevice(q, 0, func(b []int) {
		fmt.Println(b)
	})
	// Output:
	// [2 2]
	// [2 6]
}

// ExampleFXGuaranteed certifies a query class with the paper's §4.2
// sufficient conditions — no enumeration needed.
func ExampleFXGuaranteed() {
	fs, _ := fxdist.NewFileSystem([]int{8, 8, 8, 8, 8, 8}, 32)
	fx, _ := fxdist.NewFX(fs, fxdist.WithRoundRobinPlan(), fxdist.WithFamily(fxdist.FamilyIU1))
	q := fxdist.NewQuery([]int{fxdist.Unspecified, fxdist.Unspecified, 0, 0, 0, 0})
	fmt.Println("certified:", fxdist.FXGuaranteed(fx, q))
	// Output:
	// certified: true
}

// ExampleFindWitness extracts the smallest failing query class of a
// non-optimal distribution.
func ExampleFindWitness() {
	fs, _ := fxdist.NewFileSystem([]int{2, 8}, 16)
	basic, _ := fxdist.NewBasicFX(fs)
	w, ok := fxdist.FindWitness(basic)
	fmt.Println(ok, w.Unspec, w.MaxLoad, w.Bound)
	// Output:
	// true [0 1] 2 1
}

// ExampleNewButterfly routes one message through the simulated Butterfly
// interconnect.
func ExampleNewButterfly() {
	nw, _ := fxdist.NewButterfly(8)
	stats, _ := nw.Run([]fxdist.NetworkMessage{{Src: 5, Dst: 2}})
	fmt.Printf("%d stages, delivered in %d cycles\n", nw.Stages(), stats.Cycles)
	// Output:
	// 3 stages, delivered in 4 cycles
}
