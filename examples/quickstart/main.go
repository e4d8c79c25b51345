// Quickstart: decluster a multi-key hashed bucket grid with FX and answer
// partial match queries with maximum parallelism.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"fxdist"
)

func main() {
	// A file hashed on three fields into 8 x 8 x 4 buckets, spread over
	// 16 parallel devices.
	fs, err := fxdist.NewFileSystem([]int{8, 8, 4}, 16)
	if err != nil {
		panic(err)
	}

	// FX plans field transformations automatically: fields smaller than M
	// get I, U or IU2 so that partial match queries spread evenly.
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		panic(err)
	}
	fmt.Println("allocator:", fx.Name())
	fmt.Println("transforms:", fx.Plan().Kinds())

	// Where does a bucket live?
	bucket := []int{3, 5, 1}
	fmt.Printf("bucket %v -> device %d\n\n", bucket, fx.Device(bucket))

	// A partial match query: field 0 = 3, fields 1 and 2 free.
	q := fxdist.NewQuery([]int{3, fxdist.Unspecified, fxdist.Unspecified})
	loads := fxdist.Loads(fx, q)
	fmt.Printf("query %v qualifies %d buckets\n", q, 8*4)
	fmt.Println("per-device qualified buckets:", loads)
	fmt.Println("largest response size:", fxdist.LargestLoad(fx, q))
	fmt.Println("strict optimal:", fxdist.StrictOptimal(fx, q))

	// With at most three fields smaller than M, FX is perfect optimal —
	// strict optimal for every possible partial match query (Theorem 9).
	fmt.Println("perfect optimal:", fxdist.PerfectOptimal(fx))

	// Compare with the Modulo baseline on the same query.
	md := fxdist.NewModulo(fs)
	fmt.Println("\nModulo per-device loads:", fxdist.Loads(md, q))
	fmt.Println("Modulo largest response size:", fxdist.LargestLoad(md, q))

	// Each device finds its own qualified buckets without scanning the
	// grid (inverse mapping).
	im := fxdist.NewInverseMapper(fx)
	fmt.Println("\nqualified buckets on device 0:")
	im.EachOnDevice(q, 0, func(b []int) {
		fmt.Printf("  %v\n", b)
	})
}
