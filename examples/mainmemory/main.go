// Mainmemory: a Butterfly-style main-memory database with M = 512
// processing nodes — the paper's large-M regime (§5.2.2 and Table 9),
// where every field directory is much smaller than the machine and
// address-computation cost matters as much as balance.
//
// The example builds the Table 9 file system (F = 8,8,8,16,16,16), plans
// FX with IU2 transforms, certifies queries with the §4.2 sufficient
// conditions, and compares the address-computation cost of FX, GDM and
// Modulo on the paper's MC68000 cycle model.
//
// Run with: go run ./examples/mainmemory
package main

import (
	"fmt"

	"fxdist"
	"fxdist/internal/analysis"
	"fxdist/internal/storage"
	"fxdist/internal/workload"
)

func main() {
	const m = 512
	sizes := []int{8, 8, 8, 16, 16, 16}
	fs, err := fxdist.NewFileSystem(sizes, m)
	check(err)

	fx, err := fxdist.NewFX(fs, fxdist.WithRoundRobinPlan(), fxdist.WithFamily(fxdist.FamilyIU2))
	check(err)
	fmt.Printf("machine: %d nodes; directory %v; plan %v\n\n", m, sizes, fx.Plan().Kinds())

	// Every field is smaller than M: the regime where Modulo's guarantee
	// never applies but FX still certifies a large class of queries.
	queries, err := workload.BucketQueries(sizes, 12, 0.5, 1988)
	check(err)
	fmt.Println("query           unspec  |R(q)|  FX-certified  FX-optimal  maxload  opt-bound")
	for _, q := range queries {
		loads := fxdist.Loads(fx, q)
		max, sum := 0, 0
		for _, l := range loads {
			sum += l
			if l > max {
				max = l
			}
		}
		bound := (sum + m - 1) / m
		fmt.Printf("%-15v %6d %7d %13v %11v %8d %10d\n",
			q, q.NumUnspecified(), sum,
			fxdist.FXGuaranteed(fx, q), fxdist.StrictOptimal(fx, q), max, bound)
	}

	// Main-memory response simulation: the whole-file query on 512 nodes.
	all := fxdist.AllQuery(len(sizes))
	res := storage.Simulate(fxdist.Loads(fx, all), fxdist.MainMemory)
	fmt.Printf("\nwhole-file retrieval: %d buckets/node max, simulated response %v\n",
		res.LargestResponseSize, res.Response)

	// §5.2.2: address computation cycles per bucket. In main memory this
	// dominates; FX needs no multiplies because its multipliers are powers
	// of two.
	fmt.Println("\naddress computation (MC68000 cycle model):")
	for _, row := range analysis.CompareCPU(analysis.MC68000, fx.Plan()) {
		fmt.Println("  " + row.String())
	}

	// Inverse mapping: node 137 locates its share of a supplier-style
	// query without scanning the 2M-bucket grid.
	q := fxdist.NewQuery([]int{3, fxdist.Unspecified, fxdist.Unspecified, 9,
		fxdist.Unspecified, fxdist.Unspecified})
	im := fxdist.NewInverseMapper(fx)
	fmt.Printf("\nnode 137 holds %d of query %v's %d qualified buckets\n",
		im.CountOnDevice(q, 137), q, q.NumQualified(fs))

	// The interconnect is real on a Butterfly: simulate repartitioning
	// this query's qualified buckets through the 512-node network (the
	// parallel-projection traffic pattern of the machine's era).
	nw, err := fxdist.NewButterfly(m)
	check(err)
	msgs, err := nw.Repartition(fxdist.Loads(fx, q), 7)
	check(err)
	ns, err := nw.Run(msgs)
	check(err)
	fmt.Printf("network repartition of %d buckets: %d cycles over %d stages (ideal %d)\n",
		ns.Delivered, ns.Cycles, nw.Stages(), ns.IdealCycles)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
