package analysis_test

import (
	"fmt"
	"time"

	"fxdist/internal/analysis"
	"fxdist/internal/decluster"
	"fxdist/internal/field"
	"fxdist/internal/query"
)

// ExampleResponseTable regenerates two rows of the paper's Table 7.
func ExampleResponseTable() {
	fs, _ := decluster.NewFileSystem([]int{8, 8, 8, 8, 8, 8}, 32)
	fx, _ := decluster.NewFX(fs, field.WithStrategy(field.RoundRobin), field.WithFamily(field.FamilyIU1))
	md := decluster.NewModulo(fs)
	rows := analysis.ResponseTable(fs, []decluster.GroupAllocator{md, fx}, []int{2, 3})
	for _, r := range rows {
		fmt.Printf("k=%d Modulo=%.1f FX=%.1f Optimal=%.1f\n", r.K, r.Avg[0], r.Avg[1], r.Optimal)
	}
	// Output:
	// k=2 Modulo=8.0 FX=3.2 Optimal=2.0
	// k=3 Modulo=48.0 FX=16.0 Optimal=16.0
}

// ExampleMSweep quantifies the paper's closing caveat: FX optimality as
// the machine grows past fixed directory sizes.
func ExampleMSweep() {
	pts, _ := analysis.MSweep([]int{8, 8, 8, 8}, []int{8, 64}, field.FamilyIU2)
	for _, p := range pts {
		fmt.Printf("M=%d FX=%.1f%% Modulo=%.1f%%\n", p.M, p.FXExactPct, p.ModuloExactPct)
	}
	// Output:
	// M=8 FX=100.0% Modulo=100.0%
	// M=64 FX=93.8% Modulo=31.2%
}

// ExampleRecommend picks a declustering method for an observed workload.
func ExampleRecommend() {
	fs, _ := decluster.NewFileSystem([]int{4, 4, 8}, 32)
	fx, _ := decluster.NewFX(fs)
	md := decluster.NewModulo(fs)
	rec, _ := analysis.Recommend([]decluster.GroupAllocator{md, fx}, []float64{0.5, 0.5, 0.5})
	fmt.Println(rec.Name)
	// Output:
	// FX[IU2 U I]
}

// ExampleDepths solves the directory design problem the paper inherits
// from Aho-Ullman: give bits to often-specified fields.
func ExampleDepths() {
	res, _ := analysis.Depths(8, []analysis.Field{
		{SpecProb: 0.9}, // hot: queries almost always specify it
		{SpecProb: 0.5},
		{SpecProb: 0.1}, // cold: rarely specified
	})
	fmt.Println("depths:", res.Depths)
	fmt.Println("sizes: ", res.Sizes())
	// Output:
	// depths: [6 2 0]
	// sizes:  [64 4 1]
}

// ExampleRun simulates two back-to-back whole-file queries on parallel
// disks: the second queues behind the first.
func ExampleRun() {
	fs, _ := decluster.NewFileSystem([]int{4, 4}, 16)
	fx, _ := decluster.NewFX(fs)
	queries := []query.Query{query.All(2), query.All(2)}
	jobs, _ := analysis.FromQueries(fx, queries, analysis.UniformArrivals(2, time.Millisecond))
	stats, _ := analysis.Run(jobs, analysis.ParallelDisk)
	fmt.Println(stats.PerQuery[0].Response, stats.PerQuery[1].Response)
	// Output:
	// 29ms 57ms
}

// ExampleNewNetwork routes one message through the simulated Butterfly
// interconnect.
func ExampleNewNetwork() {
	nw, _ := analysis.NewNetwork(8)
	stats, _ := nw.Run([]analysis.Message{{Src: 5, Dst: 2}})
	fmt.Printf("%d stages, delivered in %d cycles\n", nw.Stages(), stats.Cycles)
	// Output:
	// 3 stages, delivered in 4 cycles
}
