package analysis_test

import (
	"fmt"

	"fxdist/internal/analysis"
	"fxdist/internal/decluster"
	"fxdist/internal/field"
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
