package rebalance_test

import (
	"fmt"

	"fxdist/internal/decluster"
	"fxdist/internal/rebalance"
)

// ExamplePlanMigration costs a re-declustering: how many buckets move
// when a Modulo file adopts FX.
func ExamplePlanMigration() {
	fs, _ := decluster.NewFileSystem([]int{4, 4}, 16)
	md := decluster.NewModulo(fs)
	fx, _ := decluster.NewFX(fs)
	plan, _ := rebalance.PlanMigration(md, fx)
	fmt.Printf("%d of %d buckets move\n", plan.Moved, plan.Total)
	// Output:
	// 12 of 16 buckets move
}
