package storage_test

import (
	"fmt"

	"fxdist/internal/decluster"
	"fxdist/internal/query"
	"fxdist/internal/storage"
)

// ExampleNewPlacement shows chained declustering absorbing a device
// failure with bounded load growth.
func ExampleNewPlacement() {
	fs, _ := decluster.NewFileSystem([]int{16, 16}, 8)
	fx, _ := decluster.NewFX(fs)
	p := storage.NewPlacement(fx, storage.Chained)
	_ = p.Fail(3)
	d := p.Degradation(query.All(2))
	fmt.Printf("max load %d -> %d\n", d.HealthyMax, d.DegradedMax)
	// Output:
	// max load 32 -> 40
}
