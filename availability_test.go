package fxdist_test

import (
	"testing"

	"fxdist"
	"fxdist/internal/design"
	"fxdist/internal/storage"
)

func TestPublicReplicaPlacement(t *testing.T) {
	fs, _ := fxdist.NewFileSystem([]int{16, 16}, 8)
	fx, _ := fxdist.NewFX(fs)
	q := fxdist.AllQuery(2)

	naive := storage.NewPlacement(fx, storage.Naive)
	if err := naive.Fail(2); err != nil {
		t.Fatal(err)
	}
	nd := naive.Degradation(q)

	chained := storage.NewPlacement(fx, storage.Chained)
	if err := chained.Fail(2); err != nil {
		t.Fatal(err)
	}
	cd := chained.Degradation(q)

	if nd.Ratio != 2.0 {
		t.Errorf("naive degradation ratio %.2f, want 2.0", nd.Ratio)
	}
	if cd.Ratio >= nd.Ratio {
		t.Errorf("chained ratio %.2f not better than naive %.2f", cd.Ratio, nd.Ratio)
	}
	// Served loads cover the query exactly.
	loads := chained.Loads(q)
	sum := 0
	for _, l := range loads {
		sum += l
	}
	if sum != q.NumQualified(fs) {
		t.Errorf("served %d buckets, want %d", sum, q.NumQualified(fs))
	}
}

func TestPublicDesign(t *testing.T) {
	bits, err := design.BitsFor(10000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if bits != 10 {
		t.Errorf("bits = %d, want 10", bits)
	}
	res, err := design.Depths(bits, []design.Field{
		{SpecProb: 0.9}, {SpecProb: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Depths[0] <= res.Depths[1] {
		t.Errorf("depths %v: hot field should be deeper", res.Depths)
	}
	probs := []float64{0.9, 0.2}
	if got := design.ExpectedQualified(res.Depths, probs); got != res.ExpectedQualified {
		t.Errorf("objective mismatch: %v vs %v", got, res.ExpectedQualified)
	}
	// The designed sizes feed straight into a file system.
	if _, err := fxdist.NewFileSystem(res.Sizes(), 16); err != nil {
		t.Errorf("designed sizes rejected: %v", err)
	}
}
