package analysis_test

import (
	"testing"

	"fxdist"
	"fxdist/internal/analysis"
)

// buildTestFile is 200 generated records over a (cardinality 60) and b
// (cardinality 15).
func buildTestFile(t *testing.T) *fxdist.File {
	t.Helper()
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "a", Cardinality: 60},
		{Name: "b", Cardinality: 15},
	}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{3, 2}))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := fxdist.GenerateRecords(spec, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := file.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return file
}

func TestPublicProjection(t *testing.T) {
	file := buildTestFile(t)
	fs, _ := file.FileSystem(4)
	fx, _ := fxdist.NewFX(fs)
	nw, err := analysis.NewNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Project(file, fx, fxdist.MainMemory, []int{1}, nw)
	if err != nil {
		t.Fatal(err)
	}
	// Field "b" has cardinality 15: at most 15 distinct projections.
	if len(res.Rows) == 0 || len(res.Rows) > 15 {
		t.Errorf("projection rows = %d", len(res.Rows))
	}
	if res.GatherCycles == 0 {
		t.Error("network gather not costed")
	}
}

func TestPublicAPISimulate(t *testing.T) {
	fs, _ := fxdist.NewFileSystem([]int{4, 4}, 16)
	fx, _ := fxdist.NewFX(fs)
	res := analysis.Simulate(fxdist.Loads(fx, fxdist.AllQuery(2)), fxdist.ParallelDisk)
	if res.LargestResponseSize != 1 {
		t.Errorf("LargestResponseSize = %d", res.LargestResponseSize)
	}
}
