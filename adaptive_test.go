package fxdist_test

import (
	"testing"

	"fxdist"
	"fxdist/internal/analysis"
	"fxdist/internal/design"
	"fxdist/internal/rebalance"
)

// The adaptive loop's pieces: tracker, recommendation, migration, growth
// advice, sweeps, and the durable integrity check.
func TestPublicAdaptiveLoop(t *testing.T) {
	file := buildTestFile(t)
	fs, _ := file.FileSystem(8)

	tracker, err := design.NewTracker(2)
	if err != nil {
		t.Fatal(err)
	}
	pms, _ := fxdist.GeneratePartialMatches(fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "a", Cardinality: 10}, {Name: "b", Cardinality: 10},
	}}, 100, 0.4, 1)
	for _, pm := range pms {
		if err := tracker.ObservePartialMatch(pm); err != nil {
			t.Fatal(err)
		}
	}
	probs := tracker.SpecProbs()
	if len(probs) != 2 {
		t.Fatalf("probs = %v", probs)
	}

	md := fxdist.NewModulo(fs)
	fx, _ := fxdist.NewFX(fs)
	rec, err := analysis.Recommend([]fxdist.GroupAllocator{md, fx}, probs)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := rebalance.PlanMigration(md, fx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Total != fs.NumBuckets() {
		t.Errorf("migration total = %d", plan.Total)
	}
	_ = rec

	if _, ok := file.GrowAdvice(); !ok {
		t.Error("no growth advice for a populated file")
	}
	mean, max := file.Occupancy()
	if mean <= 0 || max <= 0 {
		t.Errorf("occupancy = %v, %v", mean, max)
	}
}

func TestPublicSweeps(t *testing.T) {
	pts, err := analysis.PSweep(mustFS(t, []int{4, 4, 4}, 16), fxdist.FamilyIU2, []float64{0.2, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("psweep = %v", pts)
	}
	ms, err := analysis.MSweep([]int{4, 4, 4}, []int{4, 16}, fxdist.FamilyIU2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("msweep = %v", ms)
	}
}

func TestPublicDurableCheck(t *testing.T) {
	file := buildTestFile(t)
	fs, _ := file.FileSystem(4)
	fx, _ := fxdist.NewFX(fs)
	h, err := fxdist.Open(fxdist.Config{Dir: t.TempDir(), File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	report, err := h.Durable().Check()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Ok() || report.Records != file.Len() {
		t.Errorf("check = %+v", report)
	}
}

func mustFS(t *testing.T, sizes []int, m int) fxdist.FileSystem {
	t.Helper()
	fs, err := fxdist.NewFileSystem(sizes, m)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}
