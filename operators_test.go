package fxdist_test

import (
	"testing"

	"fxdist"
	"fxdist/internal/analysis"
)

func TestPublicMSP(t *testing.T) {
	fs, _ := fxdist.NewFileSystem([]int{4, 4}, 8)
	msp := fxdist.NewMSP(fs)
	fx, _ := fxdist.NewFX(fs)
	rows := analysis.ResponseTableExhaustive(fs,
		[]fxdist.Allocator{msp, fx}, []int{2})
	if rows[0].Avg[1] > rows[0].Avg[0]+1e-9 {
		t.Errorf("FX (%.2f) worse than MSP (%.2f)", rows[0].Avg[1], rows[0].Avg[0])
	}
	tab, err := fxdist.NewTableAllocator(fs, make([]int, fs.NumBuckets()))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Device([]int{0, 0}) != 0 {
		t.Error("table allocator wrong")
	}
}

func TestPublicDurableDeleteCompact(t *testing.T) {
	file := buildTestFile(t)
	fs, _ := file.FileSystem(4)
	fx, _ := fxdist.NewFX(fs)
	h, err := fxdist.Open(fxdist.Config{Dir: t.TempDir(), File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	c := h.Durable()
	before := c.Len()
	rec := fxdist.Record{"a-1", "b-1"}
	if err := c.Insert(rec); err != nil {
		t.Fatal(err)
	}
	n, err := c.Delete(rec)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Errorf("deleted %d, want >= 1", n)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if c.Len() > before {
		t.Errorf("Len %d after delete+compact, started at %d", c.Len(), before)
	}
	// In-memory file delete mirrors it.
	if err := file.Insert(rec); err != nil {
		t.Fatal(err)
	}
	if n, err := file.Delete(rec); err != nil || n < 1 {
		t.Errorf("file delete = %d, %v", n, err)
	}
}
