package storage

import (
	"strings"
	"testing"

	"fxdist/internal/mkhash"
)

func TestCheckHealthyCluster(t *testing.T) {
	file, fx := durableFixture(t, 300, 4)
	c, err := CreateDurable(t.TempDir(), file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	report, err := c.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Ok() {
		t.Fatalf("healthy cluster failed check: %v", report.Problems)
	}
	if report.Records != 300 || report.Devices != 4 {
		t.Errorf("report = %+v", report)
	}
	sum := 0
	for _, n := range report.DeviceRecords {
		sum += n
	}
	if sum != 300 {
		t.Errorf("device records sum %d", sum)
	}
}

// Opening a cluster without the custom hash the file was built with must
// be caught by Check as mishashed records.
func TestCheckDetectsHashMismatch(t *testing.T) {
	custom := func(v string) uint64 { return uint64(len(v)) * 7 }
	file := mkhash.MustNew(mkhash.Schema{
		Fields: []string{"make", "model", "year"},
		Depths: []int{2, 3, 1},
	}, mkhash.WithHash(0, custom))
	for i := 0; i < 100; i++ {
		rec := mkhash.Record{
			strings.Repeat("x", i%9),
			"model",
			"1988",
		}
		if err := file.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	fs, _ := file.FileSystem(4)
	dir := t.TempDir()
	c, err := CreateDurable(dir, file, mustBasicFX(t, fs))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Reopen WITHOUT the custom hash: placement no longer matches.
	re, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	report, err := re.Check()
	if err != nil {
		t.Fatal(err)
	}
	if report.MishashedRecords == 0 {
		t.Error("hash mismatch not detected")
	}
	if report.Ok() {
		t.Error("report claims OK despite mishashed records")
	}
	// With the right hash option, the check passes.
	good, err := OpenDurable(dir, WithFileOptions(mkhash.WithHash(0, custom)))
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	report, err = good.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Ok() {
		t.Errorf("correctly-opened cluster failed check: %v", report.Problems)
	}
}

func TestCheckProblemCap(t *testing.T) {
	var r CheckReport
	for i := 0; i < 50; i++ {
		r.problem("p%d", i)
	}
	if len(r.Problems) != 20 {
		t.Errorf("problems = %d, want capped at 20", len(r.Problems))
	}
}
