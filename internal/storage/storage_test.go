package storage

import (
	"fmt"
	"sort"
	"testing"

	"fxdist/internal/convolve"
	"fxdist/internal/decluster"
	"fxdist/internal/mkhash"
)

func carFile(t *testing.T, n int) *mkhash.File {
	t.Helper()
	f := mkhash.MustNew(mkhash.Schema{
		Fields: []string{"make", "model", "year"},
		Depths: []int{2, 3, 1},
	})
	for i := 0; i < n; i++ {
		r := mkhash.Record{
			fmt.Sprintf("make%d", i%7),
			fmt.Sprintf("model%d", i%23),
			fmt.Sprintf("%d", 1980+i%10),
		}
		if err := f.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func newCluster(t *testing.T, file *mkhash.File, m int) *Cluster {
	t.Helper()
	fs, err := file.FileSystem(m)
	if err != nil {
		t.Fatal(err)
	}
	fx := decluster.MustFX(fs)
	c, err := NewCluster(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClusterValidation(t *testing.T) {
	file := carFile(t, 10)
	wrong := decluster.MustFileSystem([]int{4, 8}, 4) // wrong arity
	if _, err := NewCluster(file, decluster.MustFX(wrong)); err == nil {
		t.Error("arity mismatch accepted")
	}
	wrong2 := decluster.MustFileSystem([]int{4, 4, 2}, 4) // wrong size
	if _, err := NewCluster(file, decluster.MustFX(wrong2)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestClusterDistributesAllBuckets(t *testing.T) {
	file := carFile(t, 300)
	c := newCluster(t, file, 8)
	if c.M() != 8 {
		t.Errorf("M = %d", c.M())
	}
	total := 0
	for _, n := range c.DeviceBucketCounts() {
		total += n
	}
	nonEmpty := 0
	file.EachBucket(func([]int, []mkhash.Record) { nonEmpty++ })
	if total != nonEmpty {
		t.Errorf("devices hold %d buckets, file has %d non-empty", total, nonEmpty)
	}
	if c.Allocator().Name() == "" {
		t.Error("allocator not exposed")
	}
}

// Parallel retrieval must return exactly the records a single-device
// search returns.
func TestRetrieveMatchesSingleDeviceSearch(t *testing.T) {
	file := carFile(t, 500)
	c := newCluster(t, file, 8)
	specs := []map[string]string{
		{"make": "make3"},
		{"model": "model7"},
		{"make": "make1", "year": "1984"},
		{"make": "make0", "model": "model0", "year": "1980"},
		{},
		{"make": "no-such-make"},
	}
	for _, s := range specs {
		pm, err := file.Spec(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := file.Search(pm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Retrieve(pm)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Records) != len(want) {
			t.Fatalf("spec %v: cluster returned %d records, search returned %d",
				s, len(got.Records), len(want))
		}
		key := func(r mkhash.Record) string { return r[0] + "|" + r[1] + "|" + r[2] }
		var a, b []string
		for _, r := range got.Records {
			a = append(a, key(r))
		}
		for _, r := range want {
			b = append(b, key(r))
		}
		sort.Strings(a)
		sort.Strings(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("spec %v: record sets differ", s)
			}
		}
	}
}

func TestRetrieveCostAccounting(t *testing.T) {
	file := carFile(t, 200)
	c := newCluster(t, file, 4)
	pm, _ := file.Spec(map[string]string{"year": "1985"})
	res, err := c.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	// Largest response size = max device buckets.
	wantLRS := 0
	for _, b := range res.DeviceBuckets {
		if b > wantLRS {
			wantLRS = b
		}
	}
	if res.LargestResponseSize != wantLRS {
		t.Errorf("LargestResponseSize = %d, want %d", res.LargestResponseSize, wantLRS)
	}
	// Device bucket counts must equal the allocator's load vector.
	q, _ := file.BucketQuery(pm)
	loads := convolve.Loads(c.Allocator(), q)
	for dev, b := range res.DeviceBuckets {
		if b != loads[dev] {
			t.Errorf("device %d accessed %d buckets, load vector says %d", dev, b, loads[dev])
		}
	}
}

func TestRetrieveInvalidQuery(t *testing.T) {
	file := carFile(t, 10)
	c := newCluster(t, file, 4)
	if _, err := c.Retrieve(make(mkhash.PartialMatch, 1)); err == nil {
		t.Error("wrong arity accepted")
	}
}
