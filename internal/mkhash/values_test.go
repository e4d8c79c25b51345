package mkhash_test

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"fxdist/internal/decluster"
	"fxdist/internal/mkhash"
	"fxdist/internal/workload"
)

// relation is the six-field relation of the end-to-end benchmark's read
// workloads: 60 000 records over 2^14 buckets, the two wide fields Zipf
// skewed, at most 2 600 distinct values.
func relation(tb testing.TB) (mkhash.Schema, []mkhash.Record) {
	tb.Helper()
	spec := workload.RecordSpec{Fields: []workload.FieldSpec{
		{Name: "f0", Cardinality: 2000, ZipfS: 1.2},
		{Name: "f1", Cardinality: 500, ZipfS: 1.2},
		{Name: "f2", Cardinality: 64},
		{Name: "f3", Cardinality: 24},
		{Name: "f4", Cardinality: 8},
		{Name: "f5", Cardinality: 4},
	}}
	recs, err := workload.Records(spec, 60000, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return workload.Schema(spec, []int{4, 3, 3, 2, 1, 1}), recs
}

// TestLoadedRelationSharesItsValues pins the value tables: the 360 000
// values the relation stores come down to few backing arrays, one per
// table slot and one per value that lost its slot to another.
func TestLoadedRelationSharesItsValues(t *testing.T) {
	schema, recs := relation(t)
	f := mkhash.MustNew(schema)
	for _, r := range recs {
		if err := f.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	arrays := make(map[*byte]bool)
	stored := 0
	f.EachBucket(func(_ []int, records []mkhash.Record) {
		for _, r := range records {
			for _, v := range r {
				arrays[unsafe.StringData(v)] = true
				stored++
			}
		}
	})
	if stored != 6*len(recs) || len(arrays) > 8000 {
		t.Errorf("%d values stored in %d backing arrays, want %d in at most 8 000", stored, len(arrays), 6*len(recs))
	}
}

// TestConstantHashKeepsEveryRecord puts every value of every field in
// one slot: only the first value can be shared, every record reads back
// byte-identical, and Delete removes exactly the equal records.
func TestConstantHashKeepsEveryRecord(t *testing.T) {
	zero := func(string) uint64 { return 0 }
	f := mkhash.MustNew(mkhash.Schema{Fields: []string{"a", "b"}, Depths: []int{2, 2}},
		mkhash.WithHash(0, zero), mkhash.WithHash(1, zero))
	in := []mkhash.Record{{"x", "y"}, {"y", "x"}, {"x", "y"}, {"", "x"}, {"xy", ""}, {"x", "z"}}
	for _, r := range in {
		if err := f.Insert(slices.Clone(r)); err != nil {
			t.Fatal(err)
		}
	}
	pm, _ := f.Spec(nil)
	got, _ := f.Search(pm)
	if !slices.EqualFunc(sorted(got), sorted(in), slices.Equal) {
		t.Fatalf("read back %q, inserted %q", got, in)
	}
	if n, err := f.Delete(mkhash.Record{"x", "y"}); n != 2 || err != nil {
		t.Fatalf("Delete(x, y) = %d, %v; want 2", n, err)
	}
	got, _ = f.Search(pm)
	want := []mkhash.Record{{"y", "x"}, {"", "x"}, {"xy", ""}, {"x", "z"}}
	if !slices.EqualFunc(sorted(got), sorted(want), slices.Equal) {
		t.Errorf("after Delete read back %q, want %q", got, want)
	}
}

func sorted(recs []mkhash.Record) []mkhash.Record {
	recs = slices.Clone(recs)
	slices.SortFunc(recs, func(a, b mkhash.Record) int { return slices.Compare(a, b) })
	return recs
}

// TestInsertAllocatesTheRecordOnly: with its values already in their
// slots, an Insert into a bucket whose slab has room allocates nothing,
// and one into a full bucket allocates exactly the grown slab, an eighth
// larger or one record larger while it holds fewer than eight.
func TestInsertAllocatesTheRecordOnly(t *testing.T) {
	f := mkhash.MustNew(mkhash.Schema{Fields: []string{"a", "b", "c"}, Depths: []int{0, 0, 0}})
	r := mkhash.Record{"make-7", "model-47", "1987"}
	f.Insert(r)        //nolint:errcheck
	room, held := 1, 1 // the slab's capacity and length, in records
	insert := func() (allocs float64) {
		if held == room {
			allocs, room = 1, room+max(1, room/8)
		}
		held++
		return allocs
	}
	for held < 300 {
		insert() // AllocsPerRun's warm-up call
		want := insert()
		if got := testing.AllocsPerRun(1, func() { f.Insert(r) }); got != want {
			t.Fatalf("Insert into a bucket of %d records allocates %v times, want %v", held-1, got, want)
		}
	}
}

// TestFileHeapPerRecord bounds what the loaded relation keeps live: its
// slabs, the bucket map and the value tables, per record.
func TestFileHeapPerRecord(t *testing.T) {
	schema, recs := relation(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := mkhash.MustNew(schema)
	for _, r := range recs {
		if err := f.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)
	runtime.KeepAlive(recs)
	if per := float64(after.HeapAlloc-before.HeapAlloc) / float64(len(recs)); per > 120 {
		t.Errorf("the loaded file keeps %.0f B live per record, want at most 120", per)
	} else {
		t.Logf("%.1f B per record", per)
	}
}

// TestRouteIsTheAllocatorsPlacement checks Route against BucketOf and
// the allocator's Device over the relation under FX and Modulo.
func TestRouteIsTheAllocatorsPlacement(t *testing.T) {
	schema, recs := relation(t)
	f := mkhash.MustNew(schema)
	fs, err := f.FileSystem(8)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := decluster.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, alloc := range []decluster.GroupAllocator{fx, decluster.NewModulo(fs)} {
		for _, r := range recs[:2000] {
			coords, _ := f.BucketOf(r)
			dev, bucket, err := f.Route(r, alloc)
			if err != nil || dev != alloc.Device(coords) || bucket != fs.Linear(coords) {
				t.Fatalf("%s: Route(%q) = %d, %d, %v; want %d, %d", alloc.Name(), r, dev, bucket, err, alloc.Device(coords), fs.Linear(coords))
			}
		}
	}
	if _, _, err := f.Route(mkhash.Record{"short"}, fx); err == nil {
		t.Error("Route accepted a record of the wrong arity")
	}
	if n := testing.AllocsPerRun(100, func() { f.Route(recs[0], fx) }); n != 0 { //nolint:errcheck
		t.Errorf("Route allocates %v times, want 0", n)
	}
}

// BenchmarkFileLoad loads the relation into a new file per iteration.
func BenchmarkFileLoad(b *testing.B) {
	schema, recs := relation(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		f := mkhash.MustNew(schema)
		for _, r := range recs {
			if err := f.Insert(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}
