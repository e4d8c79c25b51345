package mkhash_test

import (
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
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

// mallocs returns how many heap objects fn allocates, with the collector
// off: a cycle that starts inside fn allocates objects of its own.
func mallocs(fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// load inserts recs into a new file of the schema and places them.
func load(tb testing.TB, schema mkhash.Schema, recs []mkhash.Record) *mkhash.File {
	tb.Helper()
	f := mkhash.MustNew(schema)
	for _, r := range recs {
		if err := f.Insert(r); err != nil {
			tb.Fatal(err)
		}
	}
	f.Occupancy()
	return f
}

// TestInsertAllocatesTheRecordOnly: with their values already in their
// dictionaries, k inserts allocate only the room their ids take, staging
// chunks and keys that grow geometrically, O(log k) objects however many
// buckets they touch (one slab copy per insert into a full bucket
// before), and placing them into buckets the file already holds grows the
// file's ids once, whatever the number of buckets.
func TestInsertAllocatesTheRecordOnly(t *testing.T) {
	_, recs := relation(t)
	for _, depths := range [][]int{{0, 0, 0, 0, 0, 0}, {1, 1, 1, 1, 1, 1}, {4, 3, 3, 2, 1, 1}} {
		schema := mkhash.Schema{Fields: []string{"f0", "f1", "f2", "f3", "f4", "f5"}, Depths: depths}
		for _, k := range []int{1, 1000, len(recs)} {
			f := load(t, schema, recs[:k])
			inserts := mallocs(func() {
				for _, r := range recs[:k] {
					f.Insert(r) //nolint:errcheck
				}
			})
			if limit := 4 * uint64(bits.Len(uint(k))); inserts > limit {
				t.Errorf("depths %v: %d inserts allocate %d times, want at most %d", depths, k, inserts, limit)
			}
			if placing := mallocs(func() { f.Occupancy() }); placing < 1 || placing > 2 {
				t.Errorf("depths %v: placing %d records allocates %d times, want 1 or 2", depths, k, placing)
			}
		}
	}
}

// TestFileHeapPerRecord bounds what the loaded and placed relation keeps
// live per record: its ids (12 B a record), the span map and the
// dictionaries.
func TestFileHeapPerRecord(t *testing.T) {
	schema, recs := relation(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := load(t, schema, recs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)
	runtime.KeepAlive(recs)
	if per := float64(after.HeapAlloc-before.HeapAlloc) / float64(len(recs)); per > 40 {
		t.Errorf("the loaded file keeps %.0f B live per record, want at most 40", per)
	} else {
		t.Logf("%.1f B per record", per)
	}
}

// TestPlacedSlabsAreTheInsertOrder: however reads interleave with the
// inserts, every placed bucket holds its records in the order they were
// inserted, value for value, as the one-slab-per-insert file laid them
// out.
func TestPlacedSlabsAreTheInsertOrder(t *testing.T) {
	schema, recs := relation(t)
	fs, _ := mkhash.MustNew(schema).FileSystem(1)
	for _, every := range []int{len(recs), 7919, 1} {
		f := mkhash.MustNew(schema)
		want := map[int][]string{}
		for i, r := range recs[:min(len(recs), 1000*every)] {
			f.Insert(r) //nolint:errcheck
			coords, _ := f.BucketOf(r)
			want[fs.Linear(coords)] = append(want[fs.Linear(coords)], r...)
			if i%every == every-1 {
				f.Occupancy()
			}
		}
		got := 0
		f.EachBucket(func(coords []int, records []mkhash.Record) {
			var slab []string
			for _, r := range records {
				slab = append(slab, r...)
			}
			if got++; !slices.Equal(slab, want[fs.Linear(coords)]) {
				t.Fatalf("read every %d: bucket %v holds %q, inserted %q", every, coords, slab, want[fs.Linear(coords)])
			}
		})
		if got != len(want) {
			t.Errorf("read every %d: %d slabs, %d buckets inserted into", every, got, len(want))
		}
	}
}

// TestConcurrentReadersOfAJustLoadedFile: the first reads of a loaded
// file race to place it; every reader sees the whole file. CI runs it
// under the race detector.
func TestConcurrentReadersOfAJustLoadedFile(t *testing.T) {
	schema, recs := relation(t)
	recs = recs[:5000]
	f := mkhash.MustNew(schema)
	for _, r := range recs {
		f.Insert(r) //nolint:errcheck
	}
	coords, _ := f.BucketOf(recs[0])
	pm, _ := f.Spec(map[string]string{"f5": recs[0][5]})
	want, _ := load(t, schema, recs).Search(pm)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch g % 4 {
			case 0:
				if got, err := f.Search(pm); err != nil || len(got) != len(want) {
					t.Errorf("Search found %d records, %v; want %d", len(got), err, len(want))
				}
			case 1:
				n := 0
				f.EachBucket(func(_ []int, records []mkhash.Record) { n += len(records) })
				if n != len(recs) {
					t.Errorf("EachBucket saw %d records, want %d", n, len(recs))
				}
			case 2:
				if got := f.Bucket(coords); len(got) == 0 || !slices.Equal(got[0], recs[0]) {
					t.Errorf("Bucket(%v) = %q, want %q first", coords, got, recs[0])
				}
			case 3:
				if mean, _ := f.Occupancy(); mean == 0 {
					t.Error("Occupancy of an empty file")
				}
			}
		}()
	}
	wg.Wait()
}

// TestAlternatingInsertAndReadStaysSmall: a file read after every insert
// places one record at a time, and each step allocates the touched
// bucket's new slab and a one-record staging chunk, a few records'
// worth, not a staging chunk sized for a load.
func TestAlternatingInsertAndReadStaysSmall(t *testing.T) {
	schema, recs := relation(t)
	f := load(t, schema, recs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range recs[:1000] {
		f.Insert(r) //nolint:errcheck
		f.Occupancy()
	}
	runtime.ReadMemStats(&after)
	record := uint64(6 * unsafe.Sizeof(""))
	if per := (after.TotalAlloc - before.TotalAlloc) / 1000; per > 32*record {
		t.Errorf("each insert and read allocates %d B, want at most 32 records' worth (%d B)", per, 32*record)
	} else {
		t.Logf("%d B (%.1f records' worth) per insert and read", per, float64(per)/float64(record))
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

// BenchmarkFileLoad loads the relation into a new file per iteration,
// and places it with one read.
func BenchmarkFileLoad(b *testing.B) {
	schema, recs := relation(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		load(b, schema, recs)
	}
}
