package mkhash

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

func testSchema() Schema {
	return Schema{
		Fields: []string{"make", "model", "year"},
		Depths: []int{2, 3, 1},
	}
}

func strptr(s string) *string { return &s }

func TestSchemaValidate(t *testing.T) {
	if err := (Schema{}).Validate(); err == nil {
		t.Error("empty schema accepted")
	}
	if err := (Schema{Fields: []string{"a"}, Depths: []int{1, 2}}).Validate(); err == nil {
		t.Error("depth/field mismatch accepted")
	}
	if err := (Schema{Fields: []string{"a"}, Depths: []int{-1}}).Validate(); err == nil {
		t.Error("negative depth accepted")
	}
	if err := (Schema{Fields: []string{"a"}, Depths: []int{31}}).Validate(); err == nil {
		t.Error("oversized depth accepted")
	}
	for _, depths := range [][]int{{30, 30, 30}, {17, 16}} {
		if err := (Schema{Fields: []string{"a", "b", "c"}[:len(depths)], Depths: depths}).Validate(); err == nil {
			t.Errorf("depths %v, a grid past 2^32 buckets, accepted", depths)
		}
	}
	if err := (Schema{Fields: []string{"a", "b"}, Depths: []int{16, 16}}).Validate(); err != nil {
		t.Errorf("a grid of 2^32 buckets rejected: %v", err)
	}
	if err := testSchema().Validate(); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
}

func TestNewAndAccessors(t *testing.T) {
	f := MustNew(testSchema())
	if got := f.Sizes(); !reflect.DeepEqual(got, []int{4, 8, 2}) {
		t.Errorf("Sizes = %v", got)
	}
	if f.NumFields() != 3 || f.Len() != 0 {
		t.Error("accessors wrong")
	}
	if i, err := f.FieldIndex("model"); err != nil || i != 1 {
		t.Errorf("FieldIndex(model) = %d, %v", i, err)
	}
	if _, err := f.FieldIndex("nope"); err == nil {
		t.Error("unknown field accepted")
	}
	fs, err := f.FileSystem(4)
	if err != nil || fs.M != 4 || fs.NumBuckets() != 64 {
		t.Errorf("FileSystem = %+v, %v", fs, err)
	}
}

func TestInsertAndBucketOf(t *testing.T) {
	f := MustNew(testSchema())
	r := Record{"ford", "escort", "1988"}
	b, err := f.BucketOf(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Insert(r); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 1 {
		t.Error("Len after insert wrong")
	}
	got := f.Bucket(b)
	if len(got) != 1 || !reflect.DeepEqual(got[0], r) {
		t.Errorf("Bucket = %v", got)
	}
	// Stored record is a copy, not an alias.
	r[0] = "mutated"
	if f.Bucket(b)[0][0] == "mutated" {
		t.Error("Insert aliases caller's record")
	}
	if err := f.Insert(Record{"too", "short"}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := f.BucketOf(Record{"x"}); err == nil {
		t.Error("BucketOf arity mismatch accepted")
	}
}

func TestHashDeterminismAndRange(t *testing.T) {
	f := MustNew(testSchema())
	for trial := 0; trial < 50; trial++ {
		v := fmt.Sprintf("value-%d", trial)
		b1, _ := f.BucketOf(Record{v, v, v})
		b2, _ := f.BucketOf(Record{v, v, v})
		if !reflect.DeepEqual(b1, b2) {
			t.Fatal("hashing not deterministic")
		}
		sizes := f.Sizes()
		for i, c := range b1 {
			if c < 0 || c >= sizes[i] {
				t.Fatalf("coordinate %d out of range: %d", i, c)
			}
		}
	}
	// Field salting: the same value should (generally) hash differently in
	// different fields of equal depth.
	g := MustNew(Schema{Fields: []string{"a", "b"}, Depths: []int{8, 8}})
	diff := 0
	for trial := 0; trial < 32; trial++ {
		v := fmt.Sprintf("value-%d", trial)
		b, _ := g.BucketOf(Record{v, v})
		if b[0] != b[1] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("field salting ineffective: all 32 values collide across fields")
	}
}

// TestDefaultHashGolden pins DefaultHash to the values hash/fnv's
// New64a produced at commit dabf288 (salt bytes, then the value): they
// decide bucket addresses in every durable directory already written.
func TestDefaultHashGolden(t *testing.T) {
	for _, c := range []struct {
		field int
		value string
		want  uint64
	}{
		{0, "", 0x8328807b4eb6fed},
		{0, "a", 0xd94cb1186c0e8ae4},
		{1, "a", 0xd0a378186726fc5f},
		{2, "make3", 0xa101fa4c8ab3bafa},
		{3, "supplier-17", 0xb8d4c046eb7d5fdd},
		{7, "red", 0xe48e7a577f127d81},
		{255, "x", 0xf920b11be415a916},
		{256, "x", 0xd949b4186c0c5a26},
		{257, "x", 0xd0a695186729637d},
		{65535, "edge", 0xa45ebdc4e6e9aeee},
		{4, "h\u00e9llo w\u00f6rld", 0xf8c90a0846943786},
		{5, "\x00\xff", 0x2d405955eec1d02d},
		{6, "the quick brown fox jumps over the lazy dog", 0xa449c0191c35a1b6},
		{1, "0", 0xd0a3c7186727829c},
		{0, "part-000123", 0x3ea7ae0d2622695f},
		{3, "2026-10-03", 0x59de16f92d5b4bec},
	} {
		if got := DefaultHash(c.field)(c.value); got != c.want {
			t.Errorf("DefaultHash(%d)(%q) = %#x, want %#x", c.field, c.value, got, c.want)
		}
	}
}

// TestDefaultHashAllocatesNothing: the inlined FNV-1a hashes a value
// without allocating, on every field of every insert and query.
func TestDefaultHashAllocatesNothing(t *testing.T) {
	h := DefaultHash(3)
	var sink uint64
	if got := testing.AllocsPerRun(100, func() { sink += h("supplier-17") }); got != 0 {
		t.Errorf("DefaultHash: %.0f allocations per call, want 0", got)
	}
	_ = sink
}

func TestWithHashOverride(t *testing.T) {
	constant := func(string) uint64 { return 3 }
	f := MustNew(testSchema(), WithHash(0, constant))
	b, _ := f.BucketOf(Record{"anything", "else", "x"})
	if b[0] != 3 {
		t.Errorf("override ignored: %v", b)
	}
}

func TestSearchExactAndPartial(t *testing.T) {
	f := MustNew(testSchema())
	records := []Record{
		{"ford", "escort", "1988"},
		{"ford", "sierra", "1988"},
		{"bmw", "e30", "1988"},
		{"ford", "escort", "1990"},
	}
	for _, r := range records {
		if err := f.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	pm, err := f.Spec(map[string]string{"make": "ford"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Search(pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("Search(make=ford) returned %d records, want 3", len(got))
	}
	for _, r := range got {
		if r[0] != "ford" {
			t.Errorf("non-matching record returned: %v", r)
		}
	}
	pm2, _ := f.Spec(map[string]string{"make": "ford", "model": "escort", "year": "1988"})
	got2, _ := f.Search(pm2)
	if len(got2) != 1 || got2[0][1] != "escort" {
		t.Errorf("exact search = %v", got2)
	}
	// Unspecified everything returns all records.
	all, _ := f.Search(make(PartialMatch, 3))
	if len(all) != 4 {
		t.Errorf("full scan returned %d records", len(all))
	}
	// Non-existent value returns nothing (hash collisions filtered).
	pm3, _ := f.Spec(map[string]string{"make": "lada"})
	got3, _ := f.Search(pm3)
	if len(got3) != 0 {
		t.Errorf("Search(make=lada) = %v, want empty", got3)
	}
}

func TestSpecUnknownField(t *testing.T) {
	f := MustNew(testSchema())
	if _, err := f.Spec(map[string]string{"colour": "red"}); err == nil {
		t.Error("unknown field accepted")
	}
	_, err := f.SpecPairs([][2]string{{"make", "ford"}, {"colour", "red"}}, nil)
	if err == nil || err.Error() != `mkhash: no field named "colour"` {
		t.Errorf("SpecPairs with an unknown field: %v", err)
	}
}

// TestSpecPairs pins the pairs form: a later pair overrides an earlier
// one, and however many fields are given the PartialMatch costs one
// allocation, none in an array with room, and points into the pairs
// (two allocations before: its own copy of the values). Spec goes
// through it and adds the pairs list.
func TestSpecPairs(t *testing.T) {
	f := MustNew(testSchema())
	pm, err := f.SpecPairs([][2]string{{"year", "1988"}, {"make", "ford"}, {"year", "1990"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pm[0] == nil || *pm[0] != "ford" || pm[1] != nil || pm[2] == nil || *pm[2] != "1990" {
		t.Errorf("SpecPairs gave %v", pm)
	}
	if pm, err := f.SpecPairs(nil, nil); err != nil || len(pm) != 3 || pm[0] != nil || pm[1] != nil || pm[2] != nil {
		t.Errorf("SpecPairs(nil) = %v, %v", pm, err)
	}
	if testing.Short() {
		return
	}
	for _, pairs := range [][][2]string{{{"make", "ford"}}, {{"make", "ford"}, {"model", "escort"}, {"year", "1988"}}} {
		if allocs := testing.AllocsPerRun(50, func() { f.SpecPairs(pairs, nil) }); allocs != 1 {
			t.Errorf("SpecPairs of %d fields: %.0f allocations, want 1", len(pairs), allocs)
		}
	}
	all := map[string]string{"make": "ford", "model": "escort", "year": "1988"}
	if allocs := testing.AllocsPerRun(50, func() { f.Spec(all) }); allocs != 2 {
		t.Errorf("Spec of 3 fields: %.0f allocations, want 2", allocs)
	}
	pairs := [][2]string{{"year", "1988"}, {"make", "ford"}}
	into := make(PartialMatch, 3)
	if allocs := testing.AllocsPerRun(50, func() { pm, err = f.SpecPairs(pairs, into[:0]) }); allocs != 0 || err != nil {
		t.Errorf("SpecPairs into an array with room: %.0f allocations, %v; want 0", allocs, err)
	}
	if pm[0] != &pairs[1][1] || pm[1] != nil || pm[2] != &pairs[0][1] || &pm[0] != &into[0] {
		t.Errorf("SpecPairs gave %v, not views of the pairs in the given array", pm)
	}
}

func TestBucketQueryArity(t *testing.T) {
	f := MustNew(testSchema())
	if _, err := f.BucketQuery(make(PartialMatch, 2)); err == nil {
		t.Error("wrong arity accepted")
	}
	pm := make(PartialMatch, 3)
	pm[1] = strptr("escort")
	q, err := f.BucketQuery(pm)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumUnspecified() != 2 {
		t.Errorf("NumUnspecified = %d", q.NumUnspecified())
	}
	if _, err := f.Search(make(PartialMatch, 1)); err == nil {
		t.Error("Search with wrong arity accepted")
	}
}

func TestGrowPreservesRecordsAndSearch(t *testing.T) {
	f := MustNew(testSchema())
	var want []string
	for i := 0; i < 200; i++ {
		r := Record{fmt.Sprintf("make%d", i%5), fmt.Sprintf("model%d", i), "1988"}
		want = append(want, r[1])
		if err := f.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for fieldIdx := 0; fieldIdx < 3; fieldIdx++ {
		if err := f.Grow(fieldIdx); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.Sizes(); !reflect.DeepEqual(got, []int{8, 16, 4}) {
		t.Errorf("Sizes after grow = %v", got)
	}
	if f.Len() != 200 {
		t.Errorf("Len after grow = %d", f.Len())
	}
	all, err := f.Search(make(PartialMatch, 3))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range all {
		got = append(got, r[1])
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Error("records lost or duplicated by Grow")
	}
	// Point search still works after growth.
	pm, _ := f.Spec(map[string]string{"model": "model7"})
	res, _ := f.Search(pm)
	if len(res) != 1 || res[0][1] != "model7" {
		t.Errorf("post-grow search = %v", res)
	}
}

func TestGrowValidation(t *testing.T) {
	f := MustNew(testSchema())
	if err := f.Grow(-1); err == nil {
		t.Error("negative field accepted")
	}
	if err := f.Grow(3); err == nil {
		t.Error("out-of-range field accepted")
	}
	g := MustNew(Schema{Fields: []string{"a"}, Depths: []int{30}})
	if err := g.Grow(0); err == nil {
		t.Error("grow past max depth accepted")
	}
	h := MustNew(Schema{Fields: []string{"a", "b"}, Depths: []int{16, 16}})
	h.Insert(Record{"x", "y"}) //nolint:errcheck
	if err := h.Grow(0); err == nil {
		t.Error("grow past 2^32 buckets accepted")
	}
	if i, ok := h.GrowAdvice(); ok {
		t.Errorf("GrowAdvice = field %d on a grid of 2^32 buckets", i)
	}
}

func TestEachBucket(t *testing.T) {
	f := MustNew(testSchema())
	for i := 0; i < 50; i++ {
		f.Insert(Record{fmt.Sprintf("m%d", i), fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i)})
	}
	total := 0
	sizes := f.Sizes()
	f.EachBucket(func(coords []int, recs []Record) {
		for i, c := range coords {
			if c < 0 || c >= sizes[i] {
				t.Fatalf("coords out of range: %v", coords)
			}
		}
		// Coordinates must round-trip: every record in the bucket hashes
		// to these coordinates.
		for _, r := range recs {
			b, _ := f.BucketOf(r)
			if !reflect.DeepEqual(b, coords) {
				t.Fatalf("record %v in bucket %v hashes to %v", r, coords, b)
			}
		}
		total += len(recs)
	})
	if total != 50 {
		t.Errorf("EachBucket visited %d records, want 50", total)
	}
}

func TestDelete(t *testing.T) {
	f := MustNew(testSchema())
	dup := Record{"ford", "escort", "1988"}
	f.Insert(dup)                          //nolint:errcheck
	f.Insert(dup)                          //nolint:errcheck
	f.Insert(Record{"bmw", "e30", "1988"}) //nolint:errcheck
	n, err := f.Delete(dup)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || f.Len() != 1 {
		t.Errorf("deleted %d, Len %d; want 2, 1", n, f.Len())
	}
	// Deleting again removes nothing.
	n, err = f.Delete(dup)
	if err != nil || n != 0 {
		t.Errorf("second delete = %d, %v", n, err)
	}
	// Remaining record still searchable.
	pm, _ := f.Spec(map[string]string{"make": "bmw"})
	recs, _ := f.Search(pm)
	if len(recs) != 1 {
		t.Errorf("survivor not found: %v", recs)
	}
	if _, err := f.Delete(Record{"arity"}); err == nil {
		t.Error("wrong-arity delete accepted")
	}
}

func TestOccupancy(t *testing.T) {
	f := MustNew(testSchema())
	if mean, max := f.Occupancy(); mean != 0 || max != 0 {
		t.Errorf("empty occupancy = %v, %v", mean, max)
	}
	for i := 0; i < 30; i++ {
		f.Insert(Record{"same", "same", "same"}) //nolint:errcheck // all one bucket
	}
	mean, max := f.Occupancy()
	if mean != 30 || max != 30 {
		t.Errorf("occupancy = %v, %v; want 30, 30", mean, max)
	}
}

func TestGrowAdvice(t *testing.T) {
	f := MustNew(testSchema())
	if _, ok := f.GrowAdvice(); ok {
		t.Error("advice on an empty file")
	}
	// Field 0 constant (splits nothing), field 1 diverse, field 2 constant.
	for i := 0; i < 200; i++ {
		f.Insert(Record{"const", fmt.Sprintf("v%d", i), "const"}) //nolint:errcheck
	}
	idx, ok := f.GrowAdvice()
	if !ok || idx != 1 {
		t.Errorf("GrowAdvice = %d, %v; want field 1", idx, ok)
	}
	// Following the advice actually reduces peak occupancy.
	_, maxBefore := f.Occupancy()
	if err := f.Grow(idx); err != nil {
		t.Fatal(err)
	}
	_, maxAfter := f.Occupancy()
	if maxAfter >= maxBefore {
		t.Errorf("max occupancy %d -> %d after advised growth", maxBefore, maxAfter)
	}
}

func TestGrowSplitsBuckets(t *testing.T) {
	// With enough records, growing a field must actually split occupancy:
	// some bucket cell along that field gains a sibling.
	f := MustNew(Schema{Fields: []string{"k"}, Depths: []int{1}})
	for i := 0; i < 64; i++ {
		f.Insert(Record{fmt.Sprintf("key-%d", i)})
	}
	f.place()
	before := f.t.Buckets()
	if err := f.Grow(0); err != nil {
		t.Fatal(err)
	}
	after := f.t.Buckets()
	if after <= before {
		t.Errorf("bucket count did not increase on grow: %d -> %d", before, after)
	}
}

// TestFreezeHoldsLiveRecordsOnly: a file whose ids still hold records
// it replaced freezes into a copy of its live records alone, which
// reads as the file does and stays so when the file changes.
func TestFreezeHoldsLiveRecordsOnly(t *testing.T) {
	f := MustNew(Schema{Fields: []string{"k", "v"}, Depths: []int{2, 1}})
	for i := range 40 {
		f.Insert(Record{fmt.Sprint("k", i%8), fmt.Sprint("v", i)})
	}
	f.Occupancy()
	f.Insert(Record{"k0", "late"}) // replaces k0's bucket at the next read
	if n, err := f.Delete(Record{"k1", "v1"}); n != 1 || err != nil {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	if f.Occupancy(); f.t.dead == 0 {
		t.Fatal("fixture: the file holds no replaced records")
	}
	frozen := f.Freeze()
	if frozen.dead != 0 || int(frozen.records()) != f.Len() {
		t.Fatalf("frozen copy holds %d records, %d dead; the file %d", frozen.records(), frozen.dead, f.Len())
	}
	f.Insert(Record{"k2", "after"})
	d := 0
	frozen.EachBucket(func(b uint32) { d += frozen.Digest(b).Records })
	if d != 40 {
		t.Errorf("frozen copy reads %d records after an Insert, want 40", d)
	}
}

// TestSplitLeavesItsPartsDictionaryAlone: tables split from one another
// never write what they share in place, the source included — a server's
// partition is still written under a rescale's prepared copy. A value the
// source takes after the Split goes into a dictionary of its own, and
// each table reads what it stored.
func TestSplitLeavesItsPartsDictionaryAlone(t *testing.T) {
	src := NewTable(1)
	for b, v := range []string{"a", "b"} {
		if err := src.Put(uint32(b), []Record{{v}}); err != nil {
			t.Fatal(err)
		}
	}
	part := src.Split(2, func(b uint32) int { return int(b) })[0]
	if err := src.Put(2, []Record{{"c"}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := part.fields[0].ids["c"]; ok || len(part.fields[0].values) != 2 {
		t.Fatalf("the source's new value reached the part's dictionary: %q", part.fields[0].values)
	}
	if err := part.Put(3, []Record{{"c"}}); err != nil {
		t.Fatal(err)
	}
	for b, tb := range map[uint32]*Table{2: src, 3: part} {
		var got []string
		tb.Scan(b, nil, func(k uint32) { got = tb.appendValues(got, k) })
		if len(got) != 1 || got[0] != "c" {
			t.Errorf("bucket %d reads %q, want [c]", b, got)
		}
	}
}
