package mkhash

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestWideningToFourByteIds: a field's 65 536th distinct value widens
// every id of the file to 4 bytes in one pass, and before and after it
// Search, Delete, Grow, GrowAdvice and EachBucket agree with a
// brute-force reference over the inserted records.
func TestWideningToFourByteIds(t *testing.T) {
	f := MustNew(Schema{Fields: []string{"k", "g"}, Depths: []int{2, 1}})
	var model []Record
	insert := func(from, to int) {
		for i := from; i < to; i++ {
			r := Record{fmt.Sprint("k", i), fmt.Sprint("g", i%5)}
			if err := f.Insert(r); err != nil {
				t.Fatal(err)
			}
			model = append(model, r)
		}
	}
	keys := func(recs []Record) []string {
		out := make([]string, len(recs))
		for i, r := range recs {
			out[i] = strings.Join(r, "\x00")
		}
		slices.Sort(out)
		return out
	}
	check := func(stage string) {
		t.Helper()
		v, g3, absent := model[len(model)/2][0], "g3", "k-none"
		for _, pm := range []PartialMatch{{nil, nil}, {nil, &g3}, {&v, nil}, {&v, &g3}, {&absent, nil}} {
			var want []Record
			for _, r := range model {
				if (pm[0] == nil || r[0] == *pm[0]) && (pm[1] == nil || r[1] == *pm[1]) {
					want = append(want, r)
				}
			}
			got, err := f.Search(pm)
			if err != nil || !slices.Equal(keys(got), keys(want)) {
				t.Fatalf("%s: Search found %d records, the reference %d (%v)", stage, len(got), len(want), err)
			}
		}
		var seen []Record
		f.EachBucket(func(coords []int, records []Record) {
			for _, r := range records {
				if b, _ := f.BucketOf(r); !slices.Equal(b, coords) {
					t.Fatalf("%s: record %q stored at %v, hashes to %v", stage, r, coords, b)
				}
				seen = append(seen, slices.Clone(r))
			}
		})
		if !slices.Equal(keys(seen), keys(model)) {
			t.Fatalf("%s: EachBucket holds %d records, the reference %d", stage, len(seen), len(model))
		}
		best, score := 0, -1
		for i, d := range f.Depths() {
			moved := 0
			for _, r := range model {
				if DefaultHash(i)(r[i])&(1<<d) != 0 {
					moved++
				}
			}
			if s := min(moved, len(model)-moved); s > score {
				best, score = i, s
			}
		}
		if got, ok := f.GrowAdvice(); !ok || got != best {
			t.Fatalf("%s: GrowAdvice = %d, %v; the reference advises field %d", stage, got, ok, best)
		}
	}
	mutate := func(stage string) {
		t.Helper()
		gone := model[len(model)/3]
		if n, err := f.Delete(gone); n != 1 || err != nil {
			t.Fatalf("%s: Delete(%q) = %d, %v; want 1", stage, gone, n, err)
		}
		model = slices.DeleteFunc(model, func(r Record) bool { return slices.Equal(r, gone) })
		if n, err := f.Delete(Record{"k-none", "g1"}); n != 0 || err != nil {
			t.Fatalf("%s: Delete of a record never stored = %d, %v", stage, n, err)
		}
		if i, _ := f.GrowAdvice(); f.Grow(i) != nil {
			t.Fatalf("%s: Grow(%d) failed", stage, i)
		}
	}

	insert(0, math.MaxUint16)
	check("65 535 values")
	if f.t.w != 2 {
		t.Fatal("ids widened at 65 535 values")
	}
	mutate("65 535 values")
	check("65 535 values, after Delete and Grow")
	insert(math.MaxUint16, math.MaxUint16+1000)
	f.Occupancy()
	if live := int(f.t.records()) - f.t.dead; f.t.w != 4 || live != len(model) {
		t.Fatalf("after the 65 536th value: width %d, %d live records of %d", f.t.w, live, len(model))
	}
	check("65 536 values")
	mutate("65 536 values")
	check("65 536 values, after Delete and Grow")
}
