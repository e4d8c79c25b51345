package mkhash

import (
	"fmt"
	"maps"
	"slices"
	"testing"
)

// FuzzInsertSearch: any inserted record must be found by its own
// exact-match query, and partial matches on each single field must
// include it. Then ops interleaves Insert, Delete, Grow and reads over
// records drawn from the three values, against a multiset model: at
// every read, where the staged Inserts are placed, and at the end the
// file must hold exactly the model's records, no more replaced records
// than live ones, a value no record holds must match nothing, and every
// record it handed out earlier must read as it did then.
func FuzzInsertSearch(f *testing.F) {
	f.Add("ford", "escort", "1988", []byte{0x00, 0x04, 0x03, 0x02, 0x01, 0x03, 0x06, 0x10})
	f.Add("", "", "", []byte{0x00, 0x00, 0x03, 0x01, 0x03})
	f.Add("a\x00b", "unicode ✓", "\xff\xfe", []byte{0x24, 0x48, 0x03, 0x0a, 0x25, 0x03, 0x0e, 0x49})
	// A delete of a record never stored, with no record and with one.
	f.Add("k", "v", "w", []byte{0x01, 0x03, 0x00, 0x55, 0x03})
	// Reads between inserts, each also asking for a value no record holds.
	f.Add("p", "p", "p", []byte{0x00, 0x03, 0x14, 0x03, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, a, b, c string, ops []byte) {
		file := MustNew(Schema{Fields: []string{"x", "y", "z"}, Depths: []int{2, 3, 1}})
		rec := Record{a, b, c}
		if err := file.Insert(rec); err != nil {
			t.Fatalf("insert: %v", err)
		}
		// Exact match.
		pm := PartialMatch{&a, &b, &c}
		got, err := file.Search(pm)
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		if len(got) != 1 {
			t.Fatalf("exact search found %d records", len(got))
		}
		// Each single-field partial match.
		for i, v := range []string{a, b, c} {
			pm := make(PartialMatch, 3)
			val := v
			pm[i] = &val
			got, err := file.Search(pm)
			if err != nil {
				t.Fatalf("partial search: %v", err)
			}
			if len(got) != 1 {
				t.Fatalf("field %d partial match found %d records", i, len(got))
			}
		}
		// Delete removes it.
		n, err := file.Delete(rec)
		if err != nil || n != 1 {
			t.Fatalf("delete = %d, %v", n, err)
		}
		if file.Len() != 0 {
			t.Fatal("file not empty after delete")
		}

		if len(ops) > 64 {
			ops = ops[:64]
		}
		pool := []string{a, b, c, a + b}
		model := map[string]int{}
		type held struct{ view, was []string }
		var views []held
		// check reads the file: the first read after Inserts places them.
		check := func(op byte) {
			all, err := file.Search(make(PartialMatch, 3))
			if err != nil {
				t.Fatal(err)
			}
			have := map[string]int{}
			for _, v := range all {
				have[fmt.Sprintf("%q", v)]++
			}
			if len(all) != file.Len() || !maps.Equal(have, model) {
				t.Fatalf("after op %#x the file holds %q (Len %d), the model %v", op, all, file.Len(), model)
			}
			if file.t.dead > file.Len() {
				t.Fatalf("after op %#x the file's ids hold %d replaced records for %d live ones", op, file.t.dead, file.Len())
			}
			absent := a + b + c + "!" // longer than every value of the pool
			for i := range 3 {
				pm := make(PartialMatch, 3)
				pm[i] = &absent
				if got, err := file.Search(pm); len(got) != 0 || err != nil {
					t.Fatalf("after op %#x field %d value %q no record holds matches %q, %v", op, i, absent, got, err)
				}
			}
			for _, h := range views {
				if !slices.Equal(h.view, h.was) {
					t.Fatalf("after op %#x a view taken earlier reads %q, was %q", op, h.view, h.was)
				}
			}
		}
		for _, op := range ops {
			r := Record{pool[op>>2&3], pool[op>>4&3], pool[op>>6&3]}
			key := fmt.Sprintf("%q", r) // quoted: a value may hold any byte
			switch op & 3 {
			case 0:
				if err := file.Insert(slices.Clone(r)); err != nil {
					t.Fatal(err)
				}
				model[key]++
			case 1:
				n, err := file.Delete(r)
				if err != nil || n != model[key] {
					t.Fatalf("Delete(%q) = %d, %v; the model holds %d", r, n, err, model[key])
				}
				delete(model, key)
			case 2:
				if i := int(op>>2) % 3; file.Depths()[i] < 8 {
					if err := file.Grow(i); err != nil {
						t.Fatal(err)
					}
				}
			case 3:
				check(op)
				all, _ := file.Search(make(PartialMatch, 3))
				for _, v := range all {
					views = append(views, held{v, slices.Clone(v)})
				}
			}
		}
		check(0xff)
	})
}

// FuzzGridAddress: a schema whose grid holds at most 2^32 buckets is
// accepted, a larger one refused; in an accepted one every record lies in
// the bucket EachBucket reports at its BucketOf coordinates, and the
// grid's Linear and Coords round-trip them.
func FuzzGridAddress(f *testing.F) {
	f.Add([]byte{30, 2}, "a", "b")
	f.Add([]byte{16, 16}, "x", "")
	f.Add([]byte{30, 30, 30}, "p", "q")
	f.Add([]byte{8, 8, 8, 7, 0, 1}, "", "z")
	f.Fuzz(func(t *testing.T, depths []byte, a, b string) {
		if len(depths) == 0 || len(depths) > 8 {
			return
		}
		var schema Schema
		sum := 0
		for i, d := range depths {
			schema.Fields = append(schema.Fields, fmt.Sprint("f", i))
			schema.Depths = append(schema.Depths, int(d%31))
			sum += int(d % 31)
		}
		file, err := New(schema)
		if (err != nil) != (sum > MaxGridBits) {
			t.Fatalf("New(depths %v, summing to %d) = %v", schema.Depths, sum, err)
		}
		if err != nil {
			return
		}
		fs, err := file.FileSystem(1)
		if err != nil {
			t.Fatal(err)
		}
		n := len(depths)
		for j := range 32 {
			r := make(Record, n)
			for i := range r {
				r[i] = fmt.Sprint(a, j*n+i, b)
			}
			file.Insert(r) //nolint:errcheck
		}
		seen := 0
		file.EachBucket(func(coords []int, records []Record) {
			for _, r := range records {
				if b, _ := file.BucketOf(r); !slices.Equal(b, coords) {
					t.Fatalf("depths %v: record %q hashes to %v, stored at %v", schema.Depths, r, b, coords)
				}
				seen++
			}
			idx := fs.Linear(coords)
			if idx < 0 || idx >= 1<<MaxGridBits || !slices.Equal(fs.Coords(idx, nil), coords) {
				t.Fatalf("depths %v: coordinates %v are index %d, back to %v", schema.Depths, coords, idx, fs.Coords(idx, nil))
			}
		})
		if seen != 32 {
			t.Fatalf("depths %v: EachBucket holds %d records, 32 inserted", schema.Depths, seen)
		}
	})
}
