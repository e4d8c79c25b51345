package mkhash

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

// FuzzInsertSearch: any inserted record must be found by its own
// exact-match query, and partial matches on each single field must
// include it. Then ops interleaves Insert, Delete and Grow over records
// drawn from the three values, against a multiset model: the file must
// hold exactly the model's records after every step, and every record
// view and slab it handed out earlier must read as it did then.
func FuzzInsertSearch(f *testing.F) {
	f.Add("ford", "escort", "1988", []byte{0x00, 0x04, 0x03, 0x02, 0x01, 0x03, 0x06, 0x10})
	f.Add("", "", "", []byte{0x00, 0x00, 0x03, 0x01, 0x03})
	f.Add("a\x00b", "unicode ✓", "\xff\xfe", []byte{0x24, 0x48, 0x03, 0x0a, 0x25, 0x03, 0x0e, 0x49})
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
		for _, op := range ops {
			r := Record{pool[op>>2&3], pool[op>>4&3], pool[op>>6&3]}
			key := strings.Join(r, "\x00")
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
				all, _ := file.Search(make(PartialMatch, 3))
				for _, v := range all {
					views = append(views, held{v, slices.Clone(v)})
				}
				file.EachSlab(func(_ []int, slab []string) {
					views = append(views, held{slab, slices.Clone(slab)})
				})
			}
			all, err := file.Search(make(PartialMatch, 3))
			if err != nil {
				t.Fatal(err)
			}
			have := map[string]int{}
			for _, v := range all {
				have[strings.Join(v, "\x00")]++
			}
			if len(all) != file.Len() || !maps.Equal(have, model) {
				t.Fatalf("after op %#x the file holds %q (Len %d), the model %v", op, all, file.Len(), model)
			}
			for _, h := range views {
				if !slices.Equal(h.view, h.was) {
					t.Fatalf("after op %#x a view taken earlier reads %q, was %q", op, h.view, h.was)
				}
			}
		}
	})
}
