package workload

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"fxdist/internal/query"
)

func carSpec() RecordSpec {
	return RecordSpec{Fields: []FieldSpec{
		{Name: "make", Cardinality: 20},
		{Name: "model", Cardinality: 200},
		{Name: "year", Cardinality: 30},
	}}
}

func TestValidate(t *testing.T) {
	if err := (RecordSpec{}).Validate(); err == nil {
		t.Error("empty spec accepted")
	}
	bad := carSpec()
	bad.Fields[0].Cardinality = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero cardinality accepted")
	}
	bad2 := carSpec()
	bad2.Fields[1].ZipfS = 0.5
	if err := bad2.Validate(); err == nil {
		t.Error("ZipfS in (0,1] accepted")
	}
	ok := carSpec()
	ok.Fields[1].ZipfS = 1.5
	if err := ok.Validate(); err != nil {
		t.Errorf("valid skewed spec rejected: %v", err)
	}
}

func TestRecordsDeterministicAndWellFormed(t *testing.T) {
	a, err := Records(carSpec(), 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Records(carSpec(), 100, 42)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different records")
	}
	c, _ := Records(carSpec(), 100, 43)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical records")
	}
	for _, r := range a {
		if len(r) != 3 {
			t.Fatalf("record arity %d", len(r))
		}
		if !strings.HasPrefix(r[0], "make-") || !strings.HasPrefix(r[1], "model-") {
			t.Fatalf("value prefixes wrong: %v", r)
		}
	}
}

func TestRecordsZipfSkew(t *testing.T) {
	spec := RecordSpec{Fields: []FieldSpec{{Name: "k", Cardinality: 100, ZipfS: 2.0}}}
	recs, err := Records(spec, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range recs {
		counts[r[0]]++
	}
	// Under Zipf(2) the most common value dominates heavily.
	if counts["k-0"] < 800 {
		t.Errorf("Zipf skew too weak: k-0 appeared %d/2000 times", counts["k-0"])
	}
}

func TestRecordsInvalidSpec(t *testing.T) {
	if _, err := Records(RecordSpec{}, 10, 1); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestSchemaDerivation(t *testing.T) {
	s := Schema(carSpec(), []int{2, 4, 2})
	if !reflect.DeepEqual(s.Fields, []string{"make", "model", "year"}) {
		t.Errorf("fields = %v", s.Fields)
	}
	if !reflect.DeepEqual(s.Depths, []int{2, 4, 2}) {
		t.Errorf("depths = %v", s.Depths)
	}
}

func TestPartialMatchesSpecificationProbability(t *testing.T) {
	pms, err := PartialMatches(carSpec(), 3000, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	specified := 0
	for _, pm := range pms {
		if len(pm) != 3 {
			t.Fatalf("arity %d", len(pm))
		}
		for _, v := range pm {
			if v != nil {
				specified++
			}
		}
	}
	frac := float64(specified) / float64(3000*3)
	if math.Abs(frac-0.5) > 0.03 {
		t.Errorf("specified fraction %.3f, want ~0.5", frac)
	}
	// p=0: nothing specified; p=1: everything specified.
	all, _ := PartialMatches(carSpec(), 10, 1, 1)
	for _, pm := range all {
		for _, v := range pm {
			if v == nil {
				t.Fatal("p=1 left a field unspecified")
			}
		}
	}
	none, _ := PartialMatches(carSpec(), 10, 0, 1)
	for _, pm := range none {
		for _, v := range pm {
			if v != nil {
				t.Fatal("p=0 specified a field")
			}
		}
	}
	if _, err := PartialMatches(carSpec(), 1, 1.5, 1); err == nil {
		t.Error("p > 1 accepted")
	}
	if _, err := PartialMatches(RecordSpec{}, 1, 0.5, 1); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestBucketQueries(t *testing.T) {
	sizes := []int{4, 8, 16}
	qs, err := BucketQueries(sizes, 2000, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	unspec := 0
	for _, q := range qs {
		if len(q.Spec) != 3 {
			t.Fatalf("arity %d", len(q.Spec))
		}
		for j, v := range q.Spec {
			if v == query.Unspecified {
				unspec++
				continue
			}
			if v < 0 || v >= sizes[j] {
				t.Fatalf("value %d out of domain for field %d", v, j)
			}
		}
	}
	frac := float64(unspec) / float64(2000*3)
	if math.Abs(frac-0.5) > 0.03 {
		t.Errorf("unspecified fraction %.3f, want ~0.5", frac)
	}
	if _, err := BucketQueries(nil, 1, 0.5, 1); err == nil {
		t.Error("empty sizes accepted")
	}
	if _, err := BucketQueries(sizes, 1, -0.1, 1); err == nil {
		t.Error("negative p accepted")
	}
	// Determinism.
	a, _ := BucketQueries(sizes, 50, 0.5, 9)
	b, _ := BucketQueries(sizes, 50, 0.5, 9)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different queries")
	}
}

func TestFieldSpecValue(t *testing.T) {
	f := FieldSpec{Name: "year", Cardinality: 10}
	if got := f.Value(7); got != "year-7" {
		t.Errorf("Value = %q", got)
	}
}

// TestRecordsDigestIsPinned pins the relation Records generates: the
// SHA-256 of every value, each closed by a zero byte, of 60 000 records
// of the end-to-end benchmark's six fields. The digest is the one the
// generator gave before values were looked up by an int key per field.
func TestRecordsDigestIsPinned(t *testing.T) {
	spec := RecordSpec{Fields: []FieldSpec{
		{Name: "f0", Cardinality: 2000, ZipfS: 1.2},
		{Name: "f1", Cardinality: 500, ZipfS: 1.2},
		{Name: "f2", Cardinality: 64},
		{Name: "f3", Cardinality: 24},
		{Name: "f4", Cardinality: 8},
		{Name: "f5", Cardinality: 4},
	}}
	recs, err := Records(spec, 60000, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range recs {
		for _, v := range r {
			h.Write(append([]byte(v), 0))
		}
	}
	const want = "fc980e7d9ff5895b9c97677887b912e65beacd8a146133e2f542295fc2f9c2f5"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("relation digest %s, want %s", got, want)
	}
}
