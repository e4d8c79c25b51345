package design

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"fxdist/internal/mkhash"
	"fxdist/internal/query"
)

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker(0); err == nil {
		t.Error("zero fields accepted")
	}
}

func TestTrackerObserve(t *testing.T) {
	tr, err := NewTracker(3)
	if err != nil {
		t.Fatal(err)
	}
	// No observations: uninformative prior.
	for _, p := range tr.SpecProbs() {
		if p != 0.5 {
			t.Errorf("prior %v, want 0.5", p)
		}
	}
	if err := tr.Observe(query.New([]int{1, query.Unspecified, 2})); err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(query.New([]int{3, query.Unspecified, query.Unspecified})); err != nil {
		t.Fatal(err)
	}
	v := "x"
	if err := tr.ObservePartialMatch(mkhash.PartialMatch{nil, &v, &v}); err != nil {
		t.Fatal(err)
	}
	if tr.Queries() != 3 {
		t.Errorf("Queries = %d", tr.Queries())
	}
	want := []float64{2.0 / 3, 1.0 / 3, 2.0 / 3}
	got := tr.SpecProbs()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("probs = %v, want %v", got, want)
		}
	}
	if err := tr.Observe(query.New([]int{1})); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := tr.ObservePartialMatch(make(mkhash.PartialMatch, 1)); err == nil {
		t.Error("partial match arity mismatch accepted")
	}
}

func TestTrackerConcurrent(t *testing.T) {
	tr, _ := NewTracker(2)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Observe(query.New([]int{1, query.Unspecified})) //nolint:errcheck
		}()
	}
	wg.Wait()
	if tr.Queries() != 50 {
		t.Errorf("Queries = %d", tr.Queries())
	}
	p := tr.SpecProbs()
	if p[0] != 1 || p[1] != 0 {
		t.Errorf("probs = %v", p)
	}
}

func TestCollectAndMaxDepths(t *testing.T) {
	f := mkhash.MustNew(mkhash.Schema{Fields: []string{"a", "b"}, Depths: []int{3, 3}})
	for i := 0; i < 40; i++ {
		f.Insert(mkhash.Record{fmt.Sprintf("a%d", i%5), fmt.Sprintf("b%d", i%17)}) //nolint:errcheck
	}
	fs := Collect(f)
	if fs.Records != 40 {
		t.Errorf("Records = %d", fs.Records)
	}
	if !reflect.DeepEqual(fs.Distinct, []int{5, 17}) {
		t.Errorf("Distinct = %v", fs.Distinct)
	}
	if !reflect.DeepEqual(fs.MaxDepths(), []int{3, 5}) {
		t.Errorf("MaxDepths = %v", fs.MaxDepths())
	}
}

func TestDesignFields(t *testing.T) {
	fs := FileStats{Records: 10, Distinct: []int{4, 100}}
	fields, err := fs.DesignFields([]float64{0.8, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if fields[0].SpecProb != 0.8 || fields[0].MaxDepth != 2 {
		t.Errorf("field 0 = %+v", fields[0])
	}
	if fields[1].MaxDepth != 7 { // 2^7 = 128 >= 100
		t.Errorf("field 1 = %+v", fields[1])
	}
	if _, err := fs.DesignFields([]float64{0.5}); err == nil {
		t.Error("prob count mismatch accepted")
	}
}
