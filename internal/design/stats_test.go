package design

import (
	"math"
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
