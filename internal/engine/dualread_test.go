package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"fxdist/internal/mkhash"
)

func dualResult(recs ...mkhash.Record) Result {
	return Result{Records: recs}
}

func leg(res Result, err error, delay time.Duration) func(context.Context, mkhash.PartialMatch) (Result, error) {
	return func(ctx context.Context, _ mkhash.PartialMatch) (Result, error) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
		}
		return res, err
	}
}

func TestDualReaderFastLegWins(t *testing.T) {
	recs := dualResult(mkhash.Record{"a", "b"}, mkhash.Record{"c", "d"})
	d := &DualReader{
		Old: leg(recs, nil, 0),
		New: leg(recs, nil, 50*time.Millisecond),
	}
	res, err := d.Retrieve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 {
		t.Fatalf("got %d records", len(res.Records))
	}
	d.Drain()
	st := d.Stats()
	if st.OldWins != 1 || st.NewWins != 0 {
		t.Errorf("wins old=%d new=%d, want the fast old leg", st.OldWins, st.NewWins)
	}
	if st.Started != 1 || st.Completed != 1 || st.Mismatches != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestDualReaderFallsBackWhenWinnerFails(t *testing.T) {
	recs := dualResult(mkhash.Record{"x"})
	d := &DualReader{
		Old: leg(Result{}, errors.New("old epoch down"), 0),
		New: leg(recs, nil, 10*time.Millisecond),
	}
	res, err := d.Retrieve(context.Background(), nil)
	if err != nil {
		t.Fatalf("fallback leg should have answered: %v", err)
	}
	if len(res.Records) != 1 || res.Records[0][0] != "x" {
		t.Fatalf("got %v", res.Records)
	}
	d.Drain()
	if st := d.Stats(); st.NewWins != 1 || st.Completed != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestDualReaderBothLegsFail(t *testing.T) {
	fastErr := errors.New("fast failure")
	d := &DualReader{
		Old: leg(Result{}, fastErr, 0),
		New: leg(Result{}, errors.New("slow failure"), 10*time.Millisecond),
	}
	if _, err := d.Retrieve(context.Background(), nil); err == nil {
		t.Fatal("both legs failed but Retrieve succeeded")
	} else if !errors.Is(err, fastErr) {
		t.Fatalf("got %v, want the first error", err)
	}
	d.Drain()
	if st := d.Stats(); st.Completed != 1 || st.OldWins+st.NewWins != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestDualReaderLoserErrorIsNotMismatch(t *testing.T) {
	d := &DualReader{
		Old: leg(dualResult(mkhash.Record{"a"}), nil, 0),
		New: leg(Result{}, errors.New("chaos"), 10*time.Millisecond),
	}
	if _, err := d.Retrieve(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	if st := d.Stats(); st.Mismatches != 0 {
		t.Errorf("loser error counted as mismatch: %+v", st)
	}
}

func TestDualReaderMismatchDetectedAcrossOrder(t *testing.T) {
	// Same multiset in a different order must NOT trip the check...
	a := dualResult(mkhash.Record{"a", "b"}, mkhash.Record{"c", "d"})
	b := dualResult(mkhash.Record{"c", "d"}, mkhash.Record{"a", "b"})
	d := &DualReader{
		Old: leg(a, nil, 0),
		New: leg(b, nil, 5*time.Millisecond),
	}
	if _, err := d.Retrieve(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	if st := d.Stats(); st.Mismatches != 0 {
		t.Errorf("reordered identical results flagged: %+v", st)
	}

	// ...while an actually divergent answer must.
	d2 := &DualReader{
		Old: leg(a, nil, 0),
		New: leg(dualResult(mkhash.Record{"a", "b"}), nil, 5*time.Millisecond),
	}
	if _, err := d2.Retrieve(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	d2.Drain()
	if st := d2.Stats(); st.Mismatches != 1 {
		t.Errorf("divergent answers not counted: %+v", st)
	}
}

// TestDualReaderMismatchWinnerIsStableCopy pins what the cross-check
// compares: the winner as it was when Retrieve returned. The caller owns
// the result from then on and may Release it (the pool rewriting its
// memory) before the loser arrives; an identical loser must still match.
func TestDualReaderMismatchWinnerIsStableCopy(t *testing.T) {
	gate := make(chan struct{})
	d := &DualReader{
		Old: leg(Result{Records: []mkhash.Record{{"a", "1"}}}, nil, 0),
		New: func(ctx context.Context, _ mkhash.PartialMatch) (Result, error) {
			<-gate
			return dualResult(mkhash.Record{"a", "1"}), nil
		},
	}
	res, err := d.Retrieve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Records[0][0] = "scribbled"
	close(gate)
	d.Drain()
	if st := d.Stats(); st.Mismatches != 0 {
		t.Fatalf("the cross-check read the winner after Retrieve returned: %+v", st)
	}
}

func TestMultisetDigestProperties(t *testing.T) {
	a := []mkhash.Record{{"ab", "c"}, {"x"}}
	b := []mkhash.Record{{"x"}, {"ab", "c"}}
	if multisetDigest(a) != multisetDigest(b) {
		t.Error("digest is order-sensitive")
	}
	// Field boundaries matter: ["ab","c"] vs ["a","bc"].
	c := []mkhash.Record{{"a", "bc"}, {"x"}}
	if multisetDigest(a) == multisetDigest(c) {
		t.Error("digest ignores field boundaries")
	}
	if multisetDigest(nil) != 0 {
		t.Error("empty digest not zero")
	}
}
