package audit

import (
	"testing"
	"time"

	"fxdist/internal/obs"
	"fxdist/internal/query"
)

func q(spec ...int) query.Query { return query.New(spec) }

func TestBound(t *testing.T) {
	cases := []struct{ rq, m, want int }{
		{4, 4, 1}, {5, 4, 2}, {8, 4, 2}, {1, 4, 1}, {0, 4, 0}, {7, 0, 0},
	}
	for _, c := range cases {
		if got := Bound(c.rq, c.m); got != c.want {
			t.Errorf("Bound(%d,%d) = %d, want %d", c.rq, c.m, got, c.want)
		}
	}
}

// done feeds the auditor one finished retrieval the way the executor
// does: a query record carrying the shape, |R(q)|, the bound and the
// merged bucket counts (nil for a failed retrieval).
func done(a *Auditor, q query.Query, rq int, buckets []int, elapsed time.Duration) {
	a.Observe(&obs.QueryRecord{
		Shape: q.Shape(), RQ: rq, Bound: Bound(rq, len(buckets)),
		DeviceBuckets: buckets, Failed: buckets == nil, Elapsed: elapsed,
	})
}

func TestAuditorAggregatesPerShape(t *testing.T) {
	a := New("test-agg", SLO{})
	u := query.Unspecified

	// Strict optimal retrieval: bound ceil(4/4)=1, all devices at 1.
	done(a, q(u, 0, u), 4, []int{1, 1, 1, 1}, time.Millisecond)
	// Violating retrieval of the same shape: device 2 serves 3 > 1.
	done(a, q(u, 1, u), 4, []int{1, 0, 3, 0}, time.Millisecond)
	// A different shape stays separate.
	done(a, q(0, 0, u), 2, []int{1, 1, 0, 0}, time.Millisecond)
	// Failed retrieval: counted, not audited.
	done(a, q(u, 2, u), 4, nil, time.Millisecond)

	rep := a.Report()
	if len(rep.Shapes) != 2 {
		t.Fatalf("got %d shapes, want 2: %+v", len(rep.Shapes), rep.Shapes)
	}
	var star, spec ShapeReport
	for _, s := range rep.Shapes {
		switch s.Shape {
		case "*s*":
			star = s
		case "ss*":
			spec = s
		default:
			t.Fatalf("unexpected shape %q", s.Shape)
		}
	}
	if star.Queries != 3 || star.Violations != 1 {
		t.Errorf("*s*: queries=%d violations=%d, want 3/1", star.Queries, star.Violations)
	}
	if star.MaxDeviation != 2 || star.WorstDevice != 2 {
		t.Errorf("*s*: maxdev=%d worst=%d, want 2/device 2", star.MaxDeviation, star.WorstDevice)
	}
	if want := 2.0 / 3.0; star.MeanDeviation != want {
		t.Errorf("*s*: meandev=%g, want %g", star.MeanDeviation, want)
	}
	if star.Bound != 1 || star.RQ != 4 || star.M != 4 || star.MaxBuckets != 3 {
		t.Errorf("*s*: bound=%d rq=%d m=%d maxbuckets=%d", star.Bound, star.RQ, star.M, star.MaxBuckets)
	}
	if spec.Queries != 1 || spec.Violations != 0 || spec.MaxDeviation != 0 || spec.WorstDevice != -1 {
		t.Errorf("ss*: %+v, want one clean query", spec)
	}
}

func TestSLOCountsAndBurnRate(t *testing.T) {
	a := New("test-slo", SLO{Target: 10 * time.Millisecond, Goal: 0.9})
	u := query.Unspecified
	for i := 0; i < 8; i++ {
		done(a, q(u, 0), 2, []int{1, 1}, time.Millisecond) // good
	}
	done(a, q(u, 1), 2, []int{1, 1}, time.Second) // slow: bad
	done(a, q(u, 2), 2, nil, time.Millisecond)    // failed: bad

	rep := a.Report()
	if len(rep.Shapes) != 1 {
		t.Fatalf("got %d shapes, want 1", len(rep.Shapes))
	}
	s := rep.Shapes[0]
	if s.Good != 8 || s.Bad != 2 {
		t.Errorf("good=%d bad=%d, want 8/2", s.Good, s.Bad)
	}
	// Window bad fraction 2/10 over error budget 0.1 → burn rate 2.
	if s.BurnRate < 1.99 || s.BurnRate > 2.01 {
		t.Errorf("burn rate = %g, want 2", s.BurnRate)
	}
	if s.SLOTarget != 10*time.Millisecond || s.SLOGoal != 0.9 {
		t.Errorf("slo echoed wrong: %+v", s)
	}
}

func TestShapeSLOOverride(t *testing.T) {
	a := New("test-override", SLO{})
	a.SetSLO(SLO{Target: time.Hour, Goal: 0.99})
	a.SetShapeSLO("*s", SLO{Target: time.Nanosecond, Goal: 0.5})
	u := query.Unspecified
	done(a, q(u, 0), 2, []int{1, 1}, time.Millisecond) // misses the 1ns override
	done(a, q(0, u), 2, []int{1, 1}, time.Millisecond) // meets the 1h default

	var over, def ShapeReport
	for _, s := range a.Report().Shapes {
		if s.Shape == "*s" {
			over = s
		} else {
			def = s
		}
	}
	if over.Bad != 1 || over.Good != 0 {
		t.Errorf("override shape good=%d bad=%d, want 0/1", over.Good, over.Bad)
	}
	if def.Good != 1 || def.Bad != 0 {
		t.Errorf("default shape good=%d bad=%d, want 1/0", def.Good, def.Bad)
	}
}

func TestResetZeroesState(t *testing.T) {
	a := New("test-reset", SLO{})
	u := query.Unspecified
	done(a, q(u, 0), 2, []int{2, 0}, time.Millisecond)
	if rep := a.Report(); rep.Shapes[0].Violations != 1 {
		t.Fatalf("setup: %+v", rep.Shapes)
	}
	a.Reset()
	rep := a.Report()
	s := rep.Shapes[0]
	if s.Queries != 0 || s.Violations != 0 || s.MaxDeviation != 0 || s.WorstDevice != -1 || s.MaxBuckets != 0 {
		t.Errorf("after reset: %+v", s)
	}
}
