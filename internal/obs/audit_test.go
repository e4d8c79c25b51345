package obs

import (
	"testing"
	"time"

	"fxdist/internal/query"
)

func q(spec ...int) query.Query { return query.New(spec) }

// shapeUnderTest is one shape's audit section, outside any cell.
type shapeUnderTest struct {
	shape string
	shapeAudit
}

func newShape(shape string) *shapeUnderTest {
	return &shapeUnderTest{shape, newShapeAudit()}
}

func (st *shapeUnderTest) Report(slo SLO) ShapeAudit { return st.report(st.shape, slo) }

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

// done feeds one shape's audit a finished retrieval the way the store
// does: a query record carrying |R(q)|, the bound, the merged bucket
// counts (nil for a failed retrieval) and — standing in for the plan —
// the busiest device and the verdict those counts give, under the
// objective in force.
func done(st *shapeUnderTest, slo SLO, rq int, buckets []int, elapsed time.Duration) float64 {
	rec := &QueryRecord{
		Shape: st.shape, RQ: rq, Bound: Bound(rq, len(buckets)),
		DeviceBuckets: buckets, Failed: buckets == nil, Elapsed: elapsed,
	}
	for dev, b := range buckets {
		if b > rec.MaxDeviceBuckets {
			rec.MaxDeviceBuckets, rec.WorstDevice = b, dev
		}
	}
	rec.BoundViolation = rec.MaxDeviceBuckets > rec.Bound
	st.observe(rec, slo)
	return st.burnRate(slo)
}

func TestAuditorAggregatesPerShape(t *testing.T) {
	u := query.Unspecified
	starSt := newShape(q(u, 0, u).Shape())
	specSt := newShape(q(0, 0, u).Shape())

	// Two retrievals of a violating shape, bound ceil(4/4)=1: its busiest
	// device holds 3, which device depends on the specified values.
	done(starSt, SLO{}, 4, []int{1, 0, 3, 0}, time.Millisecond)
	done(starSt, SLO{}, 4, []int{0, 3, 1, 0}, time.Millisecond)
	// Failed retrieval: counted, not judged.
	done(starSt, SLO{}, 4, nil, time.Millisecond)
	// A different, strict optimal shape stays separate.
	done(specSt, SLO{}, 2, []int{1, 1, 0, 0}, time.Millisecond)
	// One of its retrievals had device 3 answer off its plan count.
	specSt.observe(&QueryRecord{Shape: specSt.shape, RQ: 2, Bound: 1, MaxDeviceBuckets: 1,
		DeviceBuckets: []int{1, 1, 0, 1}, MismatchedDevices: []int{3}}, SLO{})

	star, spec := starSt.Report(SLO{}), specSt.Report(SLO{})
	if star.Shape != "*s*" || spec.Shape != "ss*" {
		t.Fatalf("rows are for shapes %q and %q", star.Shape, spec.Shape)
	}
	if star.Queries != 3 || star.Violations != 2 || star.Mismatches != 0 {
		t.Errorf("*s*: queries=%d violations=%d mismatches=%d, want 3/2/0", star.Queries, star.Violations, star.Mismatches)
	}
	if star.MaxDeviation != 2 || star.WorstDevice != 1 {
		t.Errorf("*s*: maxdev=%d worst=%d, want 2/device 1", star.MaxDeviation, star.WorstDevice)
	}
	if want := 4.0 / 3.0; star.MeanDeviation != want {
		t.Errorf("*s*: meandev=%g, want %g", star.MeanDeviation, want)
	}
	if star.Bound != 1 || star.RQ != 4 || star.M != 4 || star.MaxBuckets != 3 {
		t.Errorf("*s*: bound=%d rq=%d m=%d maxbuckets=%d", star.Bound, star.RQ, star.M, star.MaxBuckets)
	}
	if spec.Queries != 2 || spec.Violations != 0 || spec.MaxDeviation != 0 || spec.WorstDevice != -1 {
		t.Errorf("ss*: %+v, want two strict optimal queries", spec)
	}
	if spec.Mismatches != 1 || spec.MismatchDevice != 3 || star.MismatchDevice != -1 {
		t.Errorf("ss*: mismatches=%d on device %d, want 1 on device 3", spec.Mismatches, spec.MismatchDevice)
	}
	if star.SLOTarget != 0 || star.Good+star.Bad != 0 || star.BurnRate != 0 {
		t.Errorf("*s*: SLO state without an objective: %+v", star)
	}
}

func TestSLOCountsAndBurnRate(t *testing.T) {
	slo := SLO{Target: 10 * time.Millisecond, Goal: 0.9}
	st := newShape("*s")
	for i := 0; i < 8; i++ {
		done(st, slo, 2, []int{1, 1}, time.Millisecond) // good
	}
	done(st, slo, 2, []int{1, 1}, time.Second)      // slow: bad
	burn := done(st, slo, 2, nil, time.Millisecond) // failed: bad

	s := st.Report(slo)
	if s.Good != 8 || s.Bad != 2 {
		t.Errorf("good=%d bad=%d, want 8/2", s.Good, s.Bad)
	}
	// Window bad fraction 2/10 over error budget 0.1 → burn rate 2.
	if s.BurnRate < 1.99 || s.BurnRate > 2.01 {
		t.Errorf("burn rate = %g, want 2", s.BurnRate)
	}
	if burn != s.BurnRate || st.burnRate(slo) != burn {
		t.Errorf("observe gave burn %g, BurnRate %g, report %g: want one number", burn, st.burnRate(slo), s.BurnRate)
	}
	if s.SLOTarget != 10*time.Millisecond || s.SLOGoal != 0.9 {
		t.Errorf("slo echoed wrong: %+v", s)
	}
	// A goal of 1.0 leaves no budget: any miss burns without bound.
	if got := st.burnRate(SLO{Target: time.Millisecond, Goal: 1}); got < 1e6 {
		t.Errorf("burn rate under a 100%% goal = %g, want huge", got)
	}
}

// TestShapeSLOOverride: the objective is the caller's per query — the
// store passes each shape its own — so the same latency is a miss under
// one and a hit under another, and the row echoes what it was given.
func TestShapeSLOOverride(t *testing.T) {
	def := SLO{Target: time.Hour, Goal: 0.99}
	override := SLO{Target: time.Nanosecond, Goal: 0.5}
	overSt, defSt := newShape("*s"), newShape("s*")
	done(overSt, override, 2, []int{1, 1}, time.Millisecond) // misses the 1ns override
	done(defSt, def, 2, []int{1, 1}, time.Millisecond)       // meets the 1h default

	over, dflt := overSt.Report(override), defSt.Report(def)
	if over.Bad != 1 || over.Good != 0 || over.SLOTarget != time.Nanosecond {
		t.Errorf("override shape good=%d bad=%d target=%v, want 0/1 under 1ns", over.Good, over.Bad, over.SLOTarget)
	}
	if dflt.Good != 1 || dflt.Bad != 0 || dflt.SLOTarget != time.Hour {
		t.Errorf("default shape good=%d bad=%d target=%v, want 1/0 under 1h", dflt.Good, dflt.Bad, dflt.SLOTarget)
	}
}
