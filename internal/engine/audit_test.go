package engine_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/query"
)

// allocDevice answers with the exact qualified-bucket count the inverse
// mapper assigns to its device — no records, just the load shape the
// auditor judges.
type allocDevice struct {
	im  *query.InverseMapper
	dev int
}

func (d allocDevice) Scan(_ context.Context, q query.Query, _ mkhash.PartialMatch) (engine.Answer, error) {
	return engine.Answer{Buckets: d.im.CountOnDevice(q, d.dev)}, nil
}

// auditExec builds an executor whose devices realise alloc's bucket
// placement, reporting into a private bundle in.
func auditExec(t *testing.T, f *mkhash.File, fs decluster.FileSystem, alloc decluster.GroupAllocator, in *obs.Instruments) *engine.Executor {
	t.Helper()
	im := query.NewInverseMapper(alloc)
	devices := make([]engine.Device, fs.M)
	for dev := range devices {
		devices[dev] = allocDevice{im: im, dev: dev}
	}
	e, err := engine.New(planned(t, f, engine.Config{Alloc: alloc, Devices: devices, Instr: in}))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestAuditorFlagsModuloSparesFX retrieves through real allocators on a
// 2×2×2 grid over M=4: FX on an unspecified-{a,b} shape is strict
// optimal (every device serves exactly one of the four qualified
// buckets), while Modulo on an unspecified-{a,c} shape — the paper's §4
// adversarial case, two small fields whose coordinate sums collide mod M
// — must overload one device past the bound ceil(4/4)=1. The auditor has
// to report exactly what the ground-truth load vectors say.
func TestAuditorFlagsModuloSparesFX(t *testing.T) {
	f := mkhash.MustNew(mkhash.Schema{Fields: []string{"a", "b", "c"}, Depths: []int{1, 1, 1}})
	fs, err := decluster.NewFileSystem([]int{2, 2, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := decluster.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	mod := decluster.NewModulo(fs)

	cval := "v"
	fxPM := mkhash.PartialMatch{nil, nil, &cval}  // shape "**s": unspecified {a,b}
	modPM := mkhash.PartialMatch{nil, &cval, nil} // shape "*s*": unspecified {a,c}

	fxAudit, modAudit := obs.NewInstruments(obs.NewRegistry(), "engine-test-fx", obs.SLO{}), obs.NewInstruments(obs.NewRegistry(), "engine-test-modulo", obs.SLO{})
	run := func(a *obs.Instruments, alloc decluster.GroupAllocator, pm mkhash.PartialMatch) query.Query {
		e := auditExec(t, f, fs, alloc, a)
		if _, err := e.Retrieve(context.Background(), pm); err != nil {
			t.Fatal(err)
		}
		q, err := f.BucketQuery(pm)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	fxQ := run(fxAudit, fx, fxPM)
	modQ := run(modAudit, mod, modPM)

	// Ground truth: the brute-force load vectors the auditor must agree with.
	bound := obs.Bound(4, fs.M)
	if got := query.LargestLoad(fx, fxQ); got != bound {
		t.Fatalf("premise: FX largest load %d, want bound %d", got, bound)
	}
	modWorst := query.LargestLoad(mod, modQ)
	if modWorst <= bound {
		t.Fatalf("premise: Modulo largest load %d not adversarial (bound %d)", modWorst, bound)
	}

	fxShape := shapeReport(t, fxAudit, fxQ.Shape())
	if fxShape.Violations != 0 || fxShape.MaxDeviation != 0 {
		t.Errorf("FX audited: %d violations, max deviation %d; want strict optimal", fxShape.Violations, fxShape.MaxDeviation)
	}
	if fxShape.Queries != 1 || fxShape.Bound != bound || fxShape.RQ != 4 {
		t.Errorf("FX shape row wrong: %+v", fxShape)
	}

	modShape := shapeReport(t, modAudit, modQ.Shape())
	if modShape.Violations != 1 {
		t.Errorf("Modulo violations = %d, want 1", modShape.Violations)
	}
	if want := modWorst - bound; modShape.MaxDeviation != want {
		t.Errorf("Modulo max deviation = %d, want %d (largest load %d - bound %d)",
			modShape.MaxDeviation, want, modWorst, bound)
	}
	// Deviation is bounded: no device can exceed |R(q)| total buckets.
	if modShape.MaxDeviation > modShape.RQ-bound {
		t.Errorf("deviation %d exceeds |R(q)|-bound = %d", modShape.MaxDeviation, modShape.RQ-bound)
	}
}

// TestAuditorCountsFailedRetrievals: a failed retrieval reaches the
// auditor with nil buckets — counted per shape, never a violation.
func TestAuditorCountsFailedRetrievals(t *testing.T) {
	f := testSchema(t)
	a := obs.NewInstruments(obs.NewRegistry(), "engine-test-fail", obs.SLO{})
	e, err := engine.New(planned(t, f, engine.Config{
		Devices: []engine.Device{fixedDevice{err: errors.New("boom")}},
		Instr:   a,
	}))
	if err != nil {
		t.Fatal(err)
	}
	pm := anyQuery(t, f)
	if _, err := e.Retrieve(context.Background(), pm); err == nil {
		t.Fatal("retrieval should fail")
	}
	q, err := f.BucketQuery(pm)
	if err != nil {
		t.Fatal(err)
	}
	s := shapeReport(t, a, q.Shape())
	if s.Queries != 1 || s.Violations != 0 {
		t.Errorf("failed retrieval audited as %+v, want 1 query / 0 violations", s)
	}
}

func shapeReport(t *testing.T, in *obs.Instruments, shape string) obs.ShapeAudit {
	t.Helper()
	for _, s := range in.AuditReport().Shapes {
		if s.Shape == shape {
			return s
		}
	}
	t.Fatalf("audit has no shape %q", shape)
	return obs.ShapeAudit{}
}

// TestSLOThroughExecutor wires a latency objective through the executor:
// a slow device makes every query of its shape bad.
func TestSLOThroughExecutor(t *testing.T) {
	a := obs.NewInstruments(obs.NewRegistry(), "engine-test-slo", obs.SLO{Target: time.Nanosecond, Goal: 0.99})
	f := testSchema(t)
	e, err := engine.New(planned(t, f, engine.Config{
		Devices: []engine.Device{fixedDevice{ans: engine.Answer{Buckets: 1}}},
		Instr:   a,
	}))
	if err != nil {
		t.Fatal(err)
	}
	pm := anyQuery(t, f)
	if _, err := e.Retrieve(context.Background(), pm); err != nil {
		t.Fatal(err)
	}
	q, err := f.BucketQuery(pm)
	if err != nil {
		t.Fatal(err)
	}
	s := shapeReport(t, a, q.Shape())
	if s.Bad != 1 || s.Good != 0 {
		t.Errorf("1ns objective: good=%d bad=%d, want 0/1", s.Good, s.Bad)
	}
	if s.BurnRate <= 1 {
		t.Errorf("burn rate = %g, want > 1 (budget exhausted)", s.BurnRate)
	}
}
