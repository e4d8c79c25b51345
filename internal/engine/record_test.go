package engine_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"fxdist/internal/audit"
	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/query"
	"fxdist/internal/telemetry"
)

// privateBundle is the reporting seam's test double: a fresh bundle the
// test can inspect afterwards, with the whole-query metrics of an
// m-device cluster, as a storage cluster builds its own.
func privateBundle(backend string, m int) *telemetry.Instruments {
	in := telemetry.New(backend, audit.SLO{})
	in.Metrics = telemetry.NewClusterMetrics(backend, m)
	return in
}

// TestOneRecordFeedsEverySink retrieves one bound-violating Modulo
// query (the §4 adversarial shape of TestAuditorFlagsModuloSparesFX)
// and checks that the shape's slowest-8 and the event ring hold the very
// same record, and that the audit row, the cost profile, the caller's
// Result and the retained trace all agree with it on shape, |R(q)|,
// bound, trace ID, stages and per-device buckets.
func TestOneRecordFeedsEverySink(t *testing.T) {
	f := mkhash.MustNew(mkhash.Schema{Fields: []string{"a", "b", "c"}, Depths: []int{1, 1, 1}})
	fs, err := decluster.NewFileSystem([]int{2, 2, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	mod := decluster.NewModulo(fs)
	im := query.NewInverseMapper(mod)
	devices := make([]engine.Device, fs.M)
	for dev := range devices {
		devices[dev] = allocDevice{im: im, dev: dev}
	}
	in := privateBundle("one-record", fs.M)
	tracer := obs.NewTracer(64)
	e, err := engine.New(planned(t, f, engine.Config{
		Alloc: mod, Devices: devices, Instr: in,
		Tracer: tracer, Span: "test.retrieve",
	}))
	if err != nil {
		t.Fatal(err)
	}
	v := "v"
	pm := mkhash.PartialMatch{nil, &v, nil}    // shape "*s*": unspecified {a,c}
	retrieves0 := in.Metrics.Retrieves.Value() // registry counters outlive a -count rerun
	res, err := e.Retrieve(engine.ContextWithCaller(context.Background(), "acme"), pm)
	if err != nil {
		t.Fatal(err)
	}

	flights := in.FlightReport().Shapes
	events := in.Events(8)
	if len(flights) != 1 || len(flights[0].Records) != 1 || len(events) != 1 {
		t.Fatalf("want one flight record and one event, got %+v / %+v", flights, events)
	}
	flight, event := flights[0].Records[0], events[0]
	rec := event.QueryRecord
	if flight.QueryRecord != rec {
		t.Fatal("the flight view and the event ring hold different records for one query")
	}
	if !flight.Start.Equal(rec.Start) || !event.Time.Equal(rec.Start) {
		t.Errorf("view timestamps disagree with the record: start %v time %v record %v", flight.Start, event.Time, rec.Start)
	}

	bound := audit.Bound(4, fs.M)
	if rec.Backend != "one-record" || rec.Shape != "*s*" || rec.Tenant != "acme" || rec.RQ != 4 || rec.Bound != bound {
		t.Errorf("record identity wrong: %+v", rec)
	}
	if !rec.BoundViolation || !reflect.DeepEqual(rec.Keep, []string{obs.KeepBound}) || rec.Failed || rec.Err != "" {
		t.Errorf("record verdicts wrong: violation=%v keep=%v failed=%v err=%q", rec.BoundViolation, rec.Keep, rec.Failed, rec.Err)
	}

	// The caller's Result.
	if res.TraceID == 0 || rec.TraceID != res.TraceID {
		t.Errorf("trace id: record %d, result %d", rec.TraceID, res.TraceID)
	}
	if !reflect.DeepEqual(rec.Stages, res.Stages) || len(res.Stages) != 5 {
		t.Errorf("stages: record %+v, result %+v", rec.Stages, res.Stages)
	}
	var top time.Duration
	for _, st := range rec.Stages[:4] {
		top += st.Wall
	}
	if top > rec.Elapsed || top < rec.Elapsed*8/10 {
		t.Errorf("top-level stages sum to %v of an elapsed %v", top, rec.Elapsed)
	}
	if len(rec.Devices) != fs.M {
		t.Fatalf("record details %d devices, want %d", len(rec.Devices), fs.M)
	}
	for dev, d := range rec.Devices {
		if d.Device != dev || d.Buckets != res.DeviceBuckets[dev] || d.Err != "" {
			t.Errorf("device %d detail %+v disagrees with result buckets %v", dev, d, res.DeviceBuckets)
		}
	}
	if rec.MaxDeviceBuckets != res.LargestResponseSize || rec.MaxDeviceBuckets <= bound {
		t.Errorf("max device buckets %d, result %d, bound %d", rec.MaxDeviceBuckets, res.LargestResponseSize, bound)
	}

	// The audit row.
	row := shapeReport(t, in, rec.Shape)
	if row.Queries != 1 || row.Violations != 1 || row.RQ != rec.RQ || row.Bound != rec.Bound || row.M != fs.M ||
		row.MaxBuckets != rec.MaxDeviceBuckets || row.MaxDeviation != rec.MaxDeviceBuckets-rec.Bound {
		t.Errorf("audit row %+v disagrees with record %+v", row, rec)
	}

	// The cost profile.
	costs := in.CostReport().Shapes
	if len(costs) != 1 || costs[0].Shape != rec.Shape || costs[0].Queries != 1 || costs[0].MeanT != rec.Elapsed {
		t.Errorf("cost profile %+v disagrees with record (elapsed %v)", costs, rec.Elapsed)
	}

	// Cluster metrics, and the one keep decision retaining the trace under
	// the record's leading reason, with its exemplar.
	if got := in.Metrics.Retrieves.Value() - retrieves0; got != 1 {
		t.Errorf("retrieves counter moved by %d, want 1", got)
	}
	kept, ok := tracer.RetainedTrace(res.TraceID)
	if !ok || kept.Reason != obs.KeepBound {
		t.Errorf("trace %d retained=%v reason=%q, want kept for %q", res.TraceID, ok, kept.Reason, obs.KeepBound)
	}
	linked := false
	for _, ex := range in.Metrics.Latency.Snapshot().Exemplars {
		linked = linked || (ex != nil && ex.TraceID == res.TraceID)
	}
	if !linked {
		t.Error("no latency-histogram exemplar points at the retained trace")
	}
}

// lateDevice ignores cancellation and answers after a fixed delay — a
// straggler that is still going to write its answer slot long after the
// waiter gave up. The delay is wall-clock on purpose: no happens-before
// edge orders that write after the report, so under -race any read of
// the per-device slices on the reporting path is flagged.
type lateDevice struct {
	delay time.Duration
	done  *sync.WaitGroup
}

func (d lateDevice) Scan(context.Context, query.Query, mkhash.PartialMatch) (engine.Answer, error) {
	defer d.done.Done()
	time.Sleep(d.delay)
	return engine.Answer{Buckets: 7}, errors.New("late and failed")
}

// TestAbandonedCallReportsNoDeviceDetail cancels a retrieval while
// every device is still scanning. The failure is an always-keep event
// and the first flight of its shape, so every view gets the record — but
// with no per-device detail, no device.scan time, no bucket counts and
// no placement mismatch, because the unsettled call's slices are never
// read.
func TestAbandonedCallReportsNoDeviceDetail(t *testing.T) {
	f := testSchema(t)
	var stragglers sync.WaitGroup
	devices := make([]engine.Device, 4)
	for dev := range devices {
		stragglers.Add(1)
		devices[dev] = lateDevice{delay: 50 * time.Millisecond, done: &stragglers}
	}
	in := privateBundle("abandoned", len(devices))
	e, err := engine.New(planned(t, f, engine.Config{Devices: devices, Instr: in}))
	if err != nil {
		t.Fatal(err)
	}
	errors0 := in.Metrics.Errors.Value()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res, err := e.Retrieve(ctx, anyQuery(t, f))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("retrieve error = %v, want deadline exceeded", err)
	}

	events := in.Events(8)
	flights := in.FlightReport().Shapes
	if len(events) != 1 || len(flights) != 1 || len(flights[0].Records) != 1 {
		t.Fatalf("want the failure in the ring and the flights, got %d events, %+v", len(events), flights)
	}
	rec := events[0].QueryRecord
	if flights[0].Records[0].QueryRecord != rec {
		t.Fatal("the flight view and the event ring hold different records")
	}
	if !rec.Failed || rec.Err == "" || !reflect.DeepEqual(rec.Keep, []string{obs.KeepError}) {
		t.Errorf("record verdicts wrong: %+v", rec)
	}
	if rec.Devices != nil || rec.MismatchedDevices != nil || rec.DeviceBuckets != nil {
		t.Errorf("abandoned call reported per-device detail: devices=%v mismatched=%v buckets=%v",
			rec.Devices, rec.MismatchedDevices, rec.DeviceBuckets)
	}
	if len(rec.Stages) != 5 || rec.Stages[4].Stage != obs.StageDeviceScan || rec.Stages[4].Wall != 0 {
		t.Errorf("abandoned call reported device scan time: %+v", rec.Stages)
	}
	if !reflect.DeepEqual(res.Stages, rec.Stages) {
		t.Errorf("result stages %+v differ from the record's %+v", res.Stages, rec.Stages)
	}
	row := shapeReport(t, in, rec.Shape)
	if row.Queries != 1 || row.Violations != 0 || row.MaxBuckets != 0 {
		t.Errorf("audit row for the abandoned call: %+v", row)
	}
	if got := in.Metrics.Errors.Value() - errors0; got != 1 {
		t.Errorf("errors counter moved by %d, want 1", got)
	}
	stragglers.Wait()
}
