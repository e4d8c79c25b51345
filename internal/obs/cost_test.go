package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestCostProfilerAggregates(t *testing.T) {
	var p shapeCosts
	if !p.empty() {
		t.Fatal("zero shapeCosts is not empty")
	}
	for i := 0; i < 4; i++ {
		p.observe(&QueryRecord{Shape: "ss**", Elapsed: 100 * time.Microsecond, Stages: []StageSample{
			{Stage: StagePlan, Wall: 10 * time.Microsecond},
			{Stage: StageFanout, Wall: 80 * time.Microsecond, Bytes: 4000},
			{Stage: StageMerge, Wall: 5 * time.Microsecond},
			{Stage: StageAudit, Wall: 5 * time.Microsecond},
			{Stage: StageDeviceScan, Wall: 300 * time.Microsecond},
		}})
	}
	p.add([]StageSample{{Stage: StageNetWait, Wall: 50 * time.Microsecond, Bytes: 900}})

	s := p.report("ss**")
	if s.Shape != "ss**" || s.Queries != 4 || s.MeanT != 100*time.Microsecond {
		t.Fatalf("shape row = %+v", s)
	}
	// plan+fanout+merge+audit = 100µs = total → coverage 1.0 exactly.
	if s.StageCoverage < 0.999 || s.StageCoverage > 1.001 {
		t.Errorf("coverage = %g, want 1.0", s.StageCoverage)
	}
	// Top stages render first, in execution order; auxiliaries after.
	var order []string
	for _, st := range s.Stages {
		order = append(order, st.Stage)
	}
	want := []string{StagePlan, StageFanout, StageMerge, StageAudit, StageDeviceScan, StageNetWait}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("stage order = %v, want %v", order, want)
	}
	fanout := s.Stages[1]
	if fanout.Count != 4 || fanout.MeanWall != 80*time.Microsecond ||
		fanout.MeanBytes != 4000 {
		t.Errorf("fanout agg = %+v", fanout)
	}
	if fanout.WallFrac < 0.79 || fanout.WallFrac > 0.81 {
		t.Errorf("fanout wall frac = %g, want 0.8", fanout.WallFrac)
	}
	// Auxiliary stages carry no wall fraction and don't inflate coverage.
	if scan := s.Stages[4]; scan.WallFrac != 0 {
		t.Errorf("device.scan has wall frac %g", scan.WallFrac)
	}
	// Add counts samples, not queries.
	if wait := s.Stages[5]; wait.Count != 1 || wait.MeanBytes != 900 {
		t.Errorf("net.wait agg = %+v", wait)
	}
	// Samples alone (a round trip whose query has not finished) are not
	// empty, and report without dividing by zero queries.
	var aux shapeCosts
	aux.add([]StageSample{{Stage: StageNetWait, Wall: time.Microsecond}})
	if row := aux.report("s"); aux.empty() || row.Queries != 0 || row.MeanT != 0 || len(row.Stages) != 1 {
		t.Errorf("samples-only costs: empty=%v row=%+v", aux.empty(), row)
	}
}

// TestFlightRecorderKeepsSlowest: of more offers than slots, exactly
// the FlightSlots slowest survive, reported slowest first.
func TestFlightRecorderKeepsSlowest(t *testing.T) {
	var f slowest
	for _, ms := range []int{5, 1, 9, 3, 12, 7, 2, 8, 11, 4, 10, 6} {
		f.offer(&QueryRecord{Backend: "test", Shape: "s*", Elapsed: time.Duration(ms) * time.Millisecond, Start: time.Unix(int64(ms), 0)})
	}
	rep := f.report("s*")
	if rep.Shape != "s*" || len(rep.Records) != FlightSlots {
		t.Fatalf("report = %+v", rep)
	}
	for i, r := range rep.Records {
		want := time.Duration(12-i) * time.Millisecond
		if r.Elapsed != want || r.Backend != "test" || !r.Start.Equal(time.Unix(int64(12-i), 0)) {
			t.Errorf("record %d = elapsed %v backend %q start %v, want the %v query", i, r.Elapsed, r.Backend, r.Start, want)
		}
	}
}

// TestFullFlightRecorderEvictsInPlace: once a shape's slots are full,
// an admitted offer shifts the slice in place. It allocates nothing, the
// slice keeps its FlightSlots of room, and the evicted record is no longer
// held by it. The quietest of three windows of 1 000 admissions is
// checked: the runtime's own mallocs (a GC cycle, a background goroutine)
// land in a window now and then and only ever add.
func TestFullFlightRecorderEvictsInPlace(t *testing.T) {
	var f slowest
	first := &QueryRecord{Elapsed: 1}
	f.offer(first)
	for i := 2; i <= FlightSlots; i++ {
		f.offer(&QueryRecord{Elapsed: time.Duration(i)})
	}
	const window = 1000
	offers := make([]QueryRecord, 3*window)
	for i := range offers {
		offers[i].Elapsed = time.Duration(FlightSlots + 1 + i)
	}
	least := uint64(math.MaxUint64)
	for w := 0; w < 3; w++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := w * window; i < (w+1)*window; i++ {
			f.offer(&offers[i])
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != 0 {
		t.Errorf("1000 admissions to a full shape made %d allocations at the least, want 0", least)
	}
	if len(f) != FlightSlots || cap(f) != FlightSlots {
		t.Errorf("len %d cap %d, want both %d", len(f), cap(f), FlightSlots)
	}
	for i, r := range f { // with len == cap, no slot outside f holds a record
		if want := time.Duration(len(offers) + 1 + i); r.QueryRecord == first || r.Elapsed != want {
			t.Errorf("slot %d holds elapsed %v, want %v", i, r.Elapsed, want)
		}
	}
}

// TestFlightRecorderAdmits: a shape admits everything until its slots
// are full, then only what beats the fastest retained record.
func TestFlightRecorderAdmits(t *testing.T) {
	var f slowest
	if !f.admits(time.Nanosecond) {
		t.Fatal("unseen shape must admit everything")
	}
	for i := 1; i <= FlightSlots; i++ {
		if !f.admits(time.Nanosecond) {
			t.Fatalf("%d of %d slots used: must still admit", i-1, FlightSlots)
		}
		f.offer(&QueryRecord{Shape: "s", Elapsed: time.Duration(10*i) * time.Millisecond})
	}
	// Full: the floor is the fastest retained record (10ms).
	if f.admits(10 * time.Millisecond) {
		t.Error("admitted a query at the floor")
	}
	if !f.admits(15 * time.Millisecond) {
		t.Error("rejected a query above the floor")
	}
	// An offer below the floor is a no-op even if forced past Admits.
	f.offer(&QueryRecord{Shape: "s", Elapsed: time.Millisecond})
	if got := f.report("s").Records; len(got) != FlightSlots || got[FlightSlots-1].Elapsed != 10*time.Millisecond {
		t.Errorf("below-floor Offer changed the slice: %+v", got)
	}
	// One above it displaces the floor and raises it.
	f.offer(&QueryRecord{Shape: "s", Elapsed: 15 * time.Millisecond})
	if got := f.report("s").Records; len(got) != FlightSlots || got[FlightSlots-1].Elapsed != 15*time.Millisecond || f.admits(15*time.Millisecond) {
		t.Errorf("above-floor Offer: fastest retained %v, want 15ms as the new floor", got[len(got)-1].Elapsed)
	}
}

func TestDebugEndpointFormats(t *testing.T) {
	h := DebugEndpoint(
		func() (any, error) { return map[string]int{"n": 1}, nil },
		func(w io.Writer, doc any) { fmt.Fprintf(w, "n is %d\n", doc.(map[string]int)["n"]) },
	)
	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}

	rec := get("/debug/x")
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json; charset=utf-8" {
		t.Fatalf("default: code=%d content-type=%q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var doc map[string]int
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc["n"] != 1 {
		t.Fatalf("default body %q: %v", rec.Body.String(), err)
	}
	if rec2 := get("/debug/x?format=json"); rec2.Body.String() != rec.Body.String() {
		t.Error("?format=json differs from default")
	}

	rec = get("/debug/x?format=text")
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "text/plain; charset=utf-8" ||
		rec.Body.String() != "n is 1\n" {
		t.Fatalf("text: code=%d content-type=%q body=%q", rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}

	if rec = get("/debug/x?format=xml"); rec.Code != 400 {
		t.Errorf("unknown format: code=%d, want 400", rec.Code)
	}

	textless := DebugEndpoint(func() (any, error) { return 1, nil }, nil)
	rec = httptest.NewRecorder()
	textless.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/x?format=text", nil))
	if rec.Code != 400 {
		t.Errorf("text on textless endpoint: code=%d, want 400", rec.Code)
	}
}

func TestDebugEndpointErrorsAreNon200(t *testing.T) {
	failing := DebugEndpoint(func() (any, error) { return nil, errors.New("boom") }, nil)
	rec := httptest.NewRecorder()
	failing.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/x", nil))
	if rec.Code != 500 || !strings.Contains(rec.Body.String(), "boom") {
		t.Fatalf("doc error: code=%d body=%q, want 500", rec.Code, rec.Body.String())
	}

	// A document JSON can't marshal must yield 500, not a truncated 200.
	unmarshalable := DebugEndpoint(func() (any, error) { return map[string]any{"f": func() {}}, nil }, nil)
	rec = httptest.NewRecorder()
	unmarshalable.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/x", nil))
	if rec.Code != 500 {
		t.Fatalf("marshal error: code=%d, want 500", rec.Code)
	}
}
