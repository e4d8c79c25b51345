package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fxdist/internal/audit"
	"fxdist/internal/obs"
)

// finish takes one record through the bundle the way Executor.report
// does — Audit, Decide, Commit — and returns the verdict.
func finish(in *Instruments, rec *obs.QueryRecord) Decision {
	in.Audit(rec)
	dec := in.Decide(rec)
	in.Commit(rec, dec)
	return dec
}

// TestStoreViewsAndResets: one record shows up in all four views of its
// shape's cell, the cost reset zeroes its own section and no other,
// a shape whose slowest-8 is full does not starve another shape, and
// BurnRate is the audit row's number without the report.
func TestStoreViewsAndResets(t *testing.T) {
	in := New("views-test", audit.SLO{Target: time.Millisecond, Goal: 0.9})
	stages := []obs.StageSample{{Stage: obs.StagePlan, Wall: time.Microsecond}, {Stage: obs.StageFanout, Wall: 9 * time.Microsecond}}
	for i := 1; i <= obs.FlightSlots+2; i++ { // 10 queries; the last two are SLO misses
		finish(in, &obs.QueryRecord{Shape: "s*", Elapsed: time.Duration(i) * 125 * time.Microsecond,
			RQ: 4, Bound: 1, DeviceBuckets: []int{1, 1, 1, 1}, Stages: stages})
	}
	in.ObserveSamples("s*", []obs.StageSample{{Stage: obs.StageNetWait, Wall: time.Microsecond}})
	if dec := finish(in, &obs.QueryRecord{Shape: "**", Elapsed: time.Nanosecond, RQ: 16, Bound: 4, DeviceBuckets: []int{4, 4, 4, 4}}); !dec.Flight || !dec.Kept {
		t.Errorf("first query of a new shape decided %+v beside a full shape, want flight and head-kept", dec)
	}

	aud, cost, flight, stats := in.AuditReport(), in.CostReport(), in.FlightReport(), in.LogStats()
	if len(aud.Shapes) != 2 || aud.Shapes[0].Shape != "**" || aud.Shapes[1].Shape != "s*" {
		t.Fatalf("audit rows = %+v, want ** then s*", aud.Shapes)
	}
	row := aud.Shapes[1]
	if row.Queries != 10 || row.Good != 8 || row.Bad != 2 || row.Violations != 0 || row.BurnRate < 1.99 || row.BurnRate > 2.01 {
		t.Errorf("s* audit row = %+v, want 10 queries, 8 good, 2 bad, burn 2", row)
	}
	if got := in.BurnRate("s*"); got != row.BurnRate {
		t.Errorf("BurnRate(s*) = %g, the report says %g", got, row.BurnRate)
	}
	if got := in.BurnRate("never-served"); got != 0 || len(in.AuditReport().Shapes) != 2 {
		t.Errorf("BurnRate of an unserved shape = %g and must not create a cell", got)
	}
	if len(cost.Shapes) != 2 || cost.Shapes[1].Queries != 10 || len(cost.Shapes[1].Stages) != 3 {
		t.Errorf("cost rows = %+v, want s* with 10 queries over plan, fanout and the sampled net.wait", cost.Shapes)
	}
	if len(flight.Shapes) != 2 || len(flight.Shapes[1].Records) != obs.FlightSlots ||
		flight.Shapes[1].Records[0].Elapsed != 1250*time.Microsecond || flight.Shapes[1].Records[obs.FlightSlots-1].Elapsed != 375*time.Microsecond {
		t.Errorf("flight rows = %+v, want s*'s 8 slowest, 1.25ms down to 375µs", flight.Shapes)
	}
	// 8 head + 2 slow on s*, 1 head on **: all 11 kept.
	if stats.Seen != 11 || stats.Kept != 11 || len(in.Events(100)) != 11 {
		t.Errorf("stats = %+v with %d events, want 11 seen, kept and in the ring", stats, len(in.Events(100)))
	}

	in.ResetCosts()
	if got := in.CostReport(); len(got.Shapes) != 0 {
		t.Errorf("cost report after ResetCosts = %+v", got)
	}
	if len(in.FlightReport().Shapes) != 2 || in.AuditReport().Shapes[1].Queries != 10 {
		t.Error("ResetCosts reached beyond the cost section")
	}
	if st := in.LogStats(); st.Seen != 11 || len(in.Events(100)) != 11 {
		t.Errorf("the reset reached the event ring or its counters: %+v", st)
	}
	// The section fills again from the next query, the head does not replay.
	if dec := finish(in, &obs.QueryRecord{Shape: "s*", Elapsed: time.Microsecond, Stages: stages}); dec.Flight || dec.Kept {
		t.Errorf("11th s* query after the reset decided %+v, want no flight (slower ones hold the slots) and not kept (past the head, off the beat)", dec)
	}
	if got := in.CostReport().Shapes; len(got) != 1 || got[0].Shape != "s*" || got[0].Queries != 1 {
		t.Errorf("cost rows after one more query = %+v", got)
	}
}

// TestCellHammer drives every entry point of the store from many
// goroutines on a handful of shapes — the three reporting steps, the
// wire-stage samples, the cost reset, the SLO setters, BurnRate and all
// four views — and checks the bounds that must hold under any
// interleaving: slowest-8 sorted and bounded, seen = kept + dropped, the
// ring never past its capacity. Run with -race -count=10 in CI.
func TestCellHammer(t *testing.T) {
	const (
		workers   = 8
		perWorker = 600
		shapes    = 5
	)
	in := New("cell-hammer", audit.SLO{Target: 400 * time.Microsecond, Goal: 0.9})
	checkViews := func() {
		for _, sf := range in.FlightReport().Shapes {
			if len(sf.Records) > obs.FlightSlots {
				t.Errorf("%s: %d flights, more than %d slots", sf.Shape, len(sf.Records), obs.FlightSlots)
			}
			for i := 1; i < len(sf.Records); i++ {
				if sf.Records[i].Elapsed > sf.Records[i-1].Elapsed {
					t.Errorf("%s: flights not slowest-first at %d", sf.Shape, i)
				}
			}
		}
		if n := len(in.Events(2 * ringCapacity)); n > ringCapacity {
			t.Errorf("ring returned %d events, capacity %d", n, ringCapacity)
		}
		for _, sh := range in.LogStats().Shapes {
			if sh.Kept > sh.Seen {
				t.Errorf("%s: kept %d of %d seen", sh.Shape, sh.Kept, sh.Seen)
			}
		}
		in.AuditReport()
		in.CostReport()
	}
	feed, cancel := in.Subscribe()
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				shape := fmt.Sprintf("shape-%d", (w+i)%shapes)
				rec := &obs.QueryRecord{
					Shape: shape, Elapsed: time.Duration(w*perWorker+i+1) * time.Microsecond / 8,
					RQ: 4, Bound: 1, DeviceBuckets: []int{1, 1, 1, 1 + i%2}, BoundViolation: i%97 == 0, Failed: i%89 == 0,
					Stages: []obs.StageSample{{Stage: obs.StagePlan, Wall: time.Microsecond}},
				}
				finish(in, rec)
				in.ObserveSamples(shape, []obs.StageSample{{Stage: obs.StageNetWait, Wall: time.Microsecond}})
				in.BurnRate(shape)
				switch i % 100 {
				case 30:
					in.ResetCosts()
				case 70:
					in.SetSLO(audit.SLO{Target: time.Duration(300+i) * time.Microsecond, Goal: 0.9})
					in.SetShapeSLO(shape, audit.SLO{Target: time.Millisecond, Goal: 0.99})
				case 90:
					checkViews()
				}
			}
		}(w)
	}
	wg.Wait()
	checkViews()

	st := in.LogStats()
	if st.Seen != workers*perWorker {
		t.Errorf("seen %d queries, offered %d", st.Seen, workers*perWorker)
	}
	counters := map[string]uint64{}
	for _, p := range in.Registry.Snapshot() {
		if p.Kind == obs.KindCounter {
			counters[p.Name] += uint64(p.Value)
		}
	}
	seen, kept, dropped := counters["fxdist_events_seen_total"], counters["fxdist_events_kept_total"], counters["fxdist_events_dropped_total"]
	if seen != st.Seen || kept != st.Kept || seen != kept+dropped {
		t.Errorf("counters seen=%d kept=%d dropped=%d against stats %d/%d: want seen = kept + dropped, both agreeing", seen, kept, dropped, st.Seen, st.Kept)
	}
	if n := len(in.Events(2 * ringCapacity)); uint64(n) != min(st.Kept, ringCapacity) {
		t.Errorf("ring holds %d events of %d kept, capacity %d", n, st.Kept, ringCapacity)
	}
	if len(feed) == 0 {
		t.Error("subscriber saw none of the kept events")
	}
	// Keeping the K slowest is order-independent for distinct latencies:
	// on a fresh bundle, concurrent offers of globally unique latencies
	// must leave exactly the top 8 of each shape, however the commits
	// interleaved.
	in = New("cell-hammer", audit.SLO{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shape := fmt.Sprintf("shape-%d", w%3)
			for i := 1; i <= perWorker; i++ {
				finish(in, &obs.QueryRecord{Shape: shape, Elapsed: time.Duration(w*perWorker+i) * time.Hour})
			}
		}(w)
	}
	wg.Wait()
	for _, sf := range in.FlightReport().Shapes {
		var shape, top int // top: the highest worker on this shape
		fmt.Sscanf(sf.Shape, "shape-%d", &shape)
		for w := 0; w < workers; w++ {
			if w%3 == shape {
				top = w
			}
		}
		if len(sf.Records) != obs.FlightSlots {
			t.Fatalf("%s: retained %d flights, want %d", sf.Shape, len(sf.Records), obs.FlightSlots)
		}
		for i, r := range sf.Records { // slowest first
			if want := time.Duration((top+1)*perWorker-i) * time.Hour; r.Elapsed != want {
				t.Errorf("%s flight %d: elapsed %v, want %v (lost or duplicated insert)", sf.Shape, i, r.Elapsed, want)
			}
		}
	}
}
