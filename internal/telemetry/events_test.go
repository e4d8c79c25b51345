package telemetry

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"fxdist/internal/audit"
	"fxdist/internal/obs"
)

// TestKeepDecision is the table of the store's keep rules and their
// precedence, driven on the shipped policy (the first 8 of a shape, then
// every 16th): error/partial, SLO-slow and bound-violation are
// always-keep (they stack, in that order, and lead rec.Keep — which is
// the reason the engine retains the query's trace tree under); the head
// and the 1-in-16 sample only apply to queries no always-keep rule
// claimed.
func TestKeepDecision(t *testing.T) {
	const slo = 10 * time.Millisecond
	newBundle := func() *Instruments {
		in := New("keep-test", audit.SLO{Target: slo, Goal: 0.99})
		in.SetShapeSLO("no-slo", audit.SLO{})
		return in
	}
	// Each case offers warmup unremarkable queries of the shape first
	// (moving it past the head, or onto the sample beat), then the record
	// under test.
	const pastHead, onBeat = headPerShape, sampleEvery - 1
	cases := []struct {
		name   string
		warmup int
		rec    obs.QueryRecord
		kept   bool
		keep   []string
		slow   bool
	}{
		{name: "first of a shape is head-kept", rec: obs.QueryRecord{Shape: "s*"},
			kept: true, keep: []string{obs.KeepHead}},
		{name: "last of the head is head-kept", warmup: pastHead - 1, rec: obs.QueryRecord{Shape: "s*"},
			kept: true, keep: []string{obs.KeepHead}},
		{name: "past the head, off the sample beat: dropped", warmup: pastHead, rec: obs.QueryRecord{Shape: "s*"}},
		{name: "every 16th of a shape is sampled", warmup: onBeat, rec: obs.QueryRecord{Shape: "s*"},
			kept: true, keep: []string{obs.KeepSample}},
		{name: "failed query is always kept", warmup: pastHead, rec: obs.QueryRecord{Shape: "s*", Failed: true},
			kept: true, keep: []string{obs.KeepError}},
		{name: "partial result counts as failed", warmup: pastHead, rec: obs.QueryRecord{Shape: "s*", Failed: true, Partial: true, Coverage: 0.5},
			kept: true, keep: []string{obs.KeepError}},
		{name: "over the SLO target is always kept and marked slow", warmup: pastHead, rec: obs.QueryRecord{Shape: "s*", Elapsed: slo + 1},
			kept: true, keep: []string{obs.KeepSlow}, slow: true},
		{name: "exactly on the target is not slow", warmup: pastHead, rec: obs.QueryRecord{Shape: "s*", Elapsed: slo}},
		{name: "a shape without an SLO is never slow", warmup: pastHead, rec: obs.QueryRecord{Shape: "no-slo", Elapsed: time.Hour}},
		{name: "bound violation is always kept", warmup: pastHead, rec: obs.QueryRecord{Shape: "s*", BoundViolation: true},
			kept: true, keep: []string{obs.KeepBound}},
		{name: "always-keep reasons stack in error, slow, bound order", warmup: pastHead,
			rec:  obs.QueryRecord{Shape: "s*", Failed: true, Elapsed: time.Second, BoundViolation: true},
			kept: true, keep: []string{obs.KeepError, obs.KeepSlow, obs.KeepBound}, slow: true},
		{name: "an always-keep rule outranks the head", rec: obs.QueryRecord{Shape: "s*", BoundViolation: true},
			kept: true, keep: []string{obs.KeepBound}},
		{name: "an always-keep rule outranks the sample beat", warmup: onBeat, rec: obs.QueryRecord{Shape: "s*", Failed: true},
			kept: true, keep: []string{obs.KeepError}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := newBundle()
			for i := 0; i < tc.warmup; i++ {
				in.Decide(&obs.QueryRecord{Shape: tc.rec.Shape})
			}
			rec := tc.rec
			if got := in.Decide(&rec); got.Kept != tc.kept {
				t.Errorf("Decide = %+v, want kept %v", got, tc.kept)
			}
			if !reflect.DeepEqual(rec.Keep, tc.keep) {
				t.Errorf("Keep = %v, want %v", rec.Keep, tc.keep)
			}
			if rec.Slow != tc.slow || (rec.SLOTarget != 0) != tc.slow {
				t.Errorf("Slow = %v, SLOTarget = %v; want slow %v", rec.Slow, rec.SLOTarget, tc.slow)
			}
			st := in.LogStats()
			wantKept := uint64(min(tc.warmup, headPerShape)) // the warmup's head
			if tc.kept {
				wantKept++
			}
			if st.Seen != uint64(tc.warmup+1) || st.Kept != wantKept {
				t.Errorf("stats seen=%d kept=%d, want %d/%d", st.Seen, st.Kept, tc.warmup+1, wantKept)
			}
			if len(st.Shapes) != 1 || st.Shapes[0] != (ShapeStats{Shape: tc.rec.Shape, Seen: st.Seen, Kept: st.Kept}) {
				t.Errorf("per-shape stats = %+v, want the one shape carrying the totals", st.Shapes)
			}
			if st.Capacity != 1024 || st.HeadPerShape != 8 || st.SampleEvery != 16 {
				t.Errorf("stats report policy %d/%d/%d, want the shipped 1024/8/16", st.Capacity, st.HeadPerShape, st.SampleEvery)
			}
		})
	}
}

// TestEventLogRingAndFeed covers what happens to a kept record: Events
// returns newest first through ring wrap-around and never more than the
// ring holds, and a subscriber sees kept records live.
func TestEventLogRingAndFeed(t *testing.T) {
	in := New("ring-test", audit.SLO{})
	feed, cancel := in.Subscribe()
	const total = ringCapacity + 5
	for i := 0; i < total; i++ {
		// Bound-violating, so every record is kept whatever the beat.
		rec := &obs.QueryRecord{Shape: "s", Tenant: fmt.Sprint(i), Start: time.Unix(int64(i), 0), BoundViolation: true}
		dec := in.Decide(rec)
		if !dec.Kept {
			t.Fatalf("record %d not kept", i)
		}
		in.Commit(rec, dec)
	}
	tenants := func(evs []Event) (out []string) {
		for _, ev := range evs {
			out = append(out, ev.Tenant)
		}
		return out
	}
	want := []string{fmt.Sprint(total - 1), fmt.Sprint(total - 2), fmt.Sprint(total - 3)}
	if got := tenants(in.Events(3)); !reflect.DeepEqual(got, want) {
		t.Errorf("Events(3) after wrap = %v, want %v", got, want)
	}
	all := in.Events(2 * ringCapacity)
	if len(all) != ringCapacity {
		t.Fatalf("ring holds %d events, want exactly %d", len(all), ringCapacity)
	}
	if oldest := all[len(all)-1]; oldest.Tenant != "5" {
		t.Errorf("oldest surviving event is %q, want 5 (0-4 overwritten)", oldest.Tenant)
	}
	if ev := all[0]; !ev.Time.Equal(time.Unix(total-1, 0)) || ev.Keep[0] != obs.KeepBound {
		t.Errorf("newest event = time %v keep %v", ev.Time, ev.Keep)
	}
	if len(in.Events(0)) != 0 {
		t.Error("Events(0) returned events")
	}
	if ev := <-feed; ev.Tenant != "0" {
		t.Errorf("subscriber's first event is %q, want 0", ev.Tenant)
	}
	// A cancelled subscriber is fed nothing more (and stalls nobody).
	cancel()
	for len(feed) > 0 {
		<-feed
	}
	rec := &obs.QueryRecord{Shape: "s", Failed: true}
	in.Commit(rec, in.Decide(rec))
	if _, open := <-feed; open {
		t.Error("cancelled subscriber still fed, or its feed left open")
	}
}

// TestInstrumentSLOs: two bundles of one backend label share nothing,
// the keep decision takes its slow threshold from the cell's objective,
// a new default reaches existing and future cells alike, a per-shape
// override outlives a change of default whether or not the shape has
// been served yet, and AdoptSLOs hands a fresh bundle both.
func TestInstrumentSLOs(t *testing.T) {
	a, b := New("slo-test", audit.SLO{}), New("slo-test", audit.SLO{})
	if a.store == b.store {
		t.Fatal("two bundles of one label share a store")
	}
	// target is the objective in force for a shape, as the keep decision
	// sees it.
	target := func(in *Instruments, shape string) time.Duration {
		rec := &obs.QueryRecord{Shape: shape, Elapsed: 24 * time.Hour}
		in.Decide(rec)
		return rec.SLOTarget
	}
	a.SetSLO(audit.SLO{Target: time.Millisecond, Goal: 0.9})
	if got := target(a, "s"); got != time.Millisecond {
		t.Errorf("keep decision ignores its bundle's SLO: target=%v", got)
	}
	if got := target(b, "s"); got != 0 {
		t.Errorf("SetSLO on one bundle leaked to another of the same label: %v", got)
	}

	def := audit.SLO{Target: time.Minute, Goal: 0.5}
	a.SetShapeSLO("s", audit.SLO{Target: time.Second, Goal: 0.9})  // served already
	a.SetShapeSLO("ss", audit.SLO{Target: time.Second, Goal: 0.9}) // not yet
	a.SetSLO(def)
	if s, ss, other := target(a, "s"), target(a, "ss"), target(a, "sss"); s != time.Second || ss != time.Second || other != def.Target {
		t.Errorf("after a new default: overridden shapes %v / %v (want 1s each), the rest %v (want %v)", s, ss, other, def.Target)
	}
	if got := a.AuditReport().Shapes; len(got) != 3 || got[0].Shape != "s" || got[0].SLOTarget != time.Second {
		t.Errorf("audit rows = %+v, want s/ss/sss with s under its 1s override", got)
	}

	next := New("slo-test", audit.SLO{})
	next.AdoptSLOs(a)
	if s, ss, other := target(next, "s"), target(next, "ss"), target(next, "x"); s != time.Second || ss != time.Second || other != def.Target {
		t.Errorf("adopted objectives: overrides %v / %v (want 1s each), default %v (want %v)", s, ss, other, def.Target)
	}
	if got := next.AuditReport().Shapes; len(got) != 3 || got[2].Shape != "x" {
		t.Errorf("AdoptSLOs copied cells, not just objectives: %+v, want s, ss and x only", got)
	}
}

// TestMetricsSink drives the first thing the Audit step feeds: latency
// always, the error counter on failure, and on success the per-device
// bucket counters behind the live imbalance gauge.
func TestMetricsSink(t *testing.T) {
	m := NewClusterMetrics(obs.NewRegistry(), "metrics-sink-test", 2)
	if got := m.Imbalance(); got != 0 {
		t.Errorf("imbalance before any bucket = %g, want 0", got)
	}
	m.Started()
	m.Observe(&obs.QueryRecord{Elapsed: time.Millisecond, DeviceBuckets: []int{3, 1}})
	if got := m.Imbalance(); got != 1.5 {
		t.Errorf("imbalance after {3,1} = %g, want 1.5 (max 3 / mean 2)", got)
	}
	m.Started()
	m.Observe(&obs.QueryRecord{Elapsed: time.Millisecond, Failed: true, DeviceBuckets: []int{9, 9}})
	m.Started()
	m.PlanFailed(time.Millisecond)
	if r, e := m.Retrieves.Value(), m.Errors.Value(); r != 3 || e != 2 {
		t.Errorf("retrieves=%d errors=%d, want 3/2", r, e)
	}
	if d0, d1 := m.DeviceBuckets[0].Value(), m.DeviceBuckets[1].Value(); d0 != 3 || d1 != 1 {
		t.Errorf("device buckets = %d,%d; a failed retrieval must not be folded in", d0, d1)
	}
	if n := m.Latency.Snapshot().Count; n != 3 {
		t.Errorf("latency observed %d times, want 3", n)
	}
	// The coordinator's form: no per-device view.
	flat := &Metrics{Retrieves: m.Retrieves, Errors: m.Errors, Latency: m.Latency}
	flat.Observe(&obs.QueryRecord{DeviceBuckets: []int{1, 1, 1, 1}})
	var none *Metrics
	none.Started()
	none.Observe(&obs.QueryRecord{})
	none.Exemplar(&obs.QueryRecord{})
}
