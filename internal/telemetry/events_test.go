package telemetry

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"fxdist/internal/audit"
	"fxdist/internal/obs"
)

// TestKeepDecision is the table of the event log's keep rules and their
// precedence: error/partial, SLO-slow and bound-violation are
// always-keep (they stack, in that order, and set Always — which is
// what makes the engine retain the query's trace tree); head sampling
// and the 1-in-N sample only apply to queries no always-keep rule
// claimed, and never set Always.
func TestKeepDecision(t *testing.T) {
	const slo = 10 * time.Millisecond
	newLog := func() *EventLog {
		return NewEventLog("keep-test", Config{
			HeadPerShape: 2, SampleEvery: 4,
			SlowFor: func(shape string) time.Duration {
				if shape == "no-slo" {
					return 0
				}
				return slo
			},
		})
	}
	// Each case offers warmup unremarkable queries of the shape first
	// (moving it past the head), then the record under test.
	cases := []struct {
		name   string
		warmup int
		rec    obs.QueryRecord
		want   Decision
		keep   []string
		slow   bool
	}{
		{name: "first of a shape is head-kept", rec: obs.QueryRecord{Shape: "s*"},
			want: Decision{Kept: true}, keep: []string{KeepHead}},
		{name: "past the head, off the sample beat: dropped", warmup: 2, rec: obs.QueryRecord{Shape: "s*"}},
		{name: "every 4th of a shape is sampled", warmup: 3, rec: obs.QueryRecord{Shape: "s*"},
			want: Decision{Kept: true}, keep: []string{obs.KeepSample}},
		{name: "failed query is always kept", warmup: 2, rec: obs.QueryRecord{Shape: "s*", Failed: true},
			want: Decision{Kept: true, Always: true}, keep: []string{obs.KeepError}},
		{name: "partial result counts as failed", warmup: 2, rec: obs.QueryRecord{Shape: "s*", Failed: true, Partial: true, Coverage: 0.5},
			want: Decision{Kept: true, Always: true}, keep: []string{obs.KeepError}},
		{name: "over the SLO target is always kept and marked slow", warmup: 2, rec: obs.QueryRecord{Shape: "s*", Elapsed: slo + 1},
			want: Decision{Kept: true, Always: true}, keep: []string{obs.KeepSlow}, slow: true},
		{name: "exactly on the target is not slow", warmup: 2, rec: obs.QueryRecord{Shape: "s*", Elapsed: slo}},
		{name: "a shape without an SLO is never slow", warmup: 2, rec: obs.QueryRecord{Shape: "no-slo", Elapsed: time.Hour}},
		{name: "bound violation is always kept", warmup: 2, rec: obs.QueryRecord{Shape: "s*", BoundViolation: true},
			want: Decision{Kept: true, Always: true}, keep: []string{obs.KeepBound}},
		{name: "always-keep reasons stack in error, slow, bound order", warmup: 2,
			rec:  obs.QueryRecord{Shape: "s*", Failed: true, Elapsed: time.Second, BoundViolation: true},
			want: Decision{Kept: true, Always: true}, keep: []string{obs.KeepError, obs.KeepSlow, obs.KeepBound}, slow: true},
		{name: "an always-keep rule outranks the head", rec: obs.QueryRecord{Shape: "s*", BoundViolation: true},
			want: Decision{Kept: true, Always: true}, keep: []string{obs.KeepBound}},
		{name: "an always-keep rule outranks the sample beat", warmup: 3, rec: obs.QueryRecord{Shape: "s*", Failed: true},
			want: Decision{Kept: true, Always: true}, keep: []string{obs.KeepError}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newLog()
			for i := 0; i < tc.warmup; i++ {
				l.Decide(&obs.QueryRecord{Shape: tc.rec.Shape})
			}
			rec := tc.rec
			if got := l.Decide(&rec); got != tc.want {
				t.Errorf("Decide = %+v, want %+v", got, tc.want)
			}
			if !reflect.DeepEqual(rec.Keep, tc.keep) {
				t.Errorf("Keep = %v, want %v", rec.Keep, tc.keep)
			}
			if rec.Slow != tc.slow || (rec.SLOTarget != 0) != tc.slow {
				t.Errorf("Slow = %v, SLOTarget = %v; want slow %v", rec.Slow, rec.SLOTarget, tc.slow)
			}
			st := l.Stats()
			wantKept := uint64(min(tc.warmup, 2)) // the warmup's head
			if tc.warmup >= 4 {
				wantKept++
			}
			if tc.want.Kept {
				wantKept++
			}
			if st.Seen != uint64(tc.warmup+1) || st.Kept != wantKept {
				t.Errorf("stats seen=%d kept=%d, want %d/%d", st.Seen, st.Kept, tc.warmup+1, wantKept)
			}
		})
	}
	// A nil log keeps nothing and panics on nothing.
	var nilLog *EventLog
	if got := nilLog.Decide(&obs.QueryRecord{Failed: true}); got != (Decision{}) {
		t.Errorf("nil log decided %+v", got)
	}
	nilLog.Observe(&obs.QueryRecord{})
}

// TestEventLogRingAndFeed covers what happens to a kept record: Recent
// returns newest first through ring wrap-around, Configure resizes
// without losing the newest, a subscriber sees kept records live, and
// Reset empties ring and counters but keeps the policy.
func TestEventLogRingAndFeed(t *testing.T) {
	l := NewEventLog("ring-test", Config{Capacity: 3, HeadPerShape: 1 << 20})
	feed, cancel := l.Subscribe()
	defer cancel()
	for i := 0; i < 5; i++ {
		rec := &obs.QueryRecord{Shape: "s", Tenant: fmt.Sprint(i), Start: time.Unix(int64(i), 0)}
		if !l.Decide(rec).Kept {
			t.Fatalf("record %d not head-kept", i)
		}
		l.Observe(rec)
	}
	tenants := func(evs []Event) (out []string) {
		for _, ev := range evs {
			out = append(out, ev.Tenant)
		}
		return out
	}
	if got := tenants(l.Recent(10)); !reflect.DeepEqual(got, []string{"4", "3", "2"}) {
		t.Errorf("Recent after wrap = %v, want [4 3 2]", got)
	}
	if ev := l.Recent(1)[0]; !ev.Time.Equal(time.Unix(4, 0)) || ev.Keep[0] != KeepHead {
		t.Errorf("newest event = time %v keep %v", ev.Time, ev.Keep)
	}
	if ev := <-feed; ev.Tenant != "0" {
		t.Errorf("subscriber's first event is %q, want 0", ev.Tenant)
	}
	l.Configure(Config{Capacity: 2, HeadPerShape: 1 << 20})
	if got := tenants(l.Recent(10)); !reflect.DeepEqual(got, []string{"4", "3"}) {
		t.Errorf("Recent after shrinking to 2 = %v, want [4 3]", got)
	}
	l.Reset()
	if st := l.Stats(); st.Seen != 0 || st.Kept != 0 || len(l.Recent(10)) != 0 || st.Capacity != 2 {
		t.Errorf("after Reset: %+v, %d events", st, len(l.Recent(10)))
	}
}

// TestInstrumentRegistry: For is idempotent per backend, All is sorted,
// a per-cluster WithMetrics copy shares every sink with the registry's
// bundle, a backend's event log takes its slow threshold from the same
// backend's auditor, and SetSLO("") reaches existing and future
// backends alike.
func TestInstrumentRegistry(t *testing.T) {
	a, b := For("reg-test-a"), For("reg-test-b")
	if a != For("reg-test-a") || a == b {
		t.Fatal("For is not one bundle per backend")
	}
	var names []string
	for _, in := range All() {
		names = append(names, in.Backend)
	}
	if !sortedStrings(names) {
		t.Errorf("All() not sorted by backend: %v", names)
	}
	m := &Metrics{}
	c := a.WithMetrics(m)
	if c.Metrics != m || a.Metrics != nil || c.Audit != a.Audit || c.Profile != a.Profile || c.Flight != a.Flight || c.Events != a.Events {
		t.Error("WithMetrics must copy the bundle, set only Metrics, and share every other sink")
	}

	SetSLO("reg-test-a", audit.SLO{Target: time.Millisecond, Goal: 0.9})
	rec := &obs.QueryRecord{Shape: "s", Elapsed: time.Second}
	if a.Events.Decide(rec); !rec.Slow || rec.SLOTarget != time.Millisecond {
		t.Errorf("event log ignores its auditor's SLO: slow=%v target=%v", rec.Slow, rec.SLOTarget)
	}
	if got := b.Audit.ShapeSLO("s"); got != (audit.SLO{}) {
		t.Errorf("SetSLO on one backend leaked to another: %+v", got)
	}

	def := audit.SLO{Target: time.Minute, Goal: 0.5}
	SetSLO("", def)
	defer SetSLO("", audit.SLO{})
	if got := b.Audit.ShapeSLO("s"); got != def {
		t.Errorf("default SLO did not reach an existing backend: %+v", got)
	}
	if got := For("reg-test-later").Audit.ShapeSLO("s"); got != def {
		t.Errorf("default SLO did not reach a future backend: %+v", got)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}

// TestMetricsSink drives the first sink of the record: latency always,
// the error counter on failure, and on success the per-device bucket
// counters behind the live imbalance gauge.
func TestMetricsSink(t *testing.T) {
	m := NewClusterMetrics("metrics-sink-test", 2)
	m.Started()
	m.Observe(&obs.QueryRecord{Elapsed: time.Millisecond, DeviceBuckets: []int{3, 1}})
	if got := m.Imbalance.Value(); got != 1.5 {
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
