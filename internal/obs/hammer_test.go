package obs

import (
	"sync"
	"testing"
)

// TestTraceRetentionHammer retains always-keep traces (error/bound) from
// many goroutines while a flood of head/sample traffic churns the
// buffer. Fewer always-keep traces are offered than the buffer holds, so
// every successfully retained one must survive — the eviction policy may
// only displace head and sample trees — and the buffer must never exceed
// RetainedTraces. Run with -race in CI.
func TestTraceRetentionHammer(t *testing.T) {
	const (
		workers   = 8
		perWorker = 400
		akPer     = 4 // always-keep per worker: 32 total, half the buffer
	)
	tr := NewTracer(4096)

	var mu sync.Mutex
	kept := make(map[uint64]string) // always-keep traces Retain acknowledged
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := begin(tr, "query", 0, 0)
				sp.Event("scan")
				sp.End()
				tid := sp.Trace()
				switch {
				case i < akPer:
					reason := KeepError
					if i%2 == 0 {
						reason = KeepBound
					}
					if tr.Retain(tid, reason) {
						mu.Lock()
						kept[tid] = reason
						mu.Unlock()
					}
				case i%4 == 0:
					tr.Retain(tid, KeepSample)
				case i%4 == 1:
					tr.Retain(tid, KeepHead)
				}
				if i%50 == 0 {
					tr.Retained(10)
					tr.RetainedTrace(tid)
					if got := tr.Retained(RetainedTraces + 1); len(got) > RetainedTraces {
						t.Errorf("retained %d traces, capacity %d", len(got), RetainedTraces)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	all := tr.Retained(RetainedTraces * 2)
	if len(all) != RetainedTraces {
		t.Fatalf("retained %d traces after %d offers, want a full buffer of %d", len(all), workers*perWorker/2, RetainedTraces)
	}
	for tid, reason := range kept {
		rt, ok := tr.RetainedTrace(tid)
		if !ok {
			t.Errorf("always-keep trace %d (%s) evicted while head/sample trees existed", tid, reason)
			continue
		}
		if rt.Reason != reason {
			t.Errorf("trace %d: reason %q, want %q", tid, rt.Reason, reason)
		}
		if rt.Root.TraceID != tid {
			t.Errorf("trace %d: root tree has trace id %d", tid, rt.Root.TraceID)
		}
	}

	// Re-retaining a kept trace replaces its tree in place and never
	// downgrades an always-keep reason to a sampling one.
	for tid, reason := range kept {
		tr.Retain(tid, KeepSample)
		if rt, _ := tr.RetainedTrace(tid); rt.Reason != reason {
			t.Errorf("trace %d: reason %q after a sample re-retain, want %q kept", tid, rt.Reason, reason)
		}
		break
	}
	// A buffer of nothing but always-keep trees stays bounded: the oldest
	// goes.
	for i := 0; i < 2*RetainedTraces; i++ {
		sp := begin(tr, "churn", 0, 0)
		sp.End()
		tr.Retain(sp.Trace(), KeepError)
	}
	all = tr.Retained(RetainedTraces * 2)
	if len(all) != RetainedTraces {
		t.Errorf("after an always-keep flood: retained %d traces, want %d", len(all), RetainedTraces)
	}
	for _, rt := range all {
		if rt.Root.Name != "churn" {
			t.Errorf("trace %d (%s, %s) outlived %d newer always-keep trees", rt.TraceID, rt.Root.Name, rt.Reason, 2*RetainedTraces)
		}
	}
}

// TestExemplarHammer sets exemplars from many goroutines while others
// snapshot the histogram; run with -race in CI. SetExemplar writes in
// place, so it allocates nothing, and every snapshot copies each exemplar
// out whole: its value lies in its bucket and matches its trace ID.
func TestExemplarHammer(t *testing.T) {
	const workers, perWorker = 4, 2000
	h := newHistogram([]float64{1, 10, 100})
	if got := testing.AllocsPerRun(100, func() { h.SetExemplar(5, 5) }); got != 0 {
		t.Errorf("SetExemplar allocates %.0f objects, want 0", got)
	}
	valueOf := func(tid uint64) float64 { return float64(tid % 200) }
	check := func(s HistogramSnapshot) {
		for b, ex := range s.Exemplars {
			if ex == nil {
				continue
			}
			if h.bucketIndex(ex.Value) != b || ex.Value != valueOf(ex.TraceID) {
				t.Errorf("bucket %d holds a torn exemplar %+v", b, *ex)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tid := uint64(w*perWorker + i + 7)
				h.SetExemplar(valueOf(tid), tid)
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker/10; i++ {
				check(h.Snapshot())
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	check(s)
	for b, ex := range s.Exemplars {
		if ex == nil {
			t.Fatalf("bucket %d has no exemplar after %d", b, workers*perWorker)
		}
		ex.TraceID = 0 // a snapshot's copy: the histogram keeps its own
	}
	if again := h.Snapshot(); len(again.Exemplars) != len(s.Exemplars) || again.Exemplars[0] == nil || again.Exemplars[0].TraceID == 0 {
		t.Errorf("editing a snapshot's exemplar reached the histogram: %+v", again.Exemplars)
	}
}
