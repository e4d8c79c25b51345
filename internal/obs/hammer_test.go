package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// Hammer tests for the two bounded evidence buffers the telemetry plane
// leans on: the slow-query flight recorder and the tail-sampling trace
// retention ring. Run with -race in CI; beyond data races they assert
// the buffers' core invariants under contention — per-shape slot counts
// never exceeded, no always-keep trace lost while sample entries exist
// to evict, and memory bounded by the configured capacities.

// TestFlightRecorderHammer offers globally-unique latencies from many
// goroutines while readers snapshot and pre-check concurrently. Keeping
// the K slowest is order-independent for distinct keys, so the final
// retained set must be exactly the top K per shape no matter how the
// writes interleaved.
func TestFlightRecorderHammer(t *testing.T) {
	const (
		workers   = 8
		perWorker = 500
		slots     = 8
		shapes    = 3
	)
	f := NewFlightRecorder("hammer", slots)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shape := fmt.Sprintf("shape-%d", w%shapes)
			for i := 0; i < perWorker; i++ {
				// Unique per (worker, iteration): the top-K set is deterministic.
				elapsed := time.Duration(w*perWorker + i + 1)
				if f.Admits(shape, elapsed) {
					f.Observe(&QueryRecord{Shape: shape, Elapsed: elapsed})
				}
				if i%64 == 0 {
					f.Report()
					f.Admits(shape, time.Duration(i))
				}
			}
		}(w)
	}
	wg.Wait()

	// Expected top-K per shape: workers w with w%shapes == s each
	// contribute latencies (w*perWorker+1 .. (w+1)*perWorker), so the K
	// slowest come off the top of the highest such worker's range.
	rep := f.Report()
	if len(rep.Shapes) != shapes {
		t.Fatalf("got %d shapes, want %d", len(rep.Shapes), shapes)
	}
	for _, sf := range rep.Shapes {
		var s int
		fmt.Sscanf(sf.Shape, "shape-%d", &s)
		top := 0 // highest worker index with w%shapes == s
		for w := 0; w < workers; w++ {
			if w%shapes == s {
				top = w
			}
		}
		if len(sf.Records) != slots {
			t.Fatalf("%s: retained %d records, want %d", sf.Shape, len(sf.Records), slots)
		}
		for i, r := range sf.Records { // slowest first
			want := time.Duration((top+1)*perWorker - i)
			if r.Elapsed != want {
				t.Errorf("%s record %d: elapsed %d, want %d (lost or duplicated insert)", sf.Shape, i, r.Elapsed, want)
			}
		}
		// The floor hint must now reject anything at or below the fastest
		// retained record and admit anything above it.
		floor := sf.Records[len(sf.Records)-1].Elapsed
		if f.Admits(sf.Shape, floor) {
			t.Errorf("%s: Admits(%d) = true at the floor", sf.Shape, floor)
		}
		if !f.Admits(sf.Shape, floor+1) {
			t.Errorf("%s: Admits(%d) = false above the floor", sf.Shape, floor+1)
		}
	}

	// Reset racing against writers must still end empty once all writers
	// finish (Reset is last).
	var wg2 sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg2.Add(1)
		go func(w int) {
			defer wg2.Done()
			for i := 0; i < 100; i++ {
				f.Observe(&QueryRecord{Shape: "reset-race", Elapsed: time.Duration(i + 1)})
				if i%10 == 0 {
					f.Reset()
				}
			}
		}(w)
	}
	wg2.Wait()
	f.Reset()
	if rep := f.Report(); len(rep.Shapes) != 0 {
		t.Errorf("after Reset: %d shapes retained, want 0", len(rep.Shapes))
	}
}

// TestTraceRetentionHammer retains always-keep traces (error/bound) from
// many goroutines while a flood of sampled traffic churns the buffer.
// Fewer always-keep traces are offered than the buffer holds, so every
// successfully retained one must survive — the eviction policy may only
// displace uniform samples — and the buffer must never exceed capacity.
func TestTraceRetentionHammer(t *testing.T) {
	const (
		workers   = 8
		perWorker = 400
		capacity  = 128
		akPer     = 8 // always-keep per worker: 64 total, half the buffer
	)
	tr := NewTracer(4096)
	tr.SetRetention(capacity, 4)

	var mu sync.Mutex
	kept := make(map[uint64]string) // always-keep traces Retain acknowledged
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := tr.Start("query")
				sp.Event("scan")
				sp.End()
				tid := sp.Trace()
				if i < akPer {
					reason := KeepError
					if i%2 == 0 {
						reason = KeepBound
					}
					if tr.Retain(tid, reason) {
						mu.Lock()
						kept[tid] = reason
						mu.Unlock()
					}
				} else {
					tr.MaybeSample(tid)
				}
				if i%50 == 0 {
					tr.Retained(10)
					tr.RetainedTrace(tid)
					if got := tr.Retained(capacity + 1); len(got) > capacity {
						t.Errorf("retained %d traces, capacity %d", len(got), capacity)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	all := tr.Retained(capacity * 2)
	if len(all) > capacity {
		t.Fatalf("retained %d traces, capacity %d", len(all), capacity)
	}
	for tid, reason := range kept {
		rt, ok := tr.RetainedTrace(tid)
		if !ok {
			t.Errorf("always-keep trace %d (%s) evicted while samples existed", tid, reason)
			continue
		}
		if rt.Reason != reason {
			t.Errorf("trace %d: reason %q, want %q", tid, rt.Reason, reason)
		}
		if rt.Root.TraceID != tid {
			t.Errorf("trace %d: root tree has trace id %d", tid, rt.Root.TraceID)
		}
	}

	// Shrinking retention under concurrent writers keeps the bound.
	var wg3 sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg3.Add(1)
		go func() {
			defer wg3.Done()
			for i := 0; i < 100; i++ {
				sp := tr.Start("churn")
				sp.End()
				tr.Retain(sp.Trace(), KeepError)
			}
		}()
	}
	wg3.Add(1)
	go func() {
		defer wg3.Done()
		for c := capacity; c >= 8; c /= 2 {
			tr.SetRetention(c, 4)
		}
	}()
	wg3.Wait()
	if got := tr.Retained(capacity * 2); len(got) > 8 {
		t.Errorf("after shrink to 8: retained %d traces", len(got))
	}
}
