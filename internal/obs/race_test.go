package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentPrimitives hammers every obs primitive from many
// goroutines; run with -race in CI. Final values are asserted so the
// test also catches lost updates (e.g. a non-atomic float add).
func TestConcurrentPrimitives(t *testing.T) {
	const workers, perWorker = 16, 1000
	r := NewRegistry()
	tr := NewTracer(32)
	lg := newLogger(io.Discard, slog.LevelDebug)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Shared instruments looked up concurrently through the registry.
			c := r.Counter("race_total", "")
			g := r.Gauge("race_gauge", "")
			h := r.Histogram("race_seconds", "", []float64{1, 10, 100})
			own := r.Counter("race_per_worker_total", "", L("w", strconv.Itoa(w)))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
				own.Inc()
				if i%100 == 0 {
					sp := begin(tr, "race", 0, 0)
					sp.SetRequestID(uint64(i))
					sp.Event("tick")
					sp.End()
					lg.Info("tick", "worker", w, "at", i)
				}
			}
			// Concurrent renders and snapshots against live writers.
			if i := w % 3; i == 0 {
				r.WritePrometheus(io.Discard) //nolint:errcheck
			} else if i == 1 {
				r.writeProm(io.Discard, true) //nolint:errcheck
			} else {
				r.Snapshot()
				tr.Recent(10)
			}
		}(w)
	}
	wg.Wait()

	if got := r.Counter("race_total", "").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d (lost updates)", got, workers*perWorker)
	}
	if got := r.Gauge("race_gauge", "").Value(); got != workers*perWorker {
		t.Errorf("gauge = %g, want %d (lost updates)", got, workers*perWorker)
	}
	h := r.Histogram("race_seconds", "", nil)
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	// Sum of i%200 over perWorker iterations, times workers.
	var wantSum float64
	for i := 0; i < perWorker; i++ {
		wantSum += float64(i % 200)
	}
	wantSum *= workers
	if got := h.Sum(); got != wantSum {
		t.Errorf("histogram sum = %g, want %g (lost float updates)", got, wantSum)
	}
	for w := 0; w < workers; w++ {
		if got := r.Counter("race_per_worker_total", "", L("w", strconv.Itoa(w))).Value(); got != perWorker {
			t.Errorf("worker %d counter = %d, want %d", w, got, perWorker)
		}
	}
}

// TestConcurrentParentedSpans hammers the trace ring with parented span
// writers while readers stitch trees; run with -race in CI. Each worker
// builds a root with children (as the netdist coordinator and device
// servers do concurrently) and the final window must still stitch into
// consistent trees.
func TestConcurrentParentedSpans(t *testing.T) {
	const workers, traces, children = 8, 50, 4
	tr := NewTracer(workers * traces * (children + 1)) // big enough: no eviction
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < traces; i++ {
				root := begin(tr, "root", 0, 0)
				var cwg sync.WaitGroup
				for c := 0; c < children; c++ {
					cwg.Add(1)
					go func(c int) {
						defer cwg.Done()
						sp := begin(tr, "child", root.Trace(), root.SpanID())
						sp.SetRequestID(uint64(c))
						sp.Event("work")
						sp.End()
					}(c)
				}
				if i%10 == 0 {
					tr.Trees(64) // concurrent reader against live writers
					tr.Recent(64)
				}
				cwg.Wait()
				root.End()
			}
		}()
	}
	wg.Wait()

	trees := tr.Trees(workers * traces * (children + 1))
	roots := 0
	for _, tree := range trees {
		if tree.Name != "root" {
			t.Fatalf("orphaned child promoted to root: %+v (ring should not have evicted)", tree.SpanSnapshot)
		}
		roots++
		if len(tree.Children) != children {
			t.Errorf("root %d has %d children, want %d", tree.ID, len(tree.Children), children)
		}
		for _, c := range tree.Children {
			if c.TraceID != tree.ID || c.Parent != tree.ID {
				t.Errorf("child %d trace=%d parent=%d, want both %d", c.ID, c.TraceID, c.Parent, tree.ID)
			}
		}
	}
	if roots != workers*traces {
		t.Errorf("stitched %d roots, want %d", roots, workers*traces)
	}
}

// TestReusedSpanReadsAsItsOwnRequest runs a device server's loop — one
// span begun, answered and ended again for every request — while readers
// take Recent, Trees and Retain. Each reply names its span's ID, so a
// snapshot whose events belong to another ID, or one span ID in two
// slots, read a span after its owner had begun it again; run with -race
// in CI.
func TestReusedSpanReadsAsItsOwnRequest(t *testing.T) {
	tr := NewTracer(16)
	var last atomic.Uint64 // the newest request's trace ID
	done := make(chan struct{})
	go func() {
		defer close(done)
		var span Span
		for i := 0; i < 3000; i++ {
			tr.Begin(&span, "netdist.serve", 0, 0)
			span.SetRequestID(span.SpanID())
			span.Reply(DeviceReply{Device: 1, Request: span.SpanID(), Buckets: i % 7, Records: i})
			last.Store(span.Trace())
			span.End()
		}
	}()
	check := func(snaps ...SpanSnapshot) {
		seen := make(map[uint64]bool, len(snaps))
		for _, s := range snaps {
			if seen[s.ID] {
				t.Errorf("span %d read from two slots", s.ID)
			}
			seen[s.ID] = true
			if s.Duration < 0 {
				t.Errorf("span %d reads a negative duration %v", s.ID, s.Duration)
			}
			want := fmt.Sprintf("device 1 req %d: ", s.ID)
			if s.RequestID != 0 && s.RequestID != s.ID || len(s.Events) > 1 ||
				len(s.Events) == 1 && !strings.HasPrefix(s.Events[0].Msg, want) {
				t.Errorf("span %d reads request %d, events %+v", s.ID, s.RequestID, s.Events)
			}
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				switch r {
				case 0:
					check(tr.Recent(16)...)
				case 1:
					for _, tree := range tr.Trees(16) {
						check(tree.SpanSnapshot)
					}
				case 2:
					if tid := last.Load(); tr.Retain(tid, KeepSample) {
						rt, _ := tr.RetainedTrace(tid)
						check(rt.Root.SpanSnapshot)
					}
				}
			}
		}()
	}
	wg.Wait()
}
