package obs

import (
	"encoding/json"
	"fmt"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// raceEnabled reports whether the test binary was built with -race,
// where allocation counts stop being exact.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// begin starts a fresh span on tr, as the tests' owner.
func begin(tr *Tracer, name string, traceID, parent uint64) *Span {
	s := new(Span)
	tr.Begin(s, name, traceID, parent)
	return s
}

func TestTracerRecentOrderAndEvents(t *testing.T) {
	tr := NewTracer(8)
	s1 := begin(tr, "first", 0, 0)
	s1.SetRequestID(11)
	s1.Event("hello")
	s1.End()
	s2 := begin(tr, "second", 0, 0)
	s2.Event("a")
	s2.Event("b")
	s2.End()

	got := tr.Recent(10)
	if len(got) != 2 {
		t.Fatalf("got %d spans, want 2", len(got))
	}
	if got[0].Name != "second" || got[1].Name != "first" {
		t.Errorf("order = %s, %s; want most recent first", got[0].Name, got[1].Name)
	}
	if got[1].RequestID != 11 {
		t.Errorf("request id = %d, want 11", got[1].RequestID)
	}
	if len(got[0].Events) != 2 || got[0].Events[0].Msg != "a" {
		t.Errorf("events = %+v", got[0].Events)
	}
	if !got[0].Done || got[0].Duration <= 0 {
		t.Errorf("span not finalized: %+v", got[0])
	}
}

// TestReplyEventsRenderTheFormattedText: the device-request success
// events are kept as operands and rendered when the span is snapshotted;
// the text — and so the "msg" of /debug/traces and of a flight's events —
// is byte for byte what fmt.Sprintf wrote into the span at commit dabf288
// (Server.handle, Coordinator.ask), whether the event sits inline in the
// span or spilled past it.
func TestReplyEventsRenderTheFormattedText(t *testing.T) {
	tr := NewTracer(4)
	s := begin(tr, "netdist.retrieve", 0, 0)
	var want []string
	for dev := 0; dev < 5; dev++ {
		took := time.Duration(dev+1) * 1500 * time.Microsecond
		s.Reply(DeviceReply{Device: dev, Addr: "127.0.0.1:7000", Request: uint64(300 + dev), Buckets: 2 * dev, Records: 40, Took: took})
		want = append(want, fmt.Sprintf("device %d (%s) req %d: %d buckets, %d records in %v",
			dev, "127.0.0.1:7000", 300+dev, 2*dev, 40, took))
	}
	s.Event("failover: re-asking ring successor 3 for device 2")
	want = append(want, "failover: re-asking ring successor 3 for device 2")
	s.Reply(DeviceReply{Device: 1, Request: 9, Buckets: 3, Records: 40})
	want = append(want, fmt.Sprintf("device %d req %d: %d buckets, %d records", 1, 9, 3, 40))
	s.End()

	snap := s.Snapshot()
	if len(snap.Events) != len(want) {
		t.Fatalf("%d events, want %d", len(snap.Events), len(want))
	}
	for i, ev := range snap.Events {
		if ev.Msg != want[i] {
			t.Errorf("event %d: %q, want %q", i, ev.Msg, want[i])
		}
		if i > 0 && ev.At < snap.Events[i-1].At {
			t.Errorf("event %d recorded before event %d", i, i-1)
		}
	}
	if want[0] != "device 0 (127.0.0.1:7000) req 300: 0 buckets, 40 records in 1.5ms" ||
		want[6] != "device 1 req 9: 3 buckets, 40 records" {
		t.Fatalf("the reference formats moved: %q, %q", want[0], want[6])
	}
	js, err := json.Marshal(tr.Recent(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range want {
		if !strings.Contains(string(js), `"msg":"`+msg+`"`) {
			t.Errorf("marshalled span lacks msg %q: %s", msg, js)
		}
	}
}

// TestSpilledRepliesReuseTheirBuffers: a coordinator-style span whose
// replies spill past inline, ended and begun again, allocates nothing once
// the ring has wrapped — Begin keeps its spill buffer, the slot's copy
// comes from the slot it reclaims.
func TestSpilledRepliesReuseTheirBuffers(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not exact under -race")
	}
	tr := NewTracer(16)
	s := new(Span)
	query := func() {
		tr.Begin(s, "netdist.retrieve", 0, 0)
		for dev := 0; dev < 8; dev++ {
			s.Reply(DeviceReply{Device: dev, Addr: "addr", Request: 1, Buckets: 4, Records: 12})
		}
		s.End()
	}
	for i := 0; i < 16; i++ {
		query()
	}
	if allocs := testing.AllocsPerRun(100, query); allocs != 0 {
		t.Errorf("a reused 8-reply span costs %.1f allocations, want 0", allocs)
	}
	if got := tr.Recent(1); len(got) != 1 || len(got[0].Events) != 8 {
		t.Fatalf("the newest span reads %+v, want 8 reply events", got)
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		begin(tr, "s", 0, 0).End()
	}
	got := tr.Recent(100)
	if len(got) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(got))
	}
	// IDs are 1..10; the ring keeps the last 4, most recent first.
	for i, want := range []uint64{10, 9, 8, 7} {
		if got[i].ID != want {
			t.Errorf("span %d id = %d, want %d", i, got[i].ID, want)
		}
	}
}

func TestTracerInFlightSpanVisible(t *testing.T) {
	tr := NewTracer(4)
	s := begin(tr, "open", 0, 0)
	time.Sleep(time.Millisecond)
	got := tr.Recent(1)
	if len(got) != 1 || got[0].Done {
		t.Fatalf("in-flight span not visible: %+v", got)
	}
	if got[0].Duration <= 0 {
		t.Error("in-flight duration not running")
	}
	s.End()
}

func TestNilTracerAndSpanNoOp(t *testing.T) {
	var tr *Tracer
	if s := begin(tr, "x", 0, 0); s.SpanID() != 0 { // must not panic
		t.Errorf("a nil tracer began span %d", s.SpanID())
	}
	if tr.Recent(5) != nil {
		t.Error("nil tracer returned spans")
	}
	if tr.Trees(5) != nil {
		t.Error("nil tracer returned trees")
	}
	// An executor without a tracer holds a nil span and calls all of these.
	var s *Span
	s.SetRequestID(1)
	s.Event("y")
	s.Reply(DeviceReply{Device: 1, Request: 2})
	s.End()
	if snap := s.Snapshot(); snap.ID != 0 || snap.Events != nil {
		t.Errorf("nil span snapshot = %+v, want zero", snap)
	}
	if s.SpanID() != 0 || s.Trace() != 0 {
		t.Error("nil span reported nonzero ids")
	}
}

func TestStartChildParenting(t *testing.T) {
	tr := NewTracer(8)
	root := begin(tr, "root", 0, 0)
	if root.Trace() != root.SpanID() || root.parent != 0 {
		t.Fatalf("root trace=%d parent=%d span=%d; want trace==span, parent 0",
			root.Trace(), root.parent, root.SpanID())
	}
	child := begin(tr, "child", root.Trace(), root.SpanID())
	if child.Trace() != root.Trace() || child.parent != root.SpanID() {
		t.Errorf("child trace=%d parent=%d; want trace %d parent %d",
			child.Trace(), child.parent, root.Trace(), root.SpanID())
	}
	// traceID 0 forces a new root even with a nonzero parent hint.
	fresh := begin(tr, "fresh", 0, 999)
	if fresh.Trace() != fresh.SpanID() || fresh.parent != 0 {
		t.Errorf("zero traceID did not start a new root: trace=%d parent=%d span=%d",
			fresh.Trace(), fresh.parent, fresh.SpanID())
	}
	child.End()
	root.End()
	fresh.End()
}

func TestTreesStitchParentChild(t *testing.T) {
	tr := NewTracer(16)
	root := begin(tr, "coordinator", 0, 0)
	c1 := begin(tr, "serve-0", root.Trace(), root.SpanID())
	c1.End()
	grand := begin(tr, "scan", root.Trace(), c1.SpanID())
	grand.End()
	c2 := begin(tr, "serve-1", root.Trace(), root.SpanID())
	c2.End()
	root.End()
	other := begin(tr, "loner", 0, 0)
	other.End()

	trees := tr.Trees(16)
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want 2: %+v", len(trees), trees)
	}
	// Most recent root first.
	if trees[0].Name != "loner" || len(trees[0].Children) != 0 {
		t.Errorf("trees[0] = %+v, want childless loner", trees[0])
	}
	coord := trees[1]
	if coord.Name != "coordinator" || len(coord.Children) != 2 {
		t.Fatalf("coordinator tree = %+v, want 2 children", coord)
	}
	// Children sorted by start time.
	if coord.Children[0].Name != "serve-0" || coord.Children[1].Name != "serve-1" {
		t.Errorf("children = %s, %s", coord.Children[0].Name, coord.Children[1].Name)
	}
	if len(coord.Children[0].Children) != 1 || coord.Children[0].Children[0].Name != "scan" {
		t.Errorf("grandchild missing: %+v", coord.Children[0])
	}
	for _, c := range coord.Children {
		if c.TraceID != coord.ID {
			t.Errorf("child %s trace %d, want %d", c.Name, c.TraceID, coord.ID)
		}
	}
}

// TestTreesForeignParentIDCollision reproduces the cross-process trap:
// every process's span ids would count from 1, so a server's first
// local span can share an id with the remote coordinator parent it (or
// a sibling) references. Such spans must become roots — never parent
// themselves, never adopt a same-id span from a different trace.
func TestTreesForeignParentIDCollision(t *testing.T) {
	tr := NewTracer(8)
	// Local span id 1 whose wire parent is also id 1 (the remote
	// coordinator's root): self-id parent, must be promoted.
	self := begin(tr, "serve-a", 1, 1)
	self.End()
	// Local span id 2 referencing remote trace 7, parent id 1: span 1
	// exists locally but belongs to trace 1, not 7 — no adoption.
	foreign := begin(tr, "serve-b", 7, 1)
	foreign.End()
	trees := tr.Trees(8)
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want 2 promoted roots: %+v", len(trees), trees)
	}
	for _, tree := range trees {
		if len(tree.Children) != 0 {
			t.Errorf("%s adopted children across traces: %+v", tree.Name, tree.Children)
		}
	}
}

// TestDefaultTracerRandomEpoch: the process tracer's span ids start at
// a random epoch so two processes' ids (and trace ids) don't collide.
func TestDefaultTracerRandomEpoch(t *testing.T) {
	sp := begin(DefaultTracer(), "epoch-probe", 0, 0)
	sp.End()
	if sp.SpanID() < 1<<32 {
		t.Errorf("default tracer span id %d looks sequential, want random epoch", sp.SpanID())
	}
}

func TestTreesOrphanPromotedToRoot(t *testing.T) {
	tr := NewTracer(2) // tiny ring: the root gets evicted
	root := begin(tr, "root", 0, 0)
	a := begin(tr, "a", root.Trace(), root.SpanID())
	b := begin(tr, "b", root.Trace(), root.SpanID())
	a.End()
	b.End()
	root.End()
	trees := tr.Trees(4) // ring holds only a and b; root evicted
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want 2 promoted orphans: %+v", len(trees), trees)
	}
	for _, tree := range trees {
		if tree.Parent == 0 {
			t.Errorf("orphan %s lost its parent id", tree.Name)
		}
		if len(tree.Children) != 0 {
			t.Errorf("orphan %s has children", tree.Name)
		}
	}
}

// TestRetainCostIsTheTraceNotTheRing is the allocation guard on the
// retention path: Retain copies its own trace's span values — not the
// ring — into the buffers of the entry it replaces, and leaves stitching
// and text to the readers. Once the retained buffer is full, keeping a
// 9-span trace allocates nothing, out of a full 256-span ring as out of a
// full 4096-span one (the whole-ring snapshot it once replaced cost 285
// allocations, 50 KB; the per-trace snapshot after it about 30, 6 KB).
func TestRetainCostIsTheTraceNotTheRing(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not exact under -race")
	}
	query := func(tr *Tracer) uint64 { // a coordinator span and 8 servers
		root := begin(tr, "netdist.retrieve", 0, 0)
		for dev := 0; dev < 8; dev++ {
			sp := begin(tr, "netdist.serve", root.Trace(), root.SpanID())
			sp.Reply(DeviceReply{Device: dev, Request: 1, Buckets: 4, Records: 12})
			sp.End()
			root.Reply(DeviceReply{Device: dev, Addr: "addr", Request: 1, Buckets: 4, Records: 12, Took: time.Millisecond})
		}
		root.End()
		return root.Trace()
	}
	measure := func(ringSize int) float64 {
		tr := NewTracer(ringSize)
		for i := 0; i < RetainedTraces; i++ { // fill the retained buffer
			tr.Retain(query(tr), KeepSample)
		}
		for i := 0; i < ringSize; i++ { // fill the ring with other queries' spans
			sp := begin(tr, "other", 0, 0)
			sp.Event("device 0 (addr) req 1: 4 buckets, 12 records in 80µs")
			sp.End()
		}
		traces := []uint64{query(tr), query(tr), query(tr), query(tr)}
		i := 0
		allocs := testing.AllocsPerRun(200, func() { // evicts 4 entries, then replaces them
			if !tr.Retain(traces[i%len(traces)], KeepSample) {
				t.Fatal("trace not retained")
			}
			i++
		})
		rt, _ := tr.RetainedTrace(traces[0])
		if len(rt.Root.Children) != 8 || len(rt.Root.Events) != 8 {
			t.Fatalf("ring of %d: retained tree has %d children and %d root events, want 8 and 8",
				ringSize, len(rt.Root.Children), len(rt.Root.Events))
		}
		return allocs
	}
	small, big := measure(256), measure(4096)
	if small != 0 || big != 0 {
		t.Errorf("Retain of a 9-span trace into a full buffer allocates %.0f times from a 256-span ring and %.0f from a 4096-span one, want 0", small, big)
	}
}
