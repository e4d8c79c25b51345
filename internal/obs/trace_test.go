package obs

import (
	"encoding/json"
	"fmt"
	"runtime"
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

func TestTracerRecentOrderAndEvents(t *testing.T) {
	tr := NewTracer(8)
	s1 := tr.Start("first")
	s1.SetRequestID(11)
	s1.Event("hello")
	s1.End()
	s2 := tr.Start("second")
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
	s := tr.Start("netdist.retrieve")
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

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Start("s").End()
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
	s := tr.Start("open")
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
	s := tr.Start("x") // must not panic
	s.SetRequestID(1)
	s.Event("y")
	s.End()
	if tr.Recent(5) != nil {
		t.Error("nil tracer returned spans")
	}
	if s.SpanID() != 0 || s.Trace() != 0 || s.ParentID() != 0 {
		t.Error("nil span reported nonzero ids")
	}
	if tr.Trees(5) != nil {
		t.Error("nil tracer returned trees")
	}
}

func TestStartChildParenting(t *testing.T) {
	tr := NewTracer(8)
	root := tr.Start("root")
	if root.Trace() != root.SpanID() || root.ParentID() != 0 {
		t.Fatalf("root trace=%d parent=%d span=%d; want trace==span, parent 0",
			root.Trace(), root.ParentID(), root.SpanID())
	}
	child := tr.StartChild("child", root.Trace(), root.SpanID())
	if child.Trace() != root.Trace() || child.ParentID() != root.SpanID() {
		t.Errorf("child trace=%d parent=%d; want trace %d parent %d",
			child.Trace(), child.ParentID(), root.Trace(), root.SpanID())
	}
	// traceID 0 forces a new root even with a nonzero parent hint.
	fresh := tr.StartChild("fresh", 0, 999)
	if fresh.Trace() != fresh.SpanID() || fresh.ParentID() != 0 {
		t.Errorf("zero traceID did not start a new root: trace=%d parent=%d span=%d",
			fresh.Trace(), fresh.ParentID(), fresh.SpanID())
	}
	child.End()
	root.End()
	fresh.End()
}

func TestTreesStitchParentChild(t *testing.T) {
	tr := NewTracer(16)
	root := tr.Start("coordinator")
	c1 := tr.StartChild("serve-0", root.Trace(), root.SpanID())
	c1.End()
	grand := tr.StartChild("scan", root.Trace(), c1.SpanID())
	grand.End()
	c2 := tr.StartChild("serve-1", root.Trace(), root.SpanID())
	c2.End()
	root.End()
	other := tr.Start("loner")
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
	self := tr.StartChild("serve-a", 1, 1)
	self.End()
	// Local span id 2 referencing remote trace 7, parent id 1: span 1
	// exists locally but belongs to trace 1, not 7 — no adoption.
	foreign := tr.StartChild("serve-b", 7, 1)
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
	sp := DefaultTracer().Start("epoch-probe")
	sp.End()
	if sp.SpanID() < 1<<32 {
		t.Errorf("default tracer span id %d looks sequential, want random epoch", sp.SpanID())
	}
}

func TestTreesOrphanPromotedToRoot(t *testing.T) {
	tr := NewTracer(2) // tiny ring: the root gets evicted
	root := tr.Start("root")
	a := tr.StartChild("a", root.Trace(), root.SpanID())
	b := tr.StartChild("b", root.Trace(), root.SpanID())
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
// retention path: keeping a 9-span trace costs the same out of a full
// 256-span ring as out of a full 4096-span one — Retain snapshots its
// own trace's spans, not the ring — and stays under a byte budget the
// whole-ring snapshot it replaced (285 allocations, 50 KB at 256 spans)
// blew sixfold.
func TestRetainCostIsTheTraceNotTheRing(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not exact under -race")
	}
	measure := func(ringSize int) (allocs, bytes float64) {
		tr := NewTracer(ringSize)
		for i := 0; i < ringSize; i++ { // fill the ring with other queries' spans
			sp := tr.Start("other")
			sp.Event("device 0 (addr) req 1: 4 buckets, 12 records in 80µs")
			sp.End()
		}
		root := tr.Start("netdist.retrieve")
		for dev := 0; dev < 8; dev++ {
			sp := tr.StartChild("netdist.serve", root.Trace(), root.SpanID())
			sp.Event("scan")
			sp.End()
		}
		root.End()
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() {
			if !tr.Retain(root.Trace(), KeepSample) {
				t.Fatal("trace not retained")
			}
		})
		runtime.ReadMemStats(&after)
		rt, _ := tr.RetainedTrace(root.Trace())
		if len(rt.Root.Children) != 8 {
			t.Fatalf("ring of %d: retained tree has %d children, want 8", ringSize, len(rt.Root.Children))
		}
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	}
	smallAllocs, smallBytes := measure(256)
	bigAllocs, bigBytes := measure(4096)
	t.Logf("Retain of a 9-span trace: %.0f allocs, %.0f B from a 256 ring; %.0f allocs, %.0f B from a 4096 ring",
		smallAllocs, smallBytes, bigAllocs, bigBytes)
	if smallAllocs != bigAllocs {
		t.Errorf("Retain allocates %.0f times from a 256-span ring and %.0f from a 4096-span one: it scales with the ring", smallAllocs, bigAllocs)
	}
	if smallBytes > 8<<10 || bigBytes > 8<<10 {
		t.Errorf("Retain of a 9-span trace allocates %.0f / %.0f B, budget 8 KiB", smallBytes, bigBytes)
	}
}
