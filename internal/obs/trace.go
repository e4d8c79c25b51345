package obs

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// Tracer keeps a bounded ring of recent query spans. A span is created
// when the coordinator (or a device server) starts work on a query and
// carries timestamped events; spans on both sides share the pipelined
// wire request ID, so a coordinator trace correlates with the matching
// server traces. Spans additionally carry a trace ID and a parent span
// ID: the coordinator's retrieval span is the root of a trace, and the
// device-server spans it fans out to are its children — the netdist
// protocol propagates both IDs on the wire, so one query stitches into
// a single parent→child tree even across processes (see Trees).
type Tracer struct {
	mu   sync.Mutex
	cap  int
	ring []*Span // oldest-first once full; insertion point is next
	next int
	full bool
	seq  uint64

	// Tail-based retention: the ring above is only a staging window —
	// whether a trace outlives it is decided at query end, by the one
	// keep decision that also admits the query's record to the event ring
	// (telemetry.Instruments.Decide). Kept trees are immutable snapshots,
	// so a retained trace stays recoverable by its trace ID long after its
	// spans were evicted from the ring.
	retainMu sync.Mutex
	retained []RetainedTrace // insertion order (oldest first)
}

// Keep reasons: why a query's record and trace tree were kept. The first
// four are always-keep; head and sample are the per-shape sampling of
// unremarkable traffic and are the first to be evicted.
const (
	KeepError  = "error"     // the query failed (or returned partial results)
	KeepSlow   = "slow"      // latency exceeded the shape's SLO target
	KeepBound  = "bound"     // a device exceeded the strict bound ceil(|R(q)|/M)
	KeepPlace  = "placement" // a device answered off its plan count
	KeepHead   = "head"      // one of the first queries of its shape
	KeepSample = "sample"    // 1-in-N sample of a shape's later queries
)

func alwaysKeep(reason string) bool {
	return reason == KeepError || reason == KeepSlow || reason == KeepBound || reason == KeepPlace
}

// RetainedTrace is one trace tree kept by the tail-sampling decision.
type RetainedTrace struct {
	TraceID uint64    `json:"trace_id"`
	Reason  string    `json:"reason"`
	At      time.Time `json:"at"`
	Root    SpanTree  `json:"root"`
}

// RetainedTraces is how many kept trees the retention buffer holds: the
// newest 64 kept queries stay recoverable by trace ID. A tree per event
// ring slot (1 024) would cost megabytes of live heap for evidence the
// flight records and events already summarise (DESIGN §8).
const RetainedTraces = 64

// NewTracer returns a tracer retaining the last capacity spans. Span
// ids count up from 1 — deterministic, which tests rely on; the
// process-wide DefaultTracer instead starts from a random epoch so ids
// crossing the wire don't collide between processes.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{cap: capacity, ring: make([]*Span, capacity)}
}

// newProcessTracer seeds the span-id sequence with a per-process random
// epoch. Device servers receive coordinator span ids off the wire;
// with every process counting from 1, a server's own span id would
// collide with the coordinator's parent id and Trees would stitch
// foreign spans into the wrong tree (or cycle a span onto itself).
func newProcessTracer(capacity int) *Tracer {
	t := NewTracer(capacity)
	t.seq = rand.Uint64() >> 1 // keep 2^63 ids of monotonic headroom
	return t
}

var defaultTracer = newProcessTracer(256)

// DefaultTracer returns the process-wide tracer the instrumented
// packages record against.
func DefaultTracer() *Tracer { return defaultTracer }

// Start opens a root span and records it in the ring (in-flight spans
// are visible in Recent, marked not Done). A root span's trace ID is
// its own span ID. Safe on a nil tracer, which returns a nil span whose
// methods no-op.
func (t *Tracer) Start(name string) *Span { return t.StartChild(name, 0, 0) }

// StartChild opens a span inside an existing trace: traceID is the
// root's trace ID and parent the span ID of the caller's span — both
// may come off the wire from another process. traceID 0 starts a new
// root (the span's own ID becomes the trace ID). Safe on a nil tracer.
func (t *Tracer) StartChild(name string, traceID, parent uint64) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.seq++
	if traceID == 0 {
		traceID = t.seq
		parent = 0
	}
	s := &Span{ID: t.seq, Name: name, traceID: traceID, parent: parent, start: time.Now()}
	t.ring[t.next] = s
	t.next++
	if t.next == t.cap {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
	return s
}

// Recent returns up to n span snapshots, most recent first.
func (t *Tracer) Recent(n int) []SpanSnapshot {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	var spans []*Span
	for i := t.next - 1; i >= 0; i-- {
		spans = append(spans, t.ring[i])
	}
	if t.full {
		for i := t.cap - 1; i >= t.next; i-- {
			spans = append(spans, t.ring[i])
		}
	}
	t.mu.Unlock()
	if len(spans) > n {
		spans = spans[:n]
	}
	out := make([]SpanSnapshot, 0, len(spans))
	for _, s := range spans {
		if s != nil {
			out = append(out, s.snapshot())
		}
	}
	return out
}

// SpanTree is one span and the spans that ran under it — a stitched
// view of a whole query: coordinator root, one child per device server.
type SpanTree struct {
	SpanSnapshot
	Children []SpanTree `json:"children,omitempty"`
}

// Trees groups up to n recent spans into parent→child trees, most
// recent root first. A span whose parent is absent from the window
// (evicted from the ring, or rooted in another process's tracer) is
// promoted to a root so no span is dropped.
func (t *Tracer) Trees(n int) []SpanTree {
	return stitchTrees(t.Recent(n))
}

// stitchTrees groups span snapshots into parent→child trees (see Trees
// for the attach rule).
func stitchTrees(snaps []SpanSnapshot) []SpanTree {
	if len(snaps) == 0 {
		return nil
	}
	present := make(map[uint64]uint64, len(snaps)) // span id → trace id
	for _, s := range snaps {
		present[s.ID] = s.TraceID
	}
	children := make(map[uint64][]SpanSnapshot)
	var roots []SpanSnapshot
	for _, s := range snaps {
		// Attach only under a local parent in the same trace; a parent id
		// minted by another process can collide with a local span id, and
		// a span must never parent itself.
		ptrace, ok := present[s.Parent]
		if s.Parent != 0 && s.Parent != s.ID && ok && ptrace == s.TraceID {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var build func(s SpanSnapshot) SpanTree
	build = func(s SpanSnapshot) SpanTree {
		tree := SpanTree{SpanSnapshot: s}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		for _, k := range kids {
			tree.Children = append(tree.Children, build(k))
		}
		return tree
	}
	out := make([]SpanTree, 0, len(roots))
	for _, r := range roots {
		out = append(out, build(r))
	}
	return out
}

// Retain snapshots the spans of traceID still in the ring — those alone,
// not the ring — stitches them into a tree, and keeps it with the given
// reason. When the buffer is full, the oldest head/sample entry is
// evicted first — an always-keep tree (error/slow/bound) is only
// displaced by newer always-keep trees, so memory stays bounded without
// losing the interesting tail. Returns false when no span of the trace
// remains.
func (t *Tracer) Retain(traceID uint64, reason string) bool {
	if t == nil || traceID == 0 {
		return false
	}
	t.mu.Lock()
	var spans []*Span
	for i := 1; i <= t.cap; i++ { // most recent first, as Recent orders them
		s := t.ring[(t.next-i+t.cap)%t.cap]
		if s != nil && s.traceID == traceID { // traceID is immutable
			spans = append(spans, s)
		}
	}
	t.mu.Unlock()
	if len(spans) == 0 {
		return false
	}
	mine := make([]SpanSnapshot, len(spans))
	for i, s := range spans {
		mine[i] = s.snapshot()
	}
	trees := stitchTrees(mine)
	root := trees[0]
	for _, tr := range trees {
		if tr.ID == traceID { // prefer the true root (its ID is the trace ID)
			root = tr
			break
		}
	}
	rec := RetainedTrace{TraceID: traceID, Reason: reason, At: time.Now(), Root: root}
	t.retainMu.Lock()
	defer t.retainMu.Unlock()
	// Replace an existing entry for the same trace (e.g. sampled first,
	// then retained again with an always-keep reason).
	for i := range t.retained {
		if t.retained[i].TraceID == traceID {
			if alwaysKeep(t.retained[i].Reason) && !alwaysKeep(reason) {
				rec.Reason = t.retained[i].Reason
			}
			t.retained[i] = rec
			return true
		}
	}
	if len(t.retained) >= RetainedTraces {
		evict := 0 // all always-keep: drop the oldest to stay bounded
		for i := range t.retained {
			if !alwaysKeep(t.retained[i].Reason) {
				evict = i
				break
			}
		}
		t.retained = append(t.retained[:evict], t.retained[evict+1:]...)
	}
	t.retained = append(t.retained, rec)
	return true
}

// Retained returns up to n kept trace trees, most recent first.
func (t *Tracer) Retained(n int) []RetainedTrace {
	if t == nil || n <= 0 {
		return nil
	}
	t.retainMu.Lock()
	defer t.retainMu.Unlock()
	if n > len(t.retained) {
		n = len(t.retained)
	}
	out := make([]RetainedTrace, 0, n)
	for i := len(t.retained) - 1; i >= len(t.retained)-n; i-- {
		out = append(out, t.retained[i])
	}
	return out
}

// RetainedTrace looks up a kept tree by trace ID — the path an operator
// follows from a histogram exemplar back to the query's full tree.
func (t *Tracer) RetainedTrace(traceID uint64) (RetainedTrace, bool) {
	if t == nil {
		return RetainedTrace{}, false
	}
	t.retainMu.Lock()
	defer t.retainMu.Unlock()
	for i := len(t.retained) - 1; i >= 0; i-- {
		if t.retained[i].TraceID == traceID {
			return t.retained[i], true
		}
	}
	return RetainedTrace{}, false
}

// SpanEvent is one timestamped annotation inside a span.
type SpanEvent struct {
	// At is the offset from the span's start.
	At  time.Duration `json:"at_ns"`
	Msg string        `json:"msg"`
}

// DeviceReply is the success event of one device request: which device
// answered which wire request with how many qualified buckets and scanned
// records — and, on the coordinator's span, from which address and in
// what time. A span keeps the operands and renders the text only when it
// is snapshotted, so a request nobody inspects formats nothing.
type DeviceReply struct {
	Device  int
	Addr    string // the server asked; "" on the server's own span
	Request uint64
	Buckets int
	Records int
	Took    time.Duration // the round trip, reported beside Addr
}

func (r DeviceReply) String() string {
	if r.Addr == "" {
		return fmt.Sprintf("device %d req %d: %d buckets, %d records", r.Device, r.Request, r.Buckets, r.Records)
	}
	return fmt.Sprintf("device %d (%s) req %d: %d buckets, %d records in %v",
		r.Device, r.Addr, r.Request, r.Buckets, r.Records, r.Took)
}

// spanEvent is an annotation as the span holds it: rendered text, or the
// operands of a reply still to render.
type spanEvent struct {
	at      time.Duration
	msg     string
	isReply bool
	reply   DeviceReply // rendered in msg's place when isReply
}

// Span is one in-progress or completed traced operation. All methods
// are safe for concurrent use and no-op on a nil span.
type Span struct {
	ID   uint64
	Name string

	traceID uint64
	parent  uint64
	start   time.Time

	mu        sync.Mutex
	requestID uint64
	// The first events live in the span itself: most spans annotate once
	// or twice, so they cost no allocation beyond the span (the ring holds
	// 256 spans, so the room is bounded). Later ones spill to more.
	inline   [2]spanEvent
	n        int // events recorded; the first len(inline) of them in inline
	more     []spanEvent
	duration time.Duration
	done     bool
}

// SpanID returns the span's own ID, 0 on a nil span.
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// Trace returns the ID of the trace this span belongs to (its own ID
// for roots), 0 on a nil span.
func (s *Span) Trace() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// ParentID returns the span ID of this span's parent, 0 for roots.
func (s *Span) ParentID() uint64 {
	if s == nil {
		return 0
	}
	return s.parent
}

// SetRequestID attaches the pipelined wire request ID, correlating this
// span with its peer on the other side of the connection.
func (s *Span) SetRequestID(id uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.requestID = id
	s.mu.Unlock()
}

// Event records a timestamped annotation.
func (s *Span) Event(msg string) { s.record(spanEvent{msg: msg}) }

// Reply records a device request's success event; see DeviceReply.
func (s *Span) Reply(r DeviceReply) { s.record(spanEvent{isReply: true, reply: r}) }

func (s *Span) record(ev spanEvent) {
	if s == nil {
		return
	}
	ev.at = time.Since(s.start)
	s.mu.Lock()
	if s.n < len(s.inline) {
		s.inline[s.n] = ev
	} else {
		if s.more == nil {
			// One reply per device of a fan-out is what spills.
			s.more = make([]spanEvent, 0, 8)
		}
		s.more = append(s.more, ev)
	}
	s.n++
	s.mu.Unlock()
}

// End closes the span, fixing its duration. Repeated End is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.mu.Lock()
	if !s.done {
		s.done = true
		s.duration = d
	}
	s.mu.Unlock()
}

// Snapshot returns a point-in-time copy of the span (zero value on a
// nil span) — used by the flight recorder to retain a slow query's
// event log after the span itself is evicted from the ring.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	return s.snapshot()
}

func (s *Span) snapshot() SpanSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.duration
	if !s.done {
		d = time.Since(s.start)
	}
	var events []SpanEvent
	if s.n > 0 {
		events = make([]SpanEvent, s.n)
		for i := range events {
			ev := &s.inline[i%len(s.inline)]
			if i >= len(s.inline) {
				ev = &s.more[i-len(s.inline)]
			}
			events[i] = SpanEvent{At: ev.at, Msg: ev.msg}
			if ev.isReply {
				events[i].Msg = ev.reply.String()
			}
		}
	}
	return SpanSnapshot{
		ID:        s.ID,
		TraceID:   s.traceID,
		Parent:    s.parent,
		RequestID: s.requestID,
		Name:      s.Name,
		Start:     s.start,
		Duration:  d,
		Done:      s.done,
		Events:    events,
	}
}

// SpanSnapshot is a point-in-time copy of a span, safe to retain.
type SpanSnapshot struct {
	ID        uint64        `json:"id"`
	TraceID   uint64        `json:"trace_id"`
	Parent    uint64        `json:"parent_id,omitempty"`
	RequestID uint64        `json:"request_id,omitempty"`
	Name      string        `json:"name"`
	Start     time.Time     `json:"start"`
	Duration  time.Duration `json:"duration_ns"`
	Done      bool          `json:"done"`
	Events    []SpanEvent   `json:"events,omitempty"`
}
