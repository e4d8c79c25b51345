package obs

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// Tracer keeps a bounded ring of one owner's recent query spans: a
// cluster's bundle has one, each device server another. A span is created
// when the coordinator (or a device server) starts work on a query and
// carries timestamped events; spans on both sides share the pipelined
// wire request ID, so a coordinator trace correlates with the matching
// server traces. Spans additionally carry a trace ID and a parent span
// ID: the coordinator's retrieval span is the root of a trace, and the
// device-server spans it fans out to are its children — the netdist
// protocol propagates both IDs on the wire, so the servers' spans of one
// query join the coordinator's tree by trace ID, in one process or many
// (see Trees).
//
// Spans live in their owners and the ring holds span values (DESIGN §8),
// so watching allocates nothing. Lock order: retainMu, mu, a span's mu.
type Tracer struct {
	mu   sync.Mutex
	ring []slot // claimed in start order; next is the insertion point
	next int
	seq  uint64
	// spare holds the spill buffers (spanData.more) of reclaimed slots;
	// End copies a span's spilled events into one.
	spare [][]spanEvent

	// Tail-based retention: the ring above is only a staging window —
	// whether a trace outlives it is decided at query end, by the one
	// keep decision that also admits the query's record to the event ring
	// (Instruments.Decide). A kept trace is a copy of its spans,
	// so it stays recoverable by its trace ID after they left the ring.
	retainMu sync.Mutex
	retained []retained // insertion order (oldest first)
	scratch  retained   // the next Retain copies here, then swaps it in
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

// retained is one kept trace: its spans' values, most recent first, and
// their spill events (see render).
type retained struct {
	traceID uint64
	reason  string
	at      time.Time
	spans   []spanData
	events  []spanEvent
}

// tree renders the kept trace, preferring the true root (its ID is the
// trace ID) when the spans stitch into more than one tree.
func (r *retained) tree() RetainedTrace {
	trees := stitchTrees(render(r.spans, r.events))
	root := trees[0]
	for _, tr := range trees {
		if tr.ID == r.traceID {
			root = tr
			break
		}
	}
	return RetainedTrace{TraceID: r.traceID, Reason: r.reason, At: r.at, Root: root}
}

// NewTracer returns a tracer retaining the last capacity spans, for one
// owner: a cluster's bundle or a device server. Its span IDs count up
// from a random epoch: a device server receives coordinator span IDs
// off the wire, and with every tracer counting from 1 a server's own
// span ID would collide with the coordinator's parent ID and Trees
// would stitch foreign spans into the wrong tree (or cycle a span onto
// itself).
func NewTracer(capacity int) *Tracer {
	return &Tracer{ring: make([]slot, max(capacity, 1)), seq: rand.Uint64() >> 1} // 2^63 IDs of headroom
}

// Begin starts s — new, or reused once it ended — as a span named name
// and links it from the next ring slot (in-flight spans are visible in
// Recent, marked not Done). traceID and parent place it inside an existing
// trace — both may come off the wire from another owner; traceID 0
// starts a new root, whose trace ID is its own span ID. A nil tracer
// leaves s alone.
func (t *Tracer) Begin(s *Span, name string, traceID, parent uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seq++; traceID == 0 {
		traceID, parent = t.seq, 0
	}
	s.mu.Lock()
	s.spanData = spanData{ID: t.seq, traceID: traceID, parent: parent, Name: name, start: time.Now(), more: s.more[:0]}
	s.t, s.slot = t, t.next
	s.mu.Unlock()
	sl := &t.ring[t.next]
	if sl.more != nil {
		t.spare = append(t.spare, sl.more[:0])
	}
	*sl = slot{live: s}
	t.next = (t.next + 1) % len(t.ring)
}

// unlink copies s into its slot, its spilled events into a buffer off the
// spare list, and ends the link, if the slot still links s (one reclaimed
// while s ran has evicted it); t.mu held.
func (t *Tracer) unlink(s *Span) {
	if s.t != t || t.ring[s.slot].live != s {
		return
	}
	sl := &t.ring[s.slot]
	s.mu.Lock()
	sl.spanData, sl.live, sl.more = s.spanData, nil, nil
	if n := len(t.spare); n > 0 && len(s.more) > 0 {
		sl.more, t.spare = t.spare[n-1], t.spare[:n-1]
	}
	sl.more = append(sl.more, s.more...) // still nil when nothing spilled
	s.mu.Unlock()
}

// slot is one ring position: the owner's span while it runs (live), its
// values once it ended. A slot never claimed has ID 0.
type slot struct {
	live *Span
	spanData
}

// render snapshots copied spans, formatting their events; each span's
// spill events follow the previous span's in evs.
func render(spans []spanData, evs []spanEvent) []SpanSnapshot {
	out := make([]SpanSnapshot, len(spans))
	for i := range spans {
		d := &spans[i]
		events := make([]SpanEvent, d.n)
		for j := range events {
			ev := &d.inline[j%len(d.inline)]
			if j >= len(d.inline) {
				ev, evs = &evs[0], evs[1:]
			}
			events[j] = SpanEvent{At: ev.at, Msg: ev.msg}
			if ev.isReply {
				events[j].Msg = ev.reply.String()
			}
		}
		out[i] = SpanSnapshot{ID: d.ID, TraceID: d.traceID, Parent: d.parent, RequestID: d.requestID,
			Name: d.Name, Start: d.start, Duration: d.duration, Done: d.done, Events: events}
	}
	return out
}

// Recent returns up to n span snapshots, most recent first.
func (t *Tracer) Recent(n int) []SpanSnapshot {
	if t == nil || n <= 0 {
		return nil
	}
	return render(t.collect(n, 0, nil, nil))
}

// collect copies up to n spans, most recent first — those of traceID
// only, unless it is 0 — onto spans, their spill events onto evs.
func (t *Tracer) collect(n int, traceID uint64, spans []spanData, evs []spanEvent) ([]spanData, []spanEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now() // after the lock: no span in the ring starts later
	for i := 1; i <= len(t.ring) && len(spans) < n; i++ {
		sl := &t.ring[(t.next-i+len(t.ring))%len(t.ring)]
		d, live := &sl.spanData, sl.live
		if live != nil {
			d = &live.spanData // its identity needs only t.mu, the rest its mu
		}
		if d.ID == 0 || traceID != 0 && d.traceID != traceID {
			continue
		}
		if live != nil {
			live.mu.Lock()
		}
		c := *d
		evs = append(evs, c.more...)
		if live != nil {
			live.mu.Unlock()
		}
		if c.more = nil; !c.done {
			c.duration = now.Sub(c.start)
		}
		spans = append(spans, c)
	}
	return spans, evs
}

// SpanTree is one span and the spans that ran under it — a stitched
// view of a whole query: coordinator root, one child per device server.
type SpanTree struct {
	SpanSnapshot
	Children []SpanTree `json:"children,omitempty"`
}

// Trees groups up to n recent spans into parent→child trees, most
// recent root first. A span whose parent is absent from the window
// (evicted from the ring, or rooted in another owner's tracer) is
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
		// minted by another owner can collide with a local span id, and
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

// Retain copies the spans of traceID still in the ring — those alone,
// not the ring — into the buffers of the entry it replaces, and keeps
// them with the given reason; reading renders the tree. When the buffer
// is full, the oldest head/sample entry is evicted first — an always-keep
// tree (error/slow/bound) is only displaced by newer always-keep trees,
// so memory stays bounded without losing the interesting tail. Returns
// false when no span of the trace remains.
func (t *Tracer) Retain(traceID uint64, reason string) bool {
	if t == nil || traceID == 0 {
		return false
	}
	t.retainMu.Lock()
	defer t.retainMu.Unlock()
	rec := &t.scratch
	rec.spans, rec.events = t.collect(len(t.ring), traceID, rec.spans[:0], rec.events[:0])
	if len(rec.spans) == 0 {
		return false
	}
	rec.traceID, rec.reason, rec.at = traceID, reason, time.Now()
	// Replace an existing entry for the same trace (e.g. sampled first,
	// then retained again with an always-keep reason).
	for i := range t.retained {
		if t.retained[i].traceID == traceID {
			if alwaysKeep(t.retained[i].reason) && !alwaysKeep(reason) {
				rec.reason = t.retained[i].reason
			}
			t.retained[i], *rec = *rec, t.retained[i]
			return true
		}
	}
	var evicted retained
	if len(t.retained) >= RetainedTraces {
		evict := 0 // all always-keep: drop the oldest to stay bounded
		for i := range t.retained {
			if !alwaysKeep(t.retained[i].reason) {
				evict = i
				break
			}
		}
		evicted = t.retained[evict]
		t.retained = append(t.retained[:evict], t.retained[evict+1:]...)
	}
	t.retained = append(t.retained, *rec)
	*rec = evicted
	return true
}

// Retained returns up to n kept trace trees, most recent first.
func (t *Tracer) Retained(n int) []RetainedTrace {
	if t == nil || n <= 0 {
		return nil
	}
	t.retainMu.Lock()
	defer t.retainMu.Unlock()
	n = min(n, len(t.retained))
	out := make([]RetainedTrace, 0, n)
	for i := len(t.retained) - 1; i >= len(t.retained)-n; i-- {
		out = append(out, t.retained[i].tree())
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
		if t.retained[i].traceID == traceID {
			return t.retained[i].tree(), true
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

// spanData is a span's values: what its owner writes, what a ring slot
// keeps once the span ended, and what readers copy.
type spanData struct {
	ID, traceID, parent, requestID uint64
	Name                           string
	start                          time.Time
	duration                       time.Duration
	done                           bool
	// The first events live in the span itself: most spans annotate once
	// or twice. Later ones (a coordinator's reply per device) spill to
	// more, a buffer the span makes on the first of them and keeps when
	// its owner begins it again.
	inline [2]spanEvent
	n      int // events recorded; the first len(inline) of them in inline
	more   []spanEvent
}

// Span is one traced operation, owned by whoever runs it (an executor's
// call, a server connection) and linked from the tracer's ring while it
// runs. All methods are safe for concurrent use and no-op on a nil span.
type Span struct {
	mu   sync.Mutex
	t    *Tracer // Begin's tracer, nil if none
	slot int     // the ring slot Begin linked
	spanData
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
		if s.more == nil { // with inline, room for an 8-device fan-out's replies
			s.more = make([]spanEvent, 0, 8)
		}
		s.more = append(s.more, ev)
	}
	s.n++
	s.mu.Unlock()
}

// End closes the span, fixing its duration, and copies it into its ring
// slot. Repeated End is a no-op; the owner may still read the span.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.mu.Lock()
	if !s.done {
		s.done, s.duration = true, d
	}
	s.mu.Unlock()
	if t := s.t; t != nil {
		t.mu.Lock()
		t.unlink(s)
		t.mu.Unlock()
	}
}

// Snapshot returns a point-in-time copy of the span (zero value on a
// nil span) — used by the flight recorder to retain a slow query's
// event log after the span itself left the ring.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.spanData
	if !c.done {
		c.duration = time.Since(c.start)
	}
	return render([]spanData{c}, c.more)[0]
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
