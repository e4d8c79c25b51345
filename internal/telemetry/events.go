// Package telemetry is the cluster-wide observability plane layered on
// internal/obs. It adds three fleet-level instruments the per-node
// metrics/traces/profiles from earlier PRs cannot provide:
//
//   - a wide-event query log — one structured event per retrieval with
//     everything an operator asks of a single query (shape, plan-cache
//     hit, per-stage costs, per-device bucket counts vs the paper's
//     strict bound ceil(|R(q)|/M), trace ID, error/partial manifest),
//     head-sampled per shape with always-keep rules for errors,
//     SLO-slow and bound-violating queries (/debug/events, NDJSON
//     streamable);
//
//   - metrics federation — node snapshots pulled by the netdist
//     coordinator over the wire protocol and merged into one fleet view
//     (/debug/cluster): per-node liveness/lag/identity, summed
//     counters, merged histograms, worst-device discrepancy and SLO
//     burn across nodes;
//
//   - the keep decision that drives tail-based trace retention and
//     histogram exemplars in obs, so a kept event links to a kept trace
//     tree and a latency bucket links to both.
package telemetry

import (
	"sort"
	"sync"
	"time"

	"fxdist/internal/obs"
)

// Event is one wide event — the full story of one retrieval: the event
// log's view of the query record. The engine executor builds one record
// per query; the log decides whether it is kept.
type Event struct {
	Time time.Time `json:"time"`
	*obs.QueryRecord
}

// Head-sampling keep reasons (the always-keep reasons are shared with
// trace retention: obs.KeepError/KeepSlow/KeepBound/KeepSample).
const (
	KeepHead = "head"
)

// Decision is the log's verdict on one query. Always is true when an
// always-keep rule fired — the engine mirrors the same decision into
// trace retention (retain on Always, uniform-sample otherwise) so kept
// events and kept traces stay consistent.
type Decision struct {
	Kept   bool
	Always bool
}

// Config tunes one backend's event log.
type Config struct {
	// Capacity bounds the kept-event ring (default 1024).
	Capacity int
	// HeadPerShape keeps the first K events of every shape
	// unconditionally — new shapes are always interesting (default 8).
	HeadPerShape uint64
	// SampleEvery keeps 1 in N per shape after the head (default 16;
	// 0 keeps none beyond head and always-keep).
	SampleEvery uint64
	// SlowFor returns the latency threshold above which a query of the
	// shape is always kept (0 = no slow rule for the shape). Defaults
	// to the backend's audit SLO target.
	SlowFor func(shape string) time.Duration
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	return c
}

// DefaultEventConfig is the sampling policy a backend's log starts with.
var DefaultEventConfig = Config{Capacity: 1024, HeadPerShape: 8, SampleEvery: 16}

type shapeSampler struct {
	seen uint64
	kept uint64
}

// EventLog is one backend's wide-event query log: a bounded ring of
// kept events plus per-shape head-sampling state. All methods are safe
// for concurrent use and no-op on nil.
type EventLog struct {
	backend string

	mu     sync.Mutex
	cfg    Config
	ring   []Event
	next   int
	full   bool
	shapes map[string]*shapeSampler
	seen   uint64
	kept   uint64
	subs   map[chan Event]struct{}

	mSeen    *obs.Counter
	mKept    *obs.Counter
	mDropped *obs.Counter
}

// NewEventLog returns a log for one backend with the given config
// (zero-value fields take defaults).
func NewEventLog(backend string, cfg Config) *EventLog {
	cfg = cfg.withDefaults()
	r := obs.Default()
	bl := obs.L("backend", backend)
	return &EventLog{
		backend: backend,
		cfg:     cfg,
		ring:    make([]Event, cfg.Capacity),
		shapes:  make(map[string]*shapeSampler),
		subs:    make(map[chan Event]struct{}),
		mSeen: r.Counter("fxdist_events_seen_total",
			"Wide events offered to the query log, per backend.", bl),
		mKept: r.Counter("fxdist_events_kept_total",
			"Wide events kept by head sampling or an always-keep rule.", bl),
		mDropped: r.Counter("fxdist_events_dropped_total",
			"Wide events dropped by head sampling.", bl),
	}
}

// Configure replaces the log's sampling policy. The kept ring is
// resized (existing events are kept newest-first up to the new
// capacity); per-shape head counters are preserved.
func (l *EventLog) Configure(cfg Config) {
	if l == nil {
		return
	}
	cfg = cfg.withDefaults()
	l.mu.Lock()
	events := l.lockedRecent(cfg.Capacity)
	l.cfg = cfg
	l.ring = make([]Event, cfg.Capacity)
	l.next, l.full = 0, false
	for i := len(events) - 1; i >= 0; i-- { // oldest first
		l.ring[l.next] = events[i]
		l.next++
		if l.next == len(l.ring) {
			l.next, l.full = 0, true
		}
	}
	l.mu.Unlock()
}

// Decide is the keep decision for one query, made on the record's
// scalars alone (shape, latency, failure, bound violation) before any
// per-device detail exists, so dropped queries never pay for it. It
// counts the query as seen, fills rec.Slow, rec.SLOTarget and rec.Keep,
// and charges the kept/dropped counters; a kept record must then be
// handed to Observe.
func (l *EventLog) Decide(rec *obs.QueryRecord) Decision {
	if l == nil {
		return Decision{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen++
	l.mSeen.Inc()

	var reasons []string
	if rec.Failed {
		reasons = append(reasons, obs.KeepError)
	}
	if l.cfg.SlowFor != nil {
		if target := l.cfg.SlowFor(rec.Shape); target > 0 && rec.Elapsed > target {
			rec.Slow = true
			rec.SLOTarget = target
			reasons = append(reasons, obs.KeepSlow)
		}
	}
	if rec.BoundViolation {
		reasons = append(reasons, obs.KeepBound)
	}
	always := len(reasons) > 0

	ss := l.shapes[rec.Shape]
	if ss == nil {
		ss = &shapeSampler{}
		l.shapes[rec.Shape] = ss
	}
	ss.seen++
	if !always {
		switch {
		case ss.seen <= l.cfg.HeadPerShape:
			reasons = append(reasons, KeepHead)
		case l.cfg.SampleEvery > 0 && ss.seen%l.cfg.SampleEvery == 0:
			reasons = append(reasons, obs.KeepSample)
		}
	}
	if len(reasons) == 0 {
		l.mDropped.Inc()
		return Decision{}
	}
	rec.Keep = reasons
	ss.kept++
	l.kept++
	l.mKept.Inc()
	return Decision{Kept: true, Always: always}
}

// Observe stores a record Decide chose to keep and feeds it to live
// subscribers. The record must not change afterwards.
func (l *EventLog) Observe(rec *obs.QueryRecord) {
	if l == nil {
		return
	}
	ev := Event{Time: rec.Start, QueryRecord: rec}
	l.mu.Lock()
	l.ring[l.next] = ev
	l.next++
	if l.next == len(l.ring) {
		l.next, l.full = 0, true
	}
	for ch := range l.subs {
		select {
		case ch <- ev:
		default: // slow follower: drop rather than stall the hot path
		}
	}
	l.mu.Unlock()
}

// lockedRecent returns up to n kept events, most recent first. Caller
// holds l.mu.
func (l *EventLog) lockedRecent(n int) []Event {
	if n <= 0 {
		return nil
	}
	var out []Event
	for i := l.next - 1; i >= 0 && len(out) < n; i-- {
		out = append(out, l.ring[i])
	}
	if l.full {
		for i := len(l.ring) - 1; i >= l.next && len(out) < n; i-- {
			out = append(out, l.ring[i])
		}
	}
	return out
}

// Recent returns up to n kept events, most recent first.
func (l *EventLog) Recent(n int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lockedRecent(n)
}

// Subscribe registers a live feed of kept events (the NDJSON ?follow=1
// path). Slow subscribers miss events instead of stalling retrievals.
func (l *EventLog) Subscribe() (<-chan Event, func()) {
	if l == nil {
		ch := make(chan Event)
		close(ch)
		return ch, func() {}
	}
	ch := make(chan Event, 64)
	l.mu.Lock()
	l.subs[ch] = struct{}{}
	l.mu.Unlock()
	return ch, func() {
		l.mu.Lock()
		delete(l.subs, ch)
		l.mu.Unlock()
	}
}

// ShapeStats is one shape's sampling counters.
type ShapeStats struct {
	Shape string `json:"shape"`
	Seen  uint64 `json:"seen"`
	Kept  uint64 `json:"kept"`
}

// LogStats summarises one backend's log.
type LogStats struct {
	Backend      string       `json:"backend"`
	Seen         uint64       `json:"seen"`
	Kept         uint64       `json:"kept"`
	Capacity     int          `json:"capacity"`
	HeadPerShape uint64       `json:"head_per_shape"`
	SampleEvery  uint64       `json:"sample_every"`
	Shapes       []ShapeStats `json:"shapes,omitempty"`
}

// Stats snapshots the log's sampling counters.
func (l *EventLog) Stats() LogStats {
	if l == nil {
		return LogStats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LogStats{
		Backend:      l.backend,
		Seen:         l.seen,
		Kept:         l.kept,
		Capacity:     l.cfg.Capacity,
		HeadPerShape: l.cfg.HeadPerShape,
		SampleEvery:  l.cfg.SampleEvery,
	}
	for shape, ss := range l.shapes {
		st.Shapes = append(st.Shapes, ShapeStats{Shape: shape, Seen: ss.seen, Kept: ss.kept})
	}
	sort.Slice(st.Shapes, func(i, j int) bool { return st.Shapes[i].Shape < st.Shapes[j].Shape })
	return st
}

// Reset discards kept events and sampling state (config is kept).
func (l *EventLog) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ring = make([]Event, l.cfg.Capacity)
	l.next, l.full = 0, false
	l.shapes = make(map[string]*shapeSampler)
	l.seen, l.kept = 0, 0
	l.mu.Unlock()
}
