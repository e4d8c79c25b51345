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
//   - the one store behind the per-query /debug views (cell.go): a cell
//     per query shape, one keep decision, one ring of kept records — and
//     that decision also drives tail-based trace retention and histogram
//     exemplars in obs, so a kept event links to a kept trace tree and a
//     latency bucket links to both.
package telemetry

import (
	"time"

	"fxdist/internal/obs"
)

// Event is one wide event — the full story of one retrieval: the event
// ring's view of the query record. The engine executor builds one record
// per query; the store's Decide rules whether it is kept.
type Event struct {
	Time time.Time `json:"time"`
	*obs.QueryRecord
}

// Events returns up to n kept events, most recent first.
func (s *store) Events(n int) []Event {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	var out []Event
	for i := 1; i <= len(s.ring) && len(out) < n; i++ {
		ev := s.ring[(s.next-i+len(s.ring))%len(s.ring)]
		if ev.QueryRecord == nil {
			break // the ring has not wrapped yet: nothing older
		}
		out = append(out, ev)
	}
	return out
}

// Subscribe registers a live feed of kept events (the NDJSON ?follow=1
// path). Slow subscribers miss events instead of stalling retrievals.
// The returned cancel unregisters the feed and closes its channel.
func (s *store) Subscribe() (<-chan Event, func()) {
	// Buffered so a burst of kept events survives one slow write of the
	// follower's HTTP response; beyond that, events are dropped.
	ch := make(chan Event, 64)
	s.ringMu.Lock()
	s.subs[ch] = struct{}{}
	s.ringMu.Unlock()
	return ch, func() {
		s.ringMu.Lock()
		if _, ok := s.subs[ch]; ok {
			delete(s.subs, ch)
			close(ch)
		}
		s.ringMu.Unlock()
	}
}

// ShapeStats is one shape's sampling counters.
type ShapeStats struct {
	Shape string `json:"shape"`
	Seen  uint64 `json:"seen"`
	Kept  uint64 `json:"kept"`
}

// LogStats summarises one backend's event sampling: what was seen and
// kept, and the (fixed) policy that decided.
type LogStats struct {
	Backend      string       `json:"backend"`
	Seen         uint64       `json:"seen"`
	Kept         uint64       `json:"kept"`
	Capacity     int          `json:"capacity"`
	HeadPerShape uint64       `json:"head_per_shape"`
	SampleEvery  uint64       `json:"sample_every"`
	Shapes       []ShapeStats `json:"shapes,omitempty"`
}

// LogStats snapshots the sampling counters of every shape seen.
func (s *store) LogStats() LogStats {
	st := LogStats{Backend: s.Backend, Capacity: ringCapacity, HeadPerShape: headPerShape, SampleEvery: sampleEvery}
	s.each(func(c *cell) {
		if c.seen == 0 {
			return
		}
		st.Seen += c.seen
		st.Kept += c.kept
		st.Shapes = append(st.Shapes, ShapeStats{Shape: c.shape, Seen: c.seen, Kept: c.kept})
	})
	return st
}
