package obs

import "time"

// Event is one wide event — the full story of one retrieval: the event
// ring's view of the query record. The engine executor builds one record
// per query; the bundle's Decide rules whether it is kept.
type Event struct {
	Time time.Time `json:"time"`
	*QueryRecord
}

// Events returns up to n kept events, most recent first.
func (in *Instruments) Events(n int) []Event {
	in.ringMu.Lock()
	defer in.ringMu.Unlock()
	var out []Event
	for i := 1; i <= len(in.ring) && len(out) < n; i++ {
		ev := in.ring[(in.next-i+len(in.ring))%len(in.ring)]
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
func (in *Instruments) Subscribe() (<-chan Event, func()) {
	// Buffered so a burst of kept events survives one slow write of the
	// follower's HTTP response; beyond that, events are dropped.
	ch := make(chan Event, 64)
	in.ringMu.Lock()
	in.subs[ch] = struct{}{}
	in.ringMu.Unlock()
	return ch, func() {
		in.ringMu.Lock()
		if _, ok := in.subs[ch]; ok {
			delete(in.subs, ch)
			close(ch)
		}
		in.ringMu.Unlock()
	}
}

// ShapeStats is one shape's sampling counters: Seen is the shape's audit
// query count.
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
func (in *Instruments) LogStats() LogStats {
	st := LogStats{Backend: in.Backend, Capacity: ringCapacity, HeadPerShape: headPerShape, SampleEvery: sampleEvery}
	in.each(func(c *cell) {
		seen := c.audit.queries
		if seen == 0 {
			return
		}
		st.Seen += seen
		st.Kept += c.kept
		st.Shapes = append(st.Shapes, ShapeStats{Shape: c.shape, Seen: seen, Kept: c.kept})
	})
	return st
}
