package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Slow-query flight recorder: the K worst queries per (backend, shape),
// each retaining the full evidence needed to diagnose it after the fact
// — stage breakdown, span events (retry/hedge/breaker decisions land
// there), plan-cache hit/miss, and per-device bucket counts against the
// paper's strict bound ceil(|R(q)|/M). Served on /debug/flight and
// dumpable via pmquery -flight.

// FlightSlots is how many worst queries each shape retains.
const FlightSlots = 8

// FlightRecord is one retained slow query: the flight recorder's view
// of the query record, ranked by Elapsed.
type FlightRecord struct {
	Start time.Time `json:"start"`
	*QueryRecord
}

// Slowest is one shape's FlightSlots slowest queries, ascending by
// Elapsed so the eviction candidate — the floor a query must beat once
// the slice is full — is always index 0. It is the flight section of a
// telemetry cell, whose mutex guards it; nil is empty.
type Slowest []FlightRecord

// Admits reports whether a query of the given latency would be kept —
// the check made on scalars before any per-device detail is built.
func (s Slowest) Admits(elapsed time.Duration) bool {
	return len(s) < FlightSlots || elapsed > s[0].Elapsed
}

// Offer keeps q iff it ranks among the shape's slowest.
func (s *Slowest) Offer(q *QueryRecord) {
	ring := *s
	if !ring.Admits(q.Elapsed) {
		return
	}
	if len(ring) >= FlightSlots {
		ring = ring[1:]
	}
	// Insert keeping ascending Elapsed order.
	i := sort.Search(len(ring), func(i int) bool { return ring[i].Elapsed > q.Elapsed })
	ring = append(ring, FlightRecord{})
	copy(ring[i+1:], ring[i:])
	ring[i] = FlightRecord{Start: q.Start, QueryRecord: q}
	*s = ring
}

// ShapeFlights is one shape's retained records, slowest first.
type ShapeFlights struct {
	Shape   string         `json:"shape"`
	Records []FlightRecord `json:"records"`
}

// BackendFlights is every shape one backend has recorded.
type BackendFlights struct {
	Backend string         `json:"backend"`
	Shapes  []ShapeFlights `json:"shapes"`
}

// Report snapshots the shape's row, slowest first.
func (s Slowest) Report(shape string) ShapeFlights {
	row := ShapeFlights{Shape: shape, Records: make([]FlightRecord, 0, len(s))}
	for i := len(s) - 1; i >= 0; i-- {
		row.Records = append(row.Records, s[i])
	}
	return row
}

// WriteFlightReport renders a flight report as text, one block per
// record, slowest first.
func WriteFlightReport(w io.Writer, report []BackendFlights) {
	if len(report) == 0 {
		fmt.Fprintln(w, "no flights recorded")
		return
	}
	for _, b := range report {
		for _, s := range b.Shapes {
			for _, r := range s.Records {
				hit := "miss"
				if r.PlanCacheHit {
					hit = "hit"
				}
				fmt.Fprintf(w, "%s/%s elapsed=%v trace=%d plan-cache=%s |R(q)|=%d bound=%d\n",
					b.Backend, s.Shape, r.Elapsed, r.TraceID, hit, r.RQ, r.Bound)
				for _, st := range r.Stages {
					fmt.Fprintf(w, "  stage %-14s %12v bytes=%d objs=%d\n", st.Stage, st.Wall, st.Bytes, st.Objects)
				}
				for _, d := range r.Devices {
					over := ""
					if r.Bound > 0 && d.Buckets > r.Bound {
						over = fmt.Sprintf("  OVER BOUND +%d", d.Buckets-r.Bound)
					}
					errs := ""
					if d.Err != "" {
						errs = "  err=" + d.Err
					}
					fmt.Fprintf(w, "  device %-3d buckets=%-4d scan=%v%s%s\n", d.Device, d.Buckets, d.Scan, over, errs)
				}
				for _, e := range r.Events {
					fmt.Fprintf(w, "  event +%v %s\n", e.At, e.Msg)
				}
				if r.Err != "" {
					fmt.Fprintf(w, "  err: %s\n", r.Err)
				}
			}
		}
	}
}
