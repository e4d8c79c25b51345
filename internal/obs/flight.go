package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Slow-query flight recorder: a fixed-size ring of the K worst queries
// per (backend, shape), each retaining the full evidence needed to
// diagnose it after the fact — stage breakdown, span events
// (retry/hedge/breaker decisions land there), plan-cache hit/miss, and
// per-device bucket counts against the paper's strict bound
// ceil(|R(q)|/M). Served on /debug/flight and dumpable via
// pmquery -flight.

// DefaultFlightSlots is how many worst queries each shape retains.
const DefaultFlightSlots = 8

// FlightRecord is one retained slow query: the flight recorder's view
// of the query record, ranked by Elapsed.
type FlightRecord struct {
	Start time.Time `json:"start"`
	*QueryRecord
}

// FlightRecorder retains the K slowest queries per shape for one
// backend. All methods are safe for concurrent use and no-op on nil.
type FlightRecorder struct {
	backend string
	slots   int

	mu sync.Mutex
	// shapes holds each shape's ring, sorted ascending by Elapsed so the
	// eviction candidate is always index 0.
	shapes map[string][]FlightRecord
	// floors caches, per shape, the Elapsed a query must beat to enter
	// that shape's full ring (shape → *atomic.Int64). It is only a
	// fast-path hint; Observe re-checks under the lock.
	floors sync.Map
}

// NewFlightRecorder returns a recorder keeping slots records per shape
// (DefaultFlightSlots when slots <= 0).
func NewFlightRecorder(backend string, slots int) *FlightRecorder {
	if slots <= 0 {
		slots = DefaultFlightSlots
	}
	return &FlightRecorder{backend: backend, slots: slots, shapes: make(map[string][]FlightRecord)}
}

// Admits reports whether a query of the given latency could enter the
// shape's ring — a cheap, lock-free pre-check so the fast path skips
// building FlightRecords that would be discarded. A true result is
// advisory; Observe re-checks under the lock.
func (f *FlightRecorder) Admits(shape string, elapsed time.Duration) bool {
	if f == nil {
		return false
	}
	v, ok := f.floors.Load(shape)
	if !ok {
		return true // shape not seen yet (or ring not full): admit
	}
	return int64(elapsed) > v.(*atomic.Int64).Load()
}

// Observe offers a query record; it is kept iff it ranks among the
// shape's K slowest.
func (f *FlightRecorder) Observe(q *QueryRecord) {
	if f == nil {
		return
	}
	rec := FlightRecord{Start: q.Start, QueryRecord: q}
	f.mu.Lock()
	ring := f.shapes[rec.Shape]
	if len(ring) >= f.slots {
		if rec.Elapsed <= ring[0].Elapsed {
			f.mu.Unlock()
			return
		}
		ring = ring[1:]
	}
	// Insert keeping ascending Elapsed order.
	i := sort.Search(len(ring), func(i int) bool { return ring[i].Elapsed > rec.Elapsed })
	ring = append(ring, FlightRecord{})
	copy(ring[i+1:], ring[i:])
	ring[i] = rec
	f.shapes[rec.Shape] = ring
	// Once the ring is full, a query must beat its fastest retained
	// record; until then the shape admits everything (floor 0).
	var floor int64
	if len(ring) >= f.slots {
		floor = int64(ring[0].Elapsed)
	}
	v, _ := f.floors.LoadOrStore(rec.Shape, new(atomic.Int64))
	v.(*atomic.Int64).Store(floor)
	f.mu.Unlock()
}

// Reset discards all retained records.
func (f *FlightRecorder) Reset() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.shapes = make(map[string][]FlightRecord)
	f.floors.Range(func(k, _ any) bool { f.floors.Delete(k); return true })
	f.mu.Unlock()
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

// Report snapshots the recorder: shapes sorted by name, records slowest
// first.
func (f *FlightRecorder) Report() BackendFlights {
	if f == nil {
		return BackendFlights{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := BackendFlights{Backend: f.backend}
	for shape, ring := range f.shapes {
		row := ShapeFlights{Shape: shape, Records: make([]FlightRecord, 0, len(ring))}
		for i := len(ring) - 1; i >= 0; i-- { // ascending ring → slowest first
			row.Records = append(row.Records, ring[i])
		}
		out.Shapes = append(out.Shapes, row)
	}
	sort.Slice(out.Shapes, func(i, j int) bool { return out.Shapes[i].Shape < out.Shapes[j].Shape })
	return out
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
