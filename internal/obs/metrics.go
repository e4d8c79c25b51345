package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down (in-flight requests,
// imbalance ratios, queue depths).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; safe under concurrent Add/Set).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram of non-negative observations
// (typically latencies in seconds). Bucket b counts observations v with
// bounds[b-1] < v <= bounds[b]; an implicit +Inf bucket catches the
// rest. Observe is lock-free and allocation-free.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
	// exemplars holds, per bucket, the most recent trace-linked
	// observation (tail-sampled queries only) — the hook that lets an
	// operator jump from a latency bucket to a retained trace tree.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one observed value to the trace that produced it.
type Exemplar struct {
	Value   float64   `json:"value"`
	TraceID uint64    `json:"trace_id"`
	Time    time.Time `json:"time"`
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// bucketIndex returns the index of the first bound >= v (the +Inf
// bucket when v exceeds every bound).
func (h *Histogram) bucketIndex(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// SetExemplar attaches an exemplar for value v to its bucket without
// observing it — callers pair it with a regular Observe of the same
// value. The latest exemplar per bucket wins. No-op when traceID is 0.
func (h *Histogram) SetExemplar(v float64, traceID uint64) {
	if traceID == 0 {
		return
	}
	h.exemplars[h.bucketIndex(v)].Store(&Exemplar{Value: v, TraceID: traceID, Time: time.Now()})
}

// ObserveSince records the elapsed time since t0, in seconds.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot returns a consistent-enough copy for rendering (individual
// bucket loads are atomic; cross-bucket skew is bounded by in-flight
// observations).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		if ex := h.exemplars[i].Load(); ex != nil {
			if s.Exemplars == nil {
				s.Exemplars = make([]*Exemplar, len(h.counts))
			}
			s.Exemplars[i] = ex
		}
	}
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation within the containing bucket, as histogram_quantile
// does. It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// HistogramSnapshot is a point-in-time copy of a Histogram. Counts has
// one extra element for the +Inf bucket. Exemplars, when non-nil, is
// parallel to Counts (nil slots mean the bucket has no exemplar).
type HistogramSnapshot struct {
	Bounds    []float64
	Counts    []uint64
	Count     uint64
	Sum       float64
	Exemplars []*Exemplar `json:",omitempty"`
}

// Quantile estimates the q-quantile by linear interpolation within the
// containing bucket. Observations in the +Inf bucket report the largest
// finite bound. It returns 0 when the snapshot is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum uint64
	for b, n := range s.Counts {
		prev := float64(cum)
		cum += n
		if float64(cum) < target || n == 0 {
			continue
		}
		if b >= len(s.Bounds) { // +Inf bucket
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if b > 0 {
			lower = s.Bounds[b-1]
		}
		upper := s.Bounds[b]
		return lower + (upper-lower)*(target-prev)/float64(n)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// ExpBuckets returns n strictly increasing bucket bounds starting at
// start and multiplying by factor: start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefLatencyBuckets spans 1µs .. ~8.4s in powers of two — wide enough
// for both main-memory device scans and network round trips.
var DefLatencyBuckets = ExpBuckets(1e-6, 2, 24)
