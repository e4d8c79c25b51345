package telemetry

import (
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"fxdist/internal/audit"
	"fxdist/internal/obs"
)

// The keep policy every backend's store runs on. These were options once
// (a per-log sampling config, a trace-retention setter, a slots
// parameter); no caller outside tests ever set one, so they are
// constants. The capacities that size other packages' data live with
// it: obs.FlightSlots (8 per shape), the bundle tracer's span ring and
// its obs.RetainedTraces (64 kept trees).
const (
	ringCapacity = 1024 // kept records per backend
	traceSpans   = 256  // spans in the bundle's tracer
	headPerShape = 8    // the first K queries of a shape are always kept
	sampleEvery  = 16   // then 1 in N of the shape
)

// cell is everything a cluster remembers about one query shape — the
// paper's query class, the key of every instrument — under one mutex.
// Each /debug view reads its own section.
type cell struct {
	shape string

	mu    sync.Mutex
	slo   audit.SLO      // objective in force: the backend's default unless overridden
	audit *audit.Shape   // bound, placement + SLO audit, its instruments in the registry (/debug/optimality)
	costs obs.ShapeCosts // stage cost aggregates (/debug/hotpath)
	slow  obs.Slowest    // the slowest obs.FlightSlots queries (/debug/flight)
	seen  uint64         // the event sampler's counters (/debug/events stats);
	kept  uint64         // seen also paces the head and the 1-in-N sample
}

// store is one cluster's accumulation point behind every /debug view:
// the per-shape cells and the one ring of kept records. Lock order:
// store.mu before a cell's mutex; the ring's mutex is taken alone. A
// finished query takes neither store.mu nor more than one lock at a
// time.
type store struct {
	// Backend is the label ("memory", "netdist", ...) on every record,
	// report and instrument.
	Backend string
	// Registry is the cluster's metric registry, its /metrics: the
	// cells' audit instruments and the event counters register here.
	Registry *obs.Registry

	mu        sync.Mutex // guards slo, overrides and cell creation
	slo       audit.SLO
	overrides map[string]audit.SLO
	// cells is copy-on-write (shapes are few and appear once), so the
	// per-step lookup takes no lock and allocates nothing.
	cells atomic.Pointer[map[string]*cell]

	ringMu sync.Mutex
	ring   []Event // a slot is empty until its record is set
	next   int
	subs   map[chan Event]struct{}
}

// newStore builds the store of backend's cluster over registry r. The
// event counters are the cells' seen and kept (LogStats), summed when
// /metrics is scraped.
func newStore(r *obs.Registry, backend string, slo audit.SLO) *store {
	bl := obs.L("backend", backend)
	s := &store{
		Backend:   backend,
		Registry:  r,
		slo:       slo,
		overrides: make(map[string]audit.SLO),
		ring:      make([]Event, ringCapacity),
		subs:      make(map[chan Event]struct{}),
	}
	s.cells.Store(&map[string]*cell{})
	r.CounterFunc("fxdist_events_seen_total",
		"Wide events offered to the query log, per backend.",
		func() uint64 { return s.LogStats().Seen }, bl)
	r.CounterFunc("fxdist_events_kept_total",
		"Wide events kept by head sampling or an always-keep rule.",
		func() uint64 { return s.LogStats().Kept }, bl)
	r.CounterFunc("fxdist_events_dropped_total",
		"Wide events dropped by head sampling.",
		func() uint64 { st := s.LogStats(); return st.Seen - st.Kept }, bl)
	return s
}

// cell returns shape's cell, creating it on first sight.
func (s *store) cell(shape string) *cell {
	if c := (*s.cells.Load())[shape]; c != nil {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.cells.Load()
	if c := old[shape]; c != nil {
		return c
	}
	slo, pinned := s.overrides[shape]
	if !pinned {
		slo = s.slo
	}
	c := &cell{shape: shape, slo: slo}
	c.audit = audit.NewShape(s.Registry, s.Backend, shape, &c.mu, &c.slo)
	cells := maps.Clone(old)
	cells[shape] = c
	s.cells.Store(&cells)
	return c
}

// each runs f on every cell, sorted by shape, under the cell's mutex.
func (s *store) each(f func(c *cell)) {
	m := *s.cells.Load()
	cells := make([]*cell, 0, len(m))
	for _, c := range m {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].shape < cells[j].shape })
	for _, c := range cells {
		c.mu.Lock()
		f(c)
		c.mu.Unlock()
	}
}

// Audit is the first reporting step, run inside the audit stage it is
// measured by (so it sees the latency so far): the cluster's whole-query
// metrics, then the record's verdict, mismatches and latency against
// the shape's objective; per-device detail (rec.Devices) is not built yet.
func (in *Instruments) Audit(rec *obs.QueryRecord) {
	in.Metrics.Observe(rec)
	c := in.cell(rec.Shape)
	c.mu.Lock()
	c.audit.Observe(rec, c.slo)
	c.mu.Unlock()
}

// Decision is the store's verdict on one finished query: Kept admits
// its record to the event ring — and, the same decision, its trace tree
// to retention (obs.Tracer.Retain with rec.Keep[0]) — and Flight to the
// shape's slowest-8. Either asks the engine for per-device detail.
type Decision struct {
	Kept   bool
	Flight bool
}

// keepReasons are the keep reasons in Decide's order; a record kept for
// one reason shares its one-element window, read-only.
var keepReasons = [...]string{obs.KeepError, obs.KeepSlow, obs.KeepBound, obs.KeepPlace, obs.KeepHead, obs.KeepSample}

// Decide is the one keep decision, made once the audit stage has closed
// and on the record's verdicts alone (shape, latency, failure, bound
// violation, placement mismatch), before any per-device detail exists,
// so dropped queries never pay for it. The rules, in order:
//
//	error, slow, bound, placement   always kept; the reasons stack in that order
//	head                            else the shape's first headPerShape queries
//	sample                          else every sampleEvery-th query of the shape
//	(flight)                        independently: faster than none of the shape's
//	                                slowest obs.FlightSlots → not a flight
//
// It counts the query as seen and fills rec.Slow, rec.SLOTarget and
// rec.Keep; the record must then be handed to Commit.
func (s *store) Decide(rec *obs.QueryRecord) Decision {
	c := s.cell(rec.Shape)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen++
	dec := Decision{Flight: c.slow.Admits(rec.Elapsed)}

	if target := c.slo.Target; target > 0 && rec.Elapsed > target {
		rec.Slow, rec.SLOTarget = true, target
	}
	var reasons []string
	for i, on := range [...]bool{rec.Failed, rec.Slow, rec.BoundViolation, len(rec.MismatchedDevices) > 0} {
		if on && reasons == nil {
			reasons = keepReasons[i : i+1 : i+1]
		} else if on {
			reasons = append(reasons, keepReasons[i]) // the window is full: a copy
		}
	}
	switch {
	case reasons != nil:
	case c.seen <= headPerShape:
		reasons = keepReasons[4:5:5]
	case c.seen%sampleEvery == 0:
		reasons = keepReasons[5:6:6]
	default:
		return dec
	}
	rec.Keep = reasons
	c.kept++
	dec.Kept = true
	return dec
}

// Commit stores the sealed record as Decide ruled: its stage costs
// always, the record itself in the shape's slowest-8 and the event ring
// (and the live ?follow=1 feeds) when decided. The record must not
// change afterwards.
func (s *store) Commit(rec *obs.QueryRecord, dec Decision) {
	c := s.cell(rec.Shape)
	c.mu.Lock()
	c.costs.Observe(rec)
	if dec.Flight {
		c.slow.Offer(rec)
	}
	c.mu.Unlock()
	if !dec.Kept {
		return
	}
	ev := Event{Time: rec.Start, QueryRecord: rec}
	s.ringMu.Lock()
	s.ring[s.next] = ev
	s.next = (s.next + 1) % len(s.ring)
	for ch := range s.subs {
		select {
		case ch <- ev:
		default: // slow follower: drop rather than stall the hot path
		}
	}
	s.ringMu.Unlock()
}

// ObserveSamples records auxiliary stage samples of a shape (netdist's
// per-round-trip wire stages) without counting a query.
func (s *store) ObserveSamples(shape string, samples []obs.StageSample) {
	c := s.cell(shape)
	c.mu.Lock()
	c.costs.Add(samples)
	c.mu.Unlock()
}

// BurnRate is shape's current SLO burn rate — the one number the gate's
// admission control reads per request; 0 for a shape never served.
func (s *store) BurnRate(shape string) float64 {
	c := (*s.cells.Load())[shape]
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.audit.BurnRate(c.slo)
}

// SetSLO replaces the backend's default latency objective (per-shape
// overrides are kept).
func (s *store) SetSLO(slo audit.SLO) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slo = slo
	for shape, c := range *s.cells.Load() {
		if _, pinned := s.overrides[shape]; !pinned {
			c.mu.Lock()
			c.slo = slo
			c.mu.Unlock()
		}
	}
}

// SetShapeSLO overrides the latency objective for one shape.
func (s *store) SetShapeSLO(shape string, slo audit.SLO) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.overrides[shape] = slo
	if c := (*s.cells.Load())[shape]; c != nil {
		c.mu.Lock()
		c.slo = slo
		c.mu.Unlock()
	}
}

// AdoptSLOs takes from's objectives, its default and every per-shape
// override, as this store's own: a rescale's new epoch keeps the SLOs
// its cluster was configured with.
func (s *store) AdoptSLOs(from *Instruments) {
	from.mu.Lock()
	slo, overrides := from.slo, maps.Clone(from.overrides)
	from.mu.Unlock()
	s.SetSLO(slo)
	for shape, o := range overrides {
		s.SetShapeSLO(shape, o)
	}
}

// AuditReport snapshots the optimality audit of every shape served,
// sorted by shape.
func (s *store) AuditReport() audit.BackendReport {
	rep := audit.BackendReport{Backend: s.Backend}
	s.each(func(c *cell) { rep.Shapes = append(rep.Shapes, c.audit.Report(c.slo)) })
	return rep
}

// CostReport snapshots the stage costs of every shape profiled since the
// last ResetCosts, sorted by shape.
func (s *store) CostReport() obs.BackendCost {
	rep := obs.BackendCost{Backend: s.Backend}
	s.each(func(c *cell) {
		if !c.costs.Empty() {
			rep.Shapes = append(rep.Shapes, c.costs.Report(c.shape))
		}
	})
	return rep
}

// FlightReport snapshots the slowest queries of every shape, sorted by
// shape, records slowest first.
func (s *store) FlightReport() obs.BackendFlights {
	rep := obs.BackendFlights{Backend: s.Backend}
	s.each(func(c *cell) {
		if len(c.slow) > 0 {
			rep.Shapes = append(rep.Shapes, c.slow.Report(c.shape))
		}
	})
	return rep
}

// ResetCosts discards every cell's accumulated stage costs.
func (s *store) ResetCosts() { s.each(func(c *cell) { c.costs = obs.ShapeCosts{} }) }
