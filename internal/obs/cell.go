package obs

import (
	"maps"
	"sort"
	"sync"
)

// The keep policy every backend's bundle runs on. These were options
// once (a per-log sampling config, a trace-retention setter, a slots
// parameter); no caller outside tests ever set one, so they are
// constants, beside FlightSlots (8 per shape) and RetainedTraces (64
// kept trees).
const (
	ringCapacity = 1024 // kept records per backend
	traceSpans   = 256  // spans in the bundle's tracer
	headPerShape = 8    // the first K queries of a shape are always kept
	sampleEvery  = 16   // then 1 in N of the shape
)

// cell is everything a cluster remembers about one query shape — the
// paper's query class, the key of every instrument — under one mutex.
// Each /debug view reads its own section; the shape's /metrics series
// read the audit section.
type cell struct {
	shape string

	mu    sync.Mutex
	slo   SLO        // objective in force: the backend's default unless overridden
	audit shapeAudit // bound, placement + SLO audit (/debug/optimality); its queries are the sampler's seen
	costs shapeCosts // stage cost aggregates (/debug/hotpath)
	slow  slowest    // the slowest FlightSlots queries (/debug/flight)
	kept  uint64     // queries the keep decision kept (/debug/events stats)
}

// locked wraps f to run under mu: a callback instrument reading a cell.
func locked[T any](mu *sync.Mutex, f func() T) func() T {
	return func() T {
		mu.Lock()
		defer mu.Unlock()
		return f()
	}
}

// register puts the cell's audit series in r, labelled by backend and
// shape; each reads the cell under its mutex when /metrics is scraped.
func (c *cell) register(r *Registry, backend string) {
	labels := []Label{L("backend", backend), L("shape", c.shape)}
	a := &c.audit
	for _, n := range [...]struct {
		name, help string
		v          *uint64
	}{
		{"fxdist_audit_queries_total", "Retrievals audited against the strict-optimality bound, per backend and query shape.", &a.queries},
		{"fxdist_audit_violations_total", "Retrievals where some device exceeded ceil(|R(q)|/M) qualified buckets.", &a.violations},
		{"fxdist_audit_mismatches_total", "Retrievals where some device answered for other qualified buckets than the plan gives it.", &a.mismatches},
		{"fxdist_slo_good_total", "Queries that met the shape's latency objective.", &a.good},
		{"fxdist_slo_bad_total", "Queries that missed the shape's latency objective (failures included).", &a.bad},
	} {
		r.CounterFunc(n.name, n.help, locked(&c.mu, func() uint64 { return *n.v }), labels...)
	}
	r.GaugeFunc("fxdist_audit_max_deviation_buckets",
		"Largest observed per-device excess over the strict-optimality bound.",
		locked(&c.mu, func() float64 { return float64(a.maxDeviation()) }), labels...)
	r.GaugeFunc("fxdist_audit_bound_buckets",
		"Strict-optimality bound ceil(|R(q)|/M) of the most recent audited query.",
		locked(&c.mu, func() float64 { return float64(a.bound) }), labels...)
	r.GaugeFunc("fxdist_slo_burn_rate",
		"Rolling bad-fraction divided by the error budget (1-goal); >1 burns budget faster than allowed.",
		locked(&c.mu, func() float64 { return a.burnRate(c.slo) }), labels...)
}

// cell returns shape's cell, creating it on first sight.
func (in *Instruments) cell(shape string) *cell {
	if c := (*in.cells.Load())[shape]; c != nil {
		return c
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	old := *in.cells.Load()
	if c := old[shape]; c != nil {
		return c
	}
	slo, pinned := in.overrides[shape]
	if !pinned {
		slo = in.slo
	}
	c := &cell{shape: shape, slo: slo, audit: newShapeAudit()}
	c.register(in.Registry, in.Backend)
	cells := maps.Clone(old)
	cells[shape] = c
	in.cells.Store(&cells)
	return c
}

// each runs f on every cell, sorted by shape, under the cell's mutex.
func (in *Instruments) each(f func(c *cell)) {
	m := *in.cells.Load()
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
// the shape's objective; per-device detail (rec.Devices) is not built
// yet. It counts the query — the shape's one count, read by
// /debug/optimality and /debug/events alike — and returns its number
// among the shape's queries, which Decide paces the head and the sample
// on.
func (in *Instruments) Audit(rec *QueryRecord) (n uint64) {
	in.Metrics.Observe(rec)
	c := in.cell(rec.Shape)
	c.mu.Lock()
	c.audit.observe(rec, c.slo)
	n = c.audit.queries
	c.mu.Unlock()
	return n
}

// Decision is the bundle's verdict on one finished query: Kept admits
// its record to the event ring — and, the same decision, its trace tree
// to retention (Tracer.Retain with rec.Keep[0]) — and Flight to the
// shape's slowest-8. Either asks the engine for per-device detail.
type Decision struct {
	Kept   bool
	Flight bool
}

// keepReasons are the keep reasons in Decide's order; a record kept for
// one reason shares its one-element window, read-only.
var keepReasons = [...]string{KeepError, KeepSlow, KeepBound, KeepPlace, KeepHead, KeepSample}

// Decide is the one keep decision, made once the audit stage has closed
// and on the record's verdicts alone (shape, latency, failure, bound
// violation, placement mismatch), before any per-device detail exists,
// so dropped queries never pay for it. n is the query's number among
// its shape's, as Audit returned it. The rules, in order:
//
//	error, slow, bound, placement   always kept; the reasons stack in that order
//	head                            else the shape's first headPerShape queries
//	sample                          else every sampleEvery-th query of the shape
//	(flight)                        independently: faster than none of the shape's
//	                                slowest FlightSlots → not a flight
//
// It fills rec.Slow, rec.SLOTarget and rec.Keep; the record must then be
// handed to Commit.
func (in *Instruments) Decide(rec *QueryRecord, n uint64) Decision {
	c := in.cell(rec.Shape)
	c.mu.Lock()
	defer c.mu.Unlock()
	dec := Decision{Flight: c.slow.admits(rec.Elapsed)}

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
	case n <= headPerShape:
		reasons = keepReasons[4:5:5]
	case n%sampleEvery == 0:
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
func (in *Instruments) Commit(rec *QueryRecord, dec Decision) {
	c := in.cell(rec.Shape)
	c.mu.Lock()
	c.costs.observe(rec)
	if dec.Flight {
		c.slow.offer(rec)
	}
	c.mu.Unlock()
	if !dec.Kept {
		return
	}
	ev := Event{Time: rec.Start, QueryRecord: rec}
	in.ringMu.Lock()
	in.ring[in.next] = ev
	in.next = (in.next + 1) % len(in.ring)
	for ch := range in.subs {
		select {
		case ch <- ev:
		default: // slow follower: drop rather than stall the hot path
		}
	}
	in.ringMu.Unlock()
}

// ObserveSamples records auxiliary stage samples of a shape (netdist's
// per-round-trip wire stages) without counting a query.
func (in *Instruments) ObserveSamples(shape string, samples []StageSample) {
	c := in.cell(shape)
	c.mu.Lock()
	c.costs.add(samples)
	c.mu.Unlock()
}

// BurnRate is shape's current SLO burn rate — the one number the gate's
// admission control reads per request; 0 for a shape never served.
func (in *Instruments) BurnRate(shape string) float64 {
	c := (*in.cells.Load())[shape]
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.audit.burnRate(c.slo)
}

// SetSLO replaces the backend's default latency objective (per-shape
// overrides are kept).
func (in *Instruments) SetSLO(slo SLO) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.slo = slo
	for shape, c := range *in.cells.Load() {
		if _, pinned := in.overrides[shape]; !pinned {
			c.mu.Lock()
			c.slo = slo
			c.mu.Unlock()
		}
	}
}

// SetShapeSLO overrides the latency objective for one shape.
func (in *Instruments) SetShapeSLO(shape string, slo SLO) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.overrides[shape] = slo
	if c := (*in.cells.Load())[shape]; c != nil {
		c.mu.Lock()
		c.slo = slo
		c.mu.Unlock()
	}
}

// AdoptSLOs takes from's objectives, its default and every per-shape
// override, as this bundle's own: a rescale's new epoch keeps the SLOs
// its cluster was configured with.
func (in *Instruments) AdoptSLOs(from *Instruments) {
	from.mu.Lock()
	slo, overrides := from.slo, maps.Clone(from.overrides)
	from.mu.Unlock()
	in.SetSLO(slo)
	for shape, o := range overrides {
		in.SetShapeSLO(shape, o)
	}
}

// AuditReport snapshots the optimality audit of every shape served,
// sorted by shape.
func (in *Instruments) AuditReport() BackendAudit {
	rep := BackendAudit{Backend: in.Backend}
	in.each(func(c *cell) { rep.Shapes = append(rep.Shapes, c.audit.report(c.shape, c.slo)) })
	return rep
}

// CostReport snapshots the stage costs of every shape profiled since the
// last ResetCosts, sorted by shape.
func (in *Instruments) CostReport() BackendCost {
	rep := BackendCost{Backend: in.Backend}
	in.each(func(c *cell) {
		if !c.costs.empty() {
			rep.Shapes = append(rep.Shapes, c.costs.report(c.shape))
		}
	})
	return rep
}

// FlightReport snapshots the slowest queries of every shape, sorted by
// shape, records slowest first.
func (in *Instruments) FlightReport() BackendFlights {
	rep := BackendFlights{Backend: in.Backend}
	in.each(func(c *cell) {
		if len(c.slow) > 0 {
			rep.Shapes = append(rep.Shapes, c.slow.report(c.shape))
		}
	})
	return rep
}

// ResetCosts discards every cell's accumulated stage costs.
func (in *Instruments) ResetCosts() { in.each(func(c *cell) { c.costs = shapeCosts{} }) }
