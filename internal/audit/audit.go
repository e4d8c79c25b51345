// Package audit turns the paper's optimality theorems into a live
// production invariant. The paper proves that FX is strict optimal for
// a characterised class of query shapes: no device serves more than
// ceil(|R(q)|/M) qualified buckets. That verdict is a fact of the
// allocation and the *query shape* (the set of unspecified fields, the
// paper's k classes), so the engine's plan decides it and every query
// record carries it. This package counts, per shape, the queries, the
// violations with their excess and worst device, and the placement
// mismatches: some device answered for other buckets than the plan
// gives it (a misplaced bucket, a short answer, a stale epoch — never
// the allocator). A second layer tracks per-shape latency SLOs
// (good/bad counters plus a rolling burn-rate).
//
// One Shape exists per (backend, query shape): the audit section of the
// telemetry package's per-shape cell, which owns the lock. Its counters
// are instruments of the cell's metric registry (labels backend +
// shape) and its gauges read its fields when /metrics is scraped; the
// whole state renders on /debug/optimality (JSON or text) and through
// the facade's OptimalityReport.
package audit

import (
	"sync"
	"time"

	"fxdist/internal/obs"
)

// Bound returns the paper's strict-optimality bound ceil(rq/m) for a
// query with |R(q)| = rq qualified buckets on m devices — the system's
// one implementation of it; plans carry its result to every consumer.
func Bound(rq, m int) int {
	if m <= 0 {
		return 0
	}
	return (rq + m - 1) / m
}

// SLO is a per-shape latency objective: at least Goal of the shape's
// queries must complete within Target. Failed retrievals always count
// against the objective. The zero SLO disables tracking.
type SLO struct {
	// Target is the latency objective for one query.
	Target time.Duration
	// Goal is the fraction of queries that must meet Target (e.g. 0.99);
	// 1-Goal is the error budget the burn rate is measured against.
	Goal float64
}

// sloWindow is the rolling window (in queries, per shape) the burn-rate
// gauge is computed over.
const sloWindow = 512

// Shape is one (backend, shape) audit accumulation. Its fields are
// guarded by the owning telemetry cell's mutex; its counters are the
// registry's own (atomic), which reports read.
type Shape struct {
	shape  string
	window []bool // ring of recent SLO outcomes; true = bad

	queries, violations, mismatches *obs.Counter
	good, bad                       *obs.Counter
	bound, rq, m, maxLoad           int // the latest judged query's plan's numbers
	worstDev, mismatchDev           int // of the latest violation and mismatch; -1 before any
	wpos, wlen, wbad                int // window cursor, fill and bad outcomes
}

// NewShape returns the empty audit state of one backend's query shape,
// registering its instruments in r. mu is the owning cell's mutex and
// slo the objective in force there: the gauges take mu to read the
// shape when /metrics is scraped.
func NewShape(r *obs.Registry, backend, shape string, mu sync.Locker, slo *SLO) *Shape {
	bl, sl := obs.L("backend", backend), obs.L("shape", shape)
	st := &Shape{
		shape:       shape,
		window:      make([]bool, sloWindow),
		worstDev:    -1,
		mismatchDev: -1,
		queries: r.Counter("fxdist_audit_queries_total",
			"Retrievals audited against the strict-optimality bound, per backend and query shape.", bl, sl),
		violations: r.Counter("fxdist_audit_violations_total",
			"Retrievals where some device exceeded ceil(|R(q)|/M) qualified buckets.", bl, sl),
		mismatches: r.Counter("fxdist_audit_mismatches_total",
			"Retrievals where some device answered for other qualified buckets than the plan gives it.", bl, sl),
		good: r.Counter("fxdist_slo_good_total",
			"Queries that met the shape's latency objective.", bl, sl),
		bad: r.Counter("fxdist_slo_bad_total",
			"Queries that missed the shape's latency objective (failures included).", bl, sl),
	}
	read := func(f func() float64) func() float64 {
		return func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return f()
		}
	}
	r.GaugeFunc("fxdist_audit_max_deviation_buckets",
		"Largest observed per-device excess over the strict-optimality bound.",
		read(func() float64 { return float64(st.Report(SLO{}).MaxDeviation) }), bl, sl)
	r.GaugeFunc("fxdist_audit_bound_buckets",
		"Strict-optimality bound ceil(|R(q)|/M) of the most recent audited query.",
		read(func() float64 { return float64(st.bound) }), bl, sl)
	r.GaugeFunc("fxdist_slo_burn_rate",
		"Rolling bad-fraction divided by the error budget (1-goal); >1 burns budget faster than allowed.",
		read(func() float64 { return st.BurnRate(*slo) }), bl, sl)
	return st
}

// Observe counts one finished retrieval from its query record, which
// carries its plan's verdict, under the shape's latency objective slo
// (zero = none). A failed (or degraded) retrieval is counted with its
// mismatches and charged to the SLO, but not judged against the bound.
func (st *Shape) Observe(rec *obs.QueryRecord, slo SLO) {
	st.queries.Inc()
	if len(rec.MismatchedDevices) > 0 {
		st.mismatches.Inc()
		st.mismatchDev = rec.MismatchedDevices[0]
	}
	if !rec.Failed {
		st.bound, st.rq, st.m, st.maxLoad = rec.Bound, rec.RQ, len(rec.DeviceBuckets), rec.MaxDeviceBuckets
		if rec.BoundViolation {
			st.violations.Inc()
			st.worstDev = rec.WorstDevice
		}
	}
	if slo.Target <= 0 {
		return
	}
	bad := rec.Failed || rec.Elapsed > slo.Target
	if bad {
		st.bad.Inc()
	} else {
		st.good.Inc()
	}
	if st.wlen < len(st.window) {
		st.wlen++
	} else if st.window[st.wpos] {
		st.wbad--
	}
	st.window[st.wpos] = bad
	if bad {
		st.wbad++
	}
	st.wpos = (st.wpos + 1) % len(st.window)
}

// BurnRate is the rolling bad-fraction over slo's error budget; >1 means
// the shape is burning budget faster than the goal allows. Zero with no
// objective or no judged query.
func (st *Shape) BurnRate(slo SLO) float64 {
	if slo.Target <= 0 || st.wlen == 0 {
		return 0
	}
	budget := 1 - slo.Goal
	if budget <= 0 {
		budget = 1e-9 // goal of 1.0: any miss burns "infinitely" fast
	}
	return (float64(st.wbad) / float64(st.wlen)) / budget
}

// ShapeReport is one (backend, shape) row of an optimality report.
type ShapeReport struct {
	// Shape is the query-shape key: 's' per specified field, '*' per
	// unspecified one (the paper's query class).
	Shape string `json:"shape"`
	// Queries is the number of audited retrievals of this shape.
	Queries uint64 `json:"queries"`
	// Violations counts retrievals where some device exceeded the bound.
	Violations uint64 `json:"violations"`
	// MaxDeviation is the busiest device's excess over the bound; 0
	// means every retrieval of this shape was strict optimal.
	MaxDeviation int `json:"max_deviation"`
	// MeanDeviation is the mean excess per audited query (0 deviations
	// included).
	MeanDeviation float64 `json:"mean_deviation"`
	// WorstDevice is the busiest device of the latest violation, -1 if
	// none.
	WorstDevice int `json:"worst_device"`
	// Bound, RQ and M describe the most recent audited query: the
	// strict-optimality bound ceil(RQ/M), |R(q)| and the device count.
	Bound int `json:"bound"`
	RQ    int `json:"r_q"`
	M     int `json:"m"`
	// MaxBuckets is the busiest device's share of every query of the
	// shape. Mismatches counts retrievals where some device answered for
	// other buckets than the plan gives it; MismatchDevice is the first
	// such device of the latest, -1 if none.
	MaxBuckets     int    `json:"max_device_buckets"`
	Mismatches     uint64 `json:"mismatches"`
	MismatchDevice int    `json:"-"`
	// SLO state; zero SLOTarget means no objective is configured.
	SLOTarget time.Duration `json:"slo_target_ns,omitempty"`
	SLOGoal   float64       `json:"slo_goal,omitempty"`
	Good      uint64        `json:"slo_good,omitempty"`
	Bad       uint64        `json:"slo_bad,omitempty"`
	// BurnRate is the rolling bad-fraction over the error budget; >1
	// means the shape is burning budget faster than the goal allows.
	BurnRate float64 `json:"slo_burn_rate,omitempty"`
}

// BackendReport is every shape one backend has served.
type BackendReport struct {
	Backend string        `json:"backend"`
	Shapes  []ShapeReport `json:"shapes"`
}

// Report snapshots the shape's row under the objective slo in force.
func (st *Shape) Report(slo SLO) ShapeReport {
	sr := ShapeReport{
		Shape:          st.shape,
		Queries:        st.queries.Value(),
		Violations:     st.violations.Value(),
		WorstDevice:    st.worstDev,
		Bound:          st.bound,
		RQ:             st.rq,
		M:              st.m,
		MaxBuckets:     st.maxLoad,
		Mismatches:     st.mismatches.Value(),
		MismatchDevice: st.mismatchDev,
		Good:           st.good.Value(),
		Bad:            st.bad.Value(),
	}
	if sr.Violations > 0 {
		sr.MaxDeviation = st.maxLoad - st.bound
		sr.MeanDeviation = float64(sr.Violations) * float64(sr.MaxDeviation) / float64(sr.Queries)
	}
	if slo.Target > 0 {
		sr.SLOTarget, sr.SLOGoal, sr.BurnRate = slo.Target, slo.Goal, st.BurnRate(slo)
	}
	return sr
}
