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
// telemetry package's per-shape cell, which owns the lock. Every counter
// it keeps is mirrored into the obs metric registry (labels backend +
// shape), and the whole state renders on /debug/optimality (JSON or
// text) and through the facade's OptimalityReport.
package audit

import (
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
// guarded by the owning telemetry cell's mutex; the obs instruments are
// internally atomic and mirrored for scraping only — reports read the
// fields.
type Shape struct {
	shape  string
	window []bool // ring of recent SLO outcomes; true = bad

	queries, violations, mismatches uint64
	bound, rq, m, maxLoad           int // the latest judged query's plan's numbers
	worstDev, mismatchDev           int // of the latest violation and mismatch; -1 before any
	good, bad                       uint64
	wpos, wlen, wbad                int // window cursor, fill and bad outcomes

	mQueries    *obs.Counter
	mViolations *obs.Counter
	mMismatches *obs.Counter
	mMaxDev     *obs.Gauge
	mBound      *obs.Gauge
	mGood       *obs.Counter
	mBad        *obs.Counter
	mBurn       *obs.Gauge
}

// NewShape returns the empty audit state of one backend's query shape,
// registering (or reviving) its mirrored instruments.
func NewShape(backend, shape string) *Shape {
	r := obs.Default()
	bl, sl := obs.L("backend", backend), obs.L("shape", shape)
	return &Shape{
		shape:       shape,
		window:      make([]bool, sloWindow),
		worstDev:    -1,
		mismatchDev: -1,
		mQueries: r.Counter("fxdist_audit_queries_total",
			"Retrievals audited against the strict-optimality bound, per backend and query shape.", bl, sl),
		mViolations: r.Counter("fxdist_audit_violations_total",
			"Retrievals where some device exceeded ceil(|R(q)|/M) qualified buckets.", bl, sl),
		mMismatches: r.Counter("fxdist_audit_mismatches_total",
			"Retrievals where some device answered for other qualified buckets than the plan gives it.", bl, sl),
		mMaxDev: r.Gauge("fxdist_audit_max_deviation_buckets",
			"Largest observed per-device excess over the strict-optimality bound.", bl, sl),
		mBound: r.Gauge("fxdist_audit_bound_buckets",
			"Strict-optimality bound ceil(|R(q)|/M) of the most recent audited query.", bl, sl),
		mGood: r.Counter("fxdist_slo_good_total",
			"Queries that met the shape's latency objective.", bl, sl),
		mBad: r.Counter("fxdist_slo_bad_total",
			"Queries that missed the shape's latency objective (failures included).", bl, sl),
		mBurn: r.Gauge("fxdist_slo_burn_rate",
			"Rolling bad-fraction divided by the error budget (1-goal); >1 burns budget faster than allowed.", bl, sl),
	}
}

// Observe counts one finished retrieval from its query record, which
// carries its plan's verdict, under the shape's latency objective slo
// (zero = none). A failed (or degraded) retrieval is counted with its
// mismatches and charged to the SLO, but not judged against the bound.
// It returns the shape's burn rate after this query.
func (st *Shape) Observe(rec *obs.QueryRecord, slo SLO) float64 {
	st.queries++
	st.mQueries.Inc()
	if len(rec.MismatchedDevices) > 0 {
		st.mismatches++
		st.mismatchDev = rec.MismatchedDevices[0]
		st.mMismatches.Inc()
	}
	if !rec.Failed {
		st.bound, st.rq, st.m, st.maxLoad = rec.Bound, rec.RQ, len(rec.DeviceBuckets), rec.MaxDeviceBuckets
		st.mBound.Set(float64(rec.Bound))
		if rec.BoundViolation {
			st.violations++
			st.worstDev = rec.WorstDevice
			st.mViolations.Inc()
			st.mMaxDev.Set(float64(rec.MaxDeviceBuckets - rec.Bound))
		}
	}
	if slo.Target <= 0 {
		return 0
	}
	bad := rec.Failed || rec.Elapsed > slo.Target
	if bad {
		st.bad++
		st.mBad.Inc()
	} else {
		st.good++
		st.mGood.Inc()
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
	burn := st.BurnRate(slo)
	st.mBurn.Set(burn)
	return burn
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
		Queries:        st.queries,
		Violations:     st.violations,
		WorstDevice:    st.worstDev,
		Bound:          st.bound,
		RQ:             st.rq,
		M:              st.m,
		MaxBuckets:     st.maxLoad,
		Mismatches:     st.mismatches,
		MismatchDevice: st.mismatchDev,
		Good:           st.good,
		Bad:            st.bad,
	}
	if st.violations > 0 {
		sr.MaxDeviation = st.maxLoad - st.bound
		sr.MeanDeviation = float64(st.violations) * float64(sr.MaxDeviation) / float64(st.queries)
	}
	if slo.Target > 0 {
		sr.SLOTarget, sr.SLOGoal, sr.BurnRate = slo.Target, slo.Goal, st.BurnRate(slo)
	}
	return sr
}
