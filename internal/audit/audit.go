// Package audit turns the paper's optimality theorems into a live
// production invariant. The paper proves that FX is strict optimal for
// a characterised class of query shapes: no device serves more than
// ceil(|R(q)|/M) qualified buckets. The engine executor already
// computes per-device qualified-bucket counts for every retrieval, so
// this package compares them against that bound online, for every
// served query, and aggregates the deviation — violation counts, max
// and mean excess, worst offender device — keyed by *query shape*: the
// set of unspecified fields, i.e. the paper's k classes. A second layer
// tracks per-shape latency SLOs (good/bad counters plus a rolling
// burn-rate) so tail latency attributes to the shapes that cause it.
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
// fields, so Reset can zero them without fighting the monotonic
// Prometheus counters.
type Shape struct {
	shape      string
	queries    uint64
	violations uint64
	sumDev     uint64 // total excess over the bound, across all queries
	maxDev     int
	worstDev   int // device that produced maxDev; -1 before any violation
	bound      int // bound of the most recent audited query
	rq         int
	m          int
	maxBuckets int // largest single-device count ever observed

	good, bad uint64
	window    []bool // ring of recent outcomes; true = bad
	wpos      int
	wlen      int
	wbad      int

	mQueries    *obs.Counter
	mViolations *obs.Counter
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
		shape:    shape,
		worstDev: -1,
		window:   make([]bool, sloWindow),
		mQueries: r.Counter("fxdist_audit_queries_total",
			"Retrievals audited against the strict-optimality bound, per backend and query shape.", bl, sl),
		mViolations: r.Counter("fxdist_audit_violations_total",
			"Retrievals where some device exceeded ceil(|R(q)|/M) qualified buckets.", bl, sl),
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

// Observe audits one finished retrieval from its query record against
// the shape's latency objective slo (zero = none): the merged per-device
// bucket counts against the record's bound. A failed (or degraded)
// retrieval is counted and charged to the SLO but its buckets are not
// judged. It returns the shape's burn rate after this query.
func (st *Shape) Observe(rec *obs.QueryRecord, slo SLO) float64 {
	st.queries++
	st.mQueries.Inc()
	ok := !rec.Failed
	if ok {
		bound := rec.Bound
		st.bound, st.rq, st.m = bound, rec.RQ, len(rec.DeviceBuckets)
		st.mBound.Set(float64(bound))
		worst, worstDev := 0, -1
		for dev, b := range rec.DeviceBuckets {
			if b > st.maxBuckets {
				st.maxBuckets = b
			}
			if d := b - bound; d > worst {
				worst, worstDev = d, dev
			}
		}
		if worst > 0 {
			st.violations++
			st.mViolations.Inc()
			st.sumDev += uint64(worst)
			if worst >= st.maxDev {
				st.maxDev = worst
				st.worstDev = worstDev
				st.mMaxDev.Set(float64(worst))
			}
		}
	}
	if slo.Target <= 0 {
		return 0
	}
	bad := !ok || rec.Elapsed > slo.Target
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
	// MaxDeviation is the largest observed per-device excess over the
	// bound; 0 means every retrieval of this shape was strict optimal.
	MaxDeviation int `json:"max_deviation"`
	// MeanDeviation is the mean excess per audited query (0 deviations
	// included).
	MeanDeviation float64 `json:"mean_deviation"`
	// WorstDevice is the device that produced MaxDeviation, -1 if none.
	WorstDevice int `json:"worst_device"`
	// Bound, RQ and M describe the most recent audited query: the
	// strict-optimality bound ceil(RQ/M), |R(q)| and the device count.
	Bound int `json:"bound"`
	RQ    int `json:"r_q"`
	M     int `json:"m"`
	// MaxBuckets is the largest single-device qualified-bucket count
	// observed for this shape.
	MaxBuckets int `json:"max_device_buckets"`
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
		Shape:        st.shape,
		Queries:      st.queries,
		Violations:   st.violations,
		MaxDeviation: st.maxDev,
		WorstDevice:  st.worstDev,
		Bound:        st.bound,
		RQ:           st.rq,
		M:            st.m,
		MaxBuckets:   st.maxBuckets,
		Good:         st.good,
		Bad:          st.bad,
	}
	if st.queries > 0 {
		sr.MeanDeviation = float64(st.sumDev) / float64(st.queries)
	}
	if slo.Target > 0 {
		sr.SLOTarget, sr.SLOGoal, sr.BurnRate = slo.Target, slo.Goal, st.BurnRate(slo)
	}
	return sr
}

// Reset zeroes the accumulation (the mirrored Prometheus counters stay
// monotonic; gauges drop to zero).
func (st *Shape) Reset() {
	st.queries, st.violations, st.sumDev = 0, 0, 0
	st.maxDev, st.worstDev, st.maxBuckets = 0, -1, 0
	st.bound, st.rq, st.m = 0, 0, 0
	st.good, st.bad = 0, 0
	st.wpos, st.wlen, st.wbad = 0, 0, 0
	for i := range st.window {
		st.window[i] = false
	}
	st.mMaxDev.Set(0)
	st.mBound.Set(0)
	st.mBurn.Set(0)
}
