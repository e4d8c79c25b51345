package obs

import (
	"fmt"
	"io"
	"time"
)

// The optimality audit turns the paper's theorems into a live production
// invariant. FX is strict optimal for a characterised class of query
// shapes: no device serves more than ceil(|R(q)|/M) qualified buckets.
// That verdict is a fact of the allocation and the query shape, so the
// engine's plan decides it and every query record carries it. A cell's
// audit section counts, per shape, the queries, the violations with
// their excess and worst device, and the placement mismatches: some
// device answered for other buckets than the plan gives it (a misplaced
// bucket, a short answer, a stale epoch — never the allocator). It also
// tracks the shape's latency SLO: good/bad counts and a rolling burn
// rate. It renders on /debug/optimality and the cluster's
// OptimalityReport.

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

// shapeAudit is the audit section of a cell, guarded by the cell's
// mutex; the cell's counters and gauges read it when /metrics is
// scraped.
type shapeAudit struct {
	// queries is the shape's one query count: the audit's, the event
	// sampler's seen and the pace of its head and sample.
	queries, violations, mismatches uint64
	good, bad                       uint64
	bound, rq, m, maxLoad           int    // the latest judged query's plan's numbers
	worstDev, mismatchDev           int    // of the latest violation and mismatch; -1 before any
	window                          []bool // ring of recent SLO outcomes; true = bad
	wpos, wlen, wbad                int    // window cursor, fill and bad outcomes
}

// newShapeAudit returns a shape's empty audit section.
func newShapeAudit() shapeAudit {
	return shapeAudit{worstDev: -1, mismatchDev: -1, window: make([]bool, sloWindow)}
}

// observe counts one finished retrieval from its query record, which
// carries its plan's verdict, under the shape's latency objective slo
// (zero = none). A failed (or degraded) retrieval is counted with its
// mismatches and charged to the SLO, but not judged against the bound.
func (a *shapeAudit) observe(rec *QueryRecord, slo SLO) {
	a.queries++
	if len(rec.MismatchedDevices) > 0 {
		a.mismatches++
		a.mismatchDev = rec.MismatchedDevices[0]
	}
	if !rec.Failed {
		a.bound, a.rq, a.m, a.maxLoad = rec.Bound, rec.RQ, len(rec.DeviceBuckets), rec.MaxDeviceBuckets
		if rec.BoundViolation {
			a.violations++
			a.worstDev = rec.WorstDevice
		}
	}
	if slo.Target <= 0 {
		return
	}
	bad := rec.Failed || rec.Elapsed > slo.Target
	if bad {
		a.bad++
	} else {
		a.good++
	}
	if a.wlen < len(a.window) {
		a.wlen++
	} else if a.window[a.wpos] {
		a.wbad--
	}
	a.window[a.wpos] = bad
	if bad {
		a.wbad++
	}
	a.wpos = (a.wpos + 1) % len(a.window)
}

// burnRate is the rolling bad-fraction over slo's error budget; >1 means
// the shape is burning budget faster than the goal allows. Zero with no
// objective or no judged query.
func (a *shapeAudit) burnRate(slo SLO) float64 {
	if slo.Target <= 0 || a.wlen == 0 {
		return 0
	}
	budget := 1 - slo.Goal
	if budget <= 0 {
		budget = 1e-9 // goal of 1.0: any miss burns "infinitely" fast
	}
	return (float64(a.wbad) / float64(a.wlen)) / budget
}

// maxDeviation is the busiest device's excess over the bound, 0 while no
// query of the shape violated it.
func (a *shapeAudit) maxDeviation() int {
	if a.violations == 0 {
		return 0
	}
	return a.maxLoad - a.bound
}

// ShapeAudit is one (backend, shape) row of an optimality report.
type ShapeAudit struct {
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

// BackendAudit is every shape one backend has served.
type BackendAudit struct {
	Backend string       `json:"backend"`
	Shapes  []ShapeAudit `json:"shapes"`
}

// report snapshots the shape's row under the objective slo in force.
func (a *shapeAudit) report(shape string, slo SLO) ShapeAudit {
	sr := ShapeAudit{
		Shape:          shape,
		Queries:        a.queries,
		Violations:     a.violations,
		MaxDeviation:   a.maxDeviation(),
		WorstDevice:    a.worstDev,
		Bound:          a.bound,
		RQ:             a.rq,
		M:              a.m,
		MaxBuckets:     a.maxLoad,
		Mismatches:     a.mismatches,
		MismatchDevice: a.mismatchDev,
		Good:           a.good,
		Bad:            a.bad,
	}
	if sr.Violations > 0 {
		sr.MeanDeviation = float64(sr.Violations) * float64(sr.MaxDeviation) / float64(sr.Queries)
	}
	if slo.Target > 0 {
		sr.SLOTarget, sr.SLOGoal, sr.BurnRate = slo.Target, slo.Goal, a.burnRate(slo)
	}
	return sr
}

// writeAuditReport renders an optimality report as a per-shape table
// (the /debug/optimality?format=text rendering).
func writeAuditReport(w io.Writer, reps []BackendAudit) {
	if len(reps) == 0 {
		fmt.Fprintln(w, "no retrievals audited yet")
		return
	}
	for _, rep := range reps {
		fmt.Fprintf(w, "backend %s\n", rep.Backend)
		fmt.Fprintf(w, "  %-12s %8s %6s %6s %8s %6s %6s %8s  %s\n",
			"shape", "queries", "viol", "maxdev", "meandev", "bound", "worst", "burn", "verdict")
		for _, s := range rep.Shapes {
			verdict := "strict optimal"
			if s.Violations > 0 {
				verdict = fmt.Sprintf("VIOLATED (device %d: bound %d exceeded by %d)",
					s.WorstDevice, s.Bound, s.MaxDeviation)
			}
			if s.Mismatches > 0 {
				verdict += fmt.Sprintf("; MISPLACED (%d queries, latest on device %d)", s.Mismatches, s.MismatchDevice)
			}
			burn := "-"
			if s.SLOTarget > 0 {
				burn = fmt.Sprintf("%.2f", s.BurnRate)
			}
			fmt.Fprintf(w, "  %-12s %8d %6d %6d %8.3f %6d %6d %8s  %s\n",
				s.Shape, s.Queries, s.Violations, s.MaxDeviation, s.MeanDeviation,
				s.Bound, s.WorstDevice, burn, verdict)
			if s.SLOTarget > 0 {
				fmt.Fprintf(w, "  %-12s slo: target=%s goal=%.4f good=%d bad=%d\n",
					"", time.Duration(s.SLOTarget), s.SLOGoal, s.Good, s.Bad)
			}
		}
	}
}
