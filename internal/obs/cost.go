package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"
)

// Per-query cost attribution. The paper's response-time model (§5) is
// entirely about where a query's time goes — the slowest device sets
// the latency, and FX keeps every device's share near ceil(|R(q)|/M) —
// so the profiler splits every retrieval into named stages and
// aggregates their wall time per (backend, query shape), plus the wire
// bytes of the coordinator's net.* stages. The aggregate is served on
// /debug/hotpath; where memory goes is /debug/pprof/allocs's answer.

// Top-level stage names: these four partition a whole retrieval, so
// their wall times sum to (approximately) the measured query latency.
const (
	// StagePlan is plan compilation or plan-cache lookup.
	StagePlan = "plan"
	// StageFanout spans launch of the first device task until the last
	// device answer (or error) arrives — the paper's max-over-devices
	// term, including queue wait, scan, and for netdist the wire.
	StageFanout = "fanout"
	// StageMerge is answer consolidation: records and per-device counts.
	StageMerge = "merge"
	// StageAudit is the optimality audit + observer notification tail.
	StageAudit = "audit"
)

// Auxiliary stage names: these overlap the top-level stages (they run
// inside fanout) and refine where its time goes. They are excluded from
// coverage sums.
const (
	// StageDeviceScan is the sum of per-device scan durations — compare
	// against fanout to see parallelism (scan ≈ fanout·M when all
	// devices run concurrently).
	StageDeviceScan = "device.scan"
	// StageNetDispatch is request encode+write on the coordinator side;
	// Bytes counts wire bytes out.
	StageNetDispatch = "net.dispatch"
	// StageNetWait is dispatch-done → first response byte.
	StageNetWait = "net.wait"
	// StageNetDecode is first response byte → frame decoded; Bytes
	// counts wire bytes in.
	StageNetDecode = "net.decode"
)

// TopStages lists the stages that partition a retrieval, in execution
// order. Their wall-time sum is the profiler's coverage numerator.
var TopStages = []string{StagePlan, StageFanout, StageMerge, StageAudit}

// StageSample is one stage measurement from one query: its wall time,
// and for the net.* wire stages the wire bytes (zero elsewhere).
type StageSample struct {
	Stage string        `json:"stage"`
	Wall  time.Duration `json:"wall_ns"`
	Bytes uint64        `json:"bytes,omitempty"`
}

// stageAcc accumulates one stage across queries of one shape.
type stageAcc struct {
	count     uint64
	wallNS    int64
	maxWallNS int64
	bytes     uint64
}

// shapeCosts accumulates every stage of one query shape: the cost
// section of a cell, whose mutex guards it. The zero value is empty and
// ready; assigning it resets.
type shapeCosts struct {
	queries uint64
	totalNS int64
	stages  map[string]*stageAcc
}

// add records stage samples without counting a query (e.g. the
// per-request wire stages).
func (sc *shapeCosts) add(samples []StageSample) {
	if sc.stages == nil {
		sc.stages = make(map[string]*stageAcc)
	}
	for _, s := range samples {
		acc := sc.stages[s.Stage]
		if acc == nil {
			acc = &stageAcc{}
			sc.stages[s.Stage] = acc
		}
		acc.count++
		acc.wallNS += int64(s.Wall)
		acc.maxWallNS = max(acc.maxWallNS, int64(s.Wall))
		acc.bytes += s.Bytes
	}
}

// observe records one whole retrieval: its total latency and its stage
// breakdown (rec.Elapsed covers the interval the top-level stages
// partition).
func (sc *shapeCosts) observe(rec *QueryRecord) {
	sc.queries++
	sc.totalNS += int64(rec.Elapsed)
	sc.add(rec.Stages)
}

// empty reports whether nothing has been recorded since the last reset.
func (sc *shapeCosts) empty() bool { return sc.queries == 0 && len(sc.stages) == 0 }

// StageCost is one aggregated stage of one query shape.
type StageCost struct {
	Stage string `json:"stage"`
	// Count is how many samples were recorded (= queries for top-level
	// stages; per-request for wire stages).
	Count uint64 `json:"count"`
	// MeanWall and MaxWall are per-sample wall times.
	MeanWall time.Duration `json:"mean_wall_ns"`
	MaxWall  time.Duration `json:"max_wall_ns"`
	// MeanBytes is the per-sample wire bytes of a net.* stage (zero
	// elsewhere).
	MeanBytes float64 `json:"mean_bytes"`
	// WallFrac is this stage's share of the shape's total query time
	// (top-level stages only; auxiliary stages overlap fanout).
	WallFrac float64 `json:"wall_frac"`
}

// ShapeCost is the aggregated cost profile of one query shape.
type ShapeCost struct {
	Shape   string        `json:"shape"`
	Queries uint64        `json:"queries"`
	MeanT   time.Duration `json:"mean_total_ns"`
	// StageCoverage is sum(top-level stage wall) / total wall — how much
	// of the measured latency the breakdown explains (≈1.0 when the
	// stamps are sound).
	StageCoverage float64     `json:"stage_coverage"`
	Stages        []StageCost `json:"stages"`
}

// BackendCost is every profiled shape of one backend.
type BackendCost struct {
	Backend string      `json:"backend"`
	Shapes  []ShapeCost `json:"shapes"`
}

// report snapshots the shape's row: top-level stages first in execution
// order, then auxiliary stages by name.
func (sc *shapeCosts) report(shape string) ShapeCost {
	row := ShapeCost{Shape: shape, Queries: sc.queries}
	if sc.queries > 0 {
		row.MeanT = time.Duration(sc.totalNS / int64(sc.queries))
	}
	var topNS int64
	for name, acc := range sc.stages {
		st := StageCost{
			Stage:     name,
			Count:     acc.count,
			MeanWall:  time.Duration(acc.wallNS / int64(acc.count)),
			MaxWall:   time.Duration(acc.maxWallNS),
			MeanBytes: float64(acc.bytes) / float64(acc.count),
		}
		if slices.Contains(TopStages, name) {
			topNS += acc.wallNS
			if sc.totalNS > 0 {
				st.WallFrac = float64(acc.wallNS) / float64(sc.totalNS)
			}
		}
		row.Stages = append(row.Stages, st)
	}
	if sc.totalNS > 0 {
		row.StageCoverage = float64(topNS) / float64(sc.totalNS)
	}
	sort.Slice(row.Stages, func(i, j int) bool {
		return stageOrder(row.Stages[i].Stage) < stageOrder(row.Stages[j].Stage)
	})
	return row
}

// stageOrder keys render order: top-level stages in execution order,
// then auxiliary stages alphabetically.
func stageOrder(name string) string {
	if i := slices.Index(TopStages, name); i >= 0 {
		return fmt.Sprintf("0%d", i)
	}
	return "1" + name
}

// writeCostReport renders a cost report as an aligned text table.
func writeCostReport(w io.Writer, report []BackendCost) {
	if len(report) == 0 {
		fmt.Fprintln(w, "no queries profiled")
		return
	}
	for _, b := range report {
		fmt.Fprintf(w, "backend %s\n", b.Backend)
		for _, s := range b.Shapes {
			fmt.Fprintf(w, "  shape %-8s queries=%d mean=%v coverage=%.2f\n",
				s.Shape, s.Queries, s.MeanT, s.StageCoverage)
			fmt.Fprintf(w, "    %-14s %8s %12s %12s %14s %8s\n",
				"stage", "count", "mean", "max", "wire B/op", "wall%")
			for _, st := range s.Stages {
				frac := "-"
				if slices.Contains(TopStages, st.Stage) {
					frac = fmt.Sprintf("%.1f%%", st.WallFrac*100)
				}
				fmt.Fprintf(w, "    %-14s %8d %12v %12v %14.1f %8s\n",
					st.Stage, st.Count, st.MeanWall, st.MaxWall, st.MeanBytes, frac)
			}
		}
	}
}
