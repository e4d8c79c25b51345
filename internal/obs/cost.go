package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Per-query cost attribution. The paper's response-time model (§5) is
// entirely about where a query's time goes — the slowest device sets
// the latency, and FX keeps every device's share near ceil(|R(q)|/M) —
// so the profiler splits every retrieval into named stages and
// aggregates wall time, bytes and allocation deltas per (backend,
// query shape). The aggregate is served on /debug/hotpath and is the
// measurement baseline any allocation-reduction work is judged against.

// Top-level stage names: these four partition a whole retrieval, so
// their wall times sum to (approximately) the measured query latency.
const (
	// StagePlan is plan compilation or plan-cache lookup.
	StagePlan = "plan"
	// StageFanout spans launch of the first device task until the last
	// device answer (or error) arrives — the paper's max-over-devices
	// term, including queue wait, scan, and for netdist the wire.
	StageFanout = "fanout"
	// StageMerge is answer consolidation under the §5.2.1 cost model.
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
	// Bytes counts wire bytes out, not allocations.
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

func isTopStage(name string) bool {
	for _, s := range TopStages {
		if s == name {
			return true
		}
	}
	return false
}

// StageSample is one stage measurement from one query. For engine
// stages Bytes/Objects are heap-allocation deltas and
// RecycledBytes/RecycledSlabs the demand the buffer pools absorbed
// over the same interval; for the net.* wire stages Bytes counts wire
// bytes and the rest are zero.
type StageSample struct {
	Stage         string        `json:"stage"`
	Wall          time.Duration `json:"wall_ns"`
	Bytes         uint64        `json:"bytes,omitempty"`
	Objects       uint64        `json:"objects,omitempty"`
	RecycledBytes uint64        `json:"recycled_bytes,omitempty"`
	RecycledSlabs uint64        `json:"recycled_slabs,omitempty"`
}

// stageAcc accumulates one stage across queries of one shape.
type stageAcc struct {
	count     uint64
	wallNS    int64
	maxWallNS int64
	bytes     uint64
	objects   uint64
	recBytes  uint64
	recSlabs  uint64
}

// ShapeCosts accumulates every stage of one query shape: the cost
// section of a telemetry cell, whose mutex guards it. The zero value is
// empty and ready; assigning it resets.
type ShapeCosts struct {
	queries uint64
	totalNS int64
	stages  map[string]*stageAcc
}

// Add records stage samples without counting a query (e.g. the
// per-request wire stages).
func (sc *ShapeCosts) Add(samples []StageSample) {
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
		if int64(s.Wall) > acc.maxWallNS {
			acc.maxWallNS = int64(s.Wall)
		}
		acc.bytes += s.Bytes
		acc.objects += s.Objects
		acc.recBytes += s.RecycledBytes
		acc.recSlabs += s.RecycledSlabs
	}
}

// Observe records one whole retrieval: its total latency and its stage
// breakdown (rec.Elapsed covers the interval the top-level stages
// partition).
func (sc *ShapeCosts) Observe(rec *QueryRecord) {
	sc.queries++
	sc.totalNS += int64(rec.Elapsed)
	sc.Add(rec.Stages)
}

// Empty reports whether nothing has been recorded since the last reset.
func (sc *ShapeCosts) Empty() bool { return sc.queries == 0 && len(sc.stages) == 0 }

// StageCost is one aggregated stage of one query shape.
type StageCost struct {
	Stage string `json:"stage"`
	// Count is how many samples were recorded (= queries for top-level
	// stages; per-request for wire stages).
	Count uint64 `json:"count"`
	// MeanWall and MaxWall are per-sample wall times.
	MeanWall time.Duration `json:"mean_wall_ns"`
	MaxWall  time.Duration `json:"max_wall_ns"`
	// MeanBytes/MeanObjects are per-sample heap-alloc deltas (wire
	// bytes for net.* stages); MeanRecycledBytes/MeanRecycledSlabs are
	// the per-sample demand served from buffer pools instead — the two
	// together attribute a stage's true memory traffic once pooling is
	// on.
	MeanBytes         float64 `json:"mean_bytes"`
	MeanObjects       float64 `json:"mean_objects"`
	MeanRecycledBytes float64 `json:"mean_recycled_bytes,omitempty"`
	MeanRecycledSlabs float64 `json:"mean_recycled_slabs,omitempty"`
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

// Report snapshots the shape's row: top-level stages first in execution
// order, then auxiliary stages by name.
func (sc *ShapeCosts) Report(shape string) ShapeCost {
	row := ShapeCost{Shape: shape, Queries: sc.queries}
	if sc.queries > 0 {
		row.MeanT = time.Duration(sc.totalNS / int64(sc.queries))
	}
	var topNS int64
	for name, acc := range sc.stages {
		st := StageCost{
			Stage:             name,
			Count:             acc.count,
			MaxWall:           time.Duration(acc.maxWallNS),
			MeanBytes:         float64(acc.bytes) / float64(acc.count),
			MeanObjects:       float64(acc.objects) / float64(acc.count),
			MeanRecycledBytes: float64(acc.recBytes) / float64(acc.count),
			MeanRecycledSlabs: float64(acc.recSlabs) / float64(acc.count),
		}
		st.MeanWall = time.Duration(acc.wallNS / int64(acc.count))
		if isTopStage(name) {
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
	for i, s := range TopStages {
		if s == name {
			return fmt.Sprintf("0%d", i)
		}
	}
	return "1" + name
}

// WriteCostReport renders a cost report as an aligned text table.
func WriteCostReport(w io.Writer, report []BackendCost) {
	if len(report) == 0 {
		fmt.Fprintln(w, "no queries profiled")
		return
	}
	for _, b := range report {
		fmt.Fprintf(w, "backend %s\n", b.Backend)
		for _, s := range b.Shapes {
			fmt.Fprintf(w, "  shape %-8s queries=%d mean=%v coverage=%.2f\n",
				s.Shape, s.Queries, s.MeanT, s.StageCoverage)
			fmt.Fprintf(w, "    %-14s %8s %12s %12s %14s %12s %14s %12s %8s\n",
				"stage", "count", "mean", "max", "bytes/op", "objs/op", "recycled/op", "slabs/op", "wall%")
			for _, st := range s.Stages {
				frac := "-"
				if isTopStage(st.Stage) {
					frac = fmt.Sprintf("%.1f%%", st.WallFrac*100)
				}
				fmt.Fprintf(w, "    %-14s %8d %12v %12v %14.1f %12.1f %14.1f %12.1f %8s\n",
					st.Stage, st.Count, st.MeanWall, st.MaxWall, st.MeanBytes, st.MeanObjects,
					st.MeanRecycledBytes, st.MeanRecycledSlabs, frac)
			}
		}
	}
}
