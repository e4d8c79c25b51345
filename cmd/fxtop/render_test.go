package main

import (
	"strings"
	"testing"
	"time"

	"fxdist"
	"fxdist/internal/obs"
	"fxdist/internal/telemetry"
)

func testSnapshot(at time.Time, queries uint64) *snapshot {
	rep := fxdist.FleetReport{
		Cluster:   "netdist",
		Generated: at,
		Nodes: []telemetry.NodeRow{
			{Node: "device-0", Alive: true, Pulls: 3, UptimeSeconds: 42},
			{Node: "device-1", Alive: true, Pulls: 3, CoordErrors: 7, Flagged: true,
				FlagReason: "coordinator observed 7 new transport errors since last pull"},
			{Node: "device-2", Alive: false, Pulls: 1, Failures: 2, Err: "dial tcp: connection refused"},
		},
		Summary: telemetry.Summary{
			Queries:               queries,
			QueriesByShape:        map[string]uint64{"s**": queries - 4, "*s*": 4},
			PlanCacheHitRate:      0.75,
			WorstDiscrepancy:      1,
			WorstDiscrepancyNode:  "device-1",
			WorstDiscrepancyShape: "**s",
		},
		Merged: []telemetry.MetricSample{{
			Name: "fxdist_netdist_server_request_seconds",
			Kind: "histogram",
			Histogram: &obs.HistogramSnapshot{
				Bounds: []float64{0.001, 0.01, 0.1},
				Counts: []uint64{10, 2, 1, 0},
				Count:  13,
				Sum:    0.05,
			},
		}},
	}
	return &snapshot{
		at:     at,
		fleets: map[string]fxdist.FleetReport{"netdist": rep},
		resil: resilienceDoc{Retry: []retryRow{{
			Backend: "netdist", Retries: 5, Hedges: 1,
			Breakers: []breakerRow{{Device: 0, State: "closed"}, {Device: 1, State: "open"}},
		}}},
	}
}

// TestRenderFrame renders a merged fleet view with a flagged node, a
// dead node, shape rates and breaker states — the frame the acceptance
// cluster produces — and asserts every section shows up.
func TestRenderFrame(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	prev := testSnapshot(t0, 20)
	cur := testSnapshot(t0.Add(2*time.Second), 30)

	var b strings.Builder
	render(&b, prev, cur)
	out := b.String()

	for _, want := range []string{
		"fleet netdist",
		"2/3 nodes alive",
		"queries 30",
		"5.0/s", // qps: (30-20)/2s
		"worst bound discrepancy 1 buckets (device-1 shape **s)",
		"s**=26", "*s*=4",
		"latency server",
		"⚠ coordinator observed 7 new transport errors",
		"DEAD",
		"breakers netdist (1 not closed)",
		"dev1=open",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q\n%s", want, out)
		}
	}
}

// TestRenderFirstFrame renders without a previous snapshot: rates must
// show as dashes and nothing may panic on missing data.
func TestRenderFirstFrame(t *testing.T) {
	var b strings.Builder
	render(&b, nil, testSnapshot(time.Unix(1700000000, 0), 8))
	if !strings.Contains(b.String(), "qps -") {
		t.Errorf("first frame should dash the qps rate:\n%s", b.String())
	}
}

// TestRenderRescaleRow: a registered migration driver renders its
// progress row with a copy rate from frame deltas; guard stalls and
// pauses are called out.
func TestRenderRescaleRow(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	prev := testSnapshot(t0, 20)
	prev.rescale = rescaleDoc{Rescales: map[string]rescaleRow{
		"netdist": {Phase: "copying", OldM: 4, NewM: 8, TotalMoves: 64, Copied: 16, MoveFraction: 0.25},
	}}
	cur := testSnapshot(t0.Add(2*time.Second), 30)
	cur.rescale = rescaleDoc{Rescales: map[string]rescaleRow{
		"netdist": {Phase: "verified", OldM: 4, NewM: 8, TotalMoves: 64, Copied: 64,
			MoveFraction: 1, Paused: true,
			LastGuardErr: "rebalance: only 1 audited queries on the new epoch, need 4 before cutover"},
	}}

	var b strings.Builder
	render(&b, prev, cur)
	out := b.String()
	for _, want := range []string{
		"rescale netdist",
		"4 -> 8 devices",
		"phase verified",
		"64/64 buckets (100.0%)",
		"copy 24.0/s", // (64-16)/2s
		"[paused]",
		"guard: rebalance: only 1 audited queries",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q\n%s", want, out)
		}
	}
	// No rescale registered: the section stays out of the frame.
	var b2 strings.Builder
	render(&b2, nil, testSnapshot(t0, 8))
	if strings.Contains(b2.String(), "rescale ") {
		t.Errorf("rescale row rendered without a registered driver:\n%s", b2.String())
	}
}

// TestRenderEmpty covers the no-fleet hint (coordinator not pulling).
func TestRenderEmpty(t *testing.T) {
	var b strings.Builder
	render(&b, nil, &snapshot{at: time.Unix(1700000000, 0)})
	if !strings.Contains(b.String(), "is the coordinator pulling stats?") {
		t.Errorf("empty frame missing the stats-pull hint:\n%s", b.String())
	}
}
