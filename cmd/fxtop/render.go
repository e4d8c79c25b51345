package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"fxdist"
)

// snapshot is one poll of the target node: the federated fleet reports
// plus the node's own resilience document (breakers live in the
// coordinator process, not in the pulled per-server snapshots).
type snapshot struct {
	at      time.Time
	fleets  map[string]fxdist.FleetReport
	resil   resilienceDoc
	rescale rescaleDoc
}

// rescaleDoc mirrors the /debug/rescale GET document (the target
// cluster's rescale, under its kind, once it has started one).
type rescaleDoc struct {
	Rescales map[string]rescaleRow `json:"rescales"`
}

type rescaleRow struct {
	Phase        string  `json:"phase"`
	OldM         int     `json:"old_m"`
	NewM         int     `json:"new_m"`
	TotalMoves   int     `json:"total_moves"`
	Copied       int     `json:"copied"`
	MoveFraction float64 `json:"move_fraction"`
	Paused       bool    `json:"paused"`
	Err          string  `json:"err"`
	LastGuardErr string  `json:"last_guard_err"`
}

// resilienceDoc mirrors the /debug/resilience JSON shape fxtop renders
// (a subset; unknown fields are ignored by the decoder).
type resilienceDoc struct {
	Retry []retryRow `json:"retry"`
}

type retryRow struct {
	Backend  string       `json:"backend"`
	Retries  uint64       `json:"retries"`
	Hedges   uint64       `json:"hedges"`
	Partials uint64       `json:"partial_results"`
	Breakers []breakerRow `json:"breakers"`
}

type breakerRow struct {
	Device int    `json:"device"`
	State  string `json:"state"`
}

// latencyRows maps the merged histograms fxtop summarises to the label
// they render under.
var latencyRows = []struct{ metric, label string }{
	{"fxdist_netdist_server_request_seconds", "server"},
	{"fxdist_netdist_coordinator_retrieve_seconds", "coordinator"},
	{"fxdist_storage_retrieve_seconds", "storage"},
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// rate renders a cur-prev counter delta as a per-second rate; prev < 0
// (no previous frame) renders as a dash.
func rate(cur, prev float64, dt time.Duration) string {
	if prev < 0 || dt <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f/s", (cur-prev)/dt.Seconds())
}

// render writes one dashboard frame. prev may be nil (first frame: all
// rates render as dashes).
func render(w io.Writer, prev, cur *snapshot) {
	fmt.Fprintf(w, "fxtop — %s\n", cur.at.Format(time.RFC3339))
	if len(cur.fleets) == 0 {
		fmt.Fprintln(w, "no fleets registered at the target (is the coordinator pulling stats? see -stats-pull)")
	}
	var dt time.Duration
	if prev != nil {
		dt = cur.at.Sub(prev.at)
	}
	names := make([]string, 0, len(cur.fleets))
	for n := range cur.fleets {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		rep := cur.fleets[name]
		var prevRep *fxdist.FleetReport
		if prev != nil {
			if r, ok := prev.fleets[name]; ok {
				prevRep = &r
			}
		}
		renderFleet(w, name, rep, prevRep, dt)
	}
	renderRescale(w, prev, cur, dt)
	renderResilience(w, cur.resil)
}

// renderRescale shows migration progress for every live rescale on the
// target: phase, bucket counts, and the copy rate from frame deltas.
func renderRescale(w io.Writer, prev, cur *snapshot, dt time.Duration) {
	if len(cur.rescale.Rescales) == 0 {
		return
	}
	names := make([]string, 0, len(cur.rescale.Rescales))
	for n := range cur.rescale.Rescales {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		r := cur.rescale.Rescales[name]
		prevCopied := -1.0
		if prev != nil {
			if pr, ok := prev.rescale.Rescales[name]; ok {
				prevCopied = float64(pr.Copied)
			}
		}
		line := fmt.Sprintf("\nrescale %-14s %d -> %d devices  phase %-9s %d/%d buckets (%.1f%%)  copy %s",
			name, r.OldM, r.NewM, r.Phase, r.Copied, r.TotalMoves,
			100*r.MoveFraction, rate(float64(r.Copied), prevCopied, dt))
		if r.Paused {
			line += "  [paused]"
		}
		fmt.Fprintln(w, line)
		if r.Err != "" {
			fmt.Fprintf(w, "  err: %s\n", r.Err)
		}
		if r.LastGuardErr != "" {
			fmt.Fprintf(w, "  guard: %s\n", r.LastGuardErr)
		}
	}
}

func renderFleet(w io.Writer, name string, rep fxdist.FleetReport, prev *fxdist.FleetReport, dt time.Duration) {
	alive := 0
	for _, n := range rep.Nodes {
		if n.Alive {
			alive++
		}
	}
	fmt.Fprintf(w, "\nfleet %-10s %d/%d nodes alive\n", name, alive, len(rep.Nodes))

	prevQ := -1.0
	if prev != nil {
		prevQ = float64(prev.Summary.Queries)
	}
	fmt.Fprintf(w, "  queries %-8d qps %-8s plan-cache %5.1f%%  mempool recycle %5.1f%%\n",
		rep.Summary.Queries, rate(float64(rep.Summary.Queries), prevQ, dt),
		100*rep.Summary.PlanCacheHitRate, 100*rep.Summary.MempoolRecycleRate)
	if rep.Summary.WorstDiscrepancy > 0 {
		fmt.Fprintf(w, "  worst bound discrepancy %.0f buckets (%s shape %s)\n",
			rep.Summary.WorstDiscrepancy, rep.Summary.WorstDiscrepancyNode, rep.Summary.WorstDiscrepancyShape)
	}
	if rep.Summary.WorstBurnRate > 0 {
		fmt.Fprintf(w, "  worst SLO burn %.2f (%s shape %s)\n",
			rep.Summary.WorstBurnRate, rep.Summary.WorstBurnNode, rep.Summary.WorstBurnShape)
	}

	if len(rep.Summary.QueriesByShape) > 0 {
		shapes := make([]string, 0, len(rep.Summary.QueriesByShape))
		for s := range rep.Summary.QueriesByShape {
			shapes = append(shapes, s)
		}
		sort.Strings(shapes)
		var parts []string
		for _, s := range shapes {
			prevN := -1.0
			if prev != nil {
				if pn, ok := prev.Summary.QueriesByShape[s]; ok {
					prevN = float64(pn)
				}
			}
			parts = append(parts, fmt.Sprintf("%s=%d (%s)",
				s, rep.Summary.QueriesByShape[s], rate(float64(rep.Summary.QueriesByShape[s]), prevN, dt)))
		}
		fmt.Fprintf(w, "  shapes  %s\n", strings.Join(parts, "  "))
	}

	for _, row := range latencyRows {
		for _, ms := range rep.Merged {
			if ms.Name != row.metric || ms.Histogram == nil || ms.Histogram.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  latency %-12s p50=%-10s p99=%-10s n=%d\n",
				row.label, fmtSeconds(ms.Histogram.Quantile(0.5)), fmtSeconds(ms.Histogram.Quantile(0.99)), ms.Histogram.Count)
		}
	}

	for _, n := range rep.Nodes {
		status := "alive"
		if !n.Alive {
			status = "DEAD"
		}
		line := fmt.Sprintf("  node %-12s %-5s lag=%-6s pulls=%-4d fails=%-3d errs=%-4d up=%s",
			n.Node, status, fmt.Sprintf("%.1fs", n.LagSeconds), n.Pulls, n.Failures, n.CoordErrors,
			fmt.Sprintf("%.0fs", n.UptimeSeconds))
		if n.Flagged {
			line += "  ⚠ " + n.FlagReason
		}
		fmt.Fprintln(w, line)
	}
}

func renderResilience(w io.Writer, doc resilienceDoc) {
	for _, r := range doc.Retry {
		if len(r.Breakers) == 0 && r.Retries == 0 && r.Hedges == 0 {
			continue
		}
		var parts []string
		open := 0
		for _, b := range r.Breakers {
			if b.State != "closed" {
				open++
			}
			parts = append(parts, fmt.Sprintf("dev%d=%s", b.Device, b.State))
		}
		fmt.Fprintf(w, "\nbreakers %s (%d not closed): %s  retries=%d hedges=%d partials=%d\n",
			r.Backend, open, strings.Join(parts, " "), r.Retries, r.Hedges, r.Partials)
	}
}
