package gate

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"fxdist/internal/obs"
)

// TenantShapeRow is one (tenant, query shape) audit slice on
// /debug/tenants.
type TenantShapeRow struct {
	Shape      string  `json:"shape"`
	Queries    uint64  `json:"queries"`
	Errors     uint64  `json:"errors"`
	MeanMillis float64 `json:"mean_ms"`
	MaxMillis  float64 `json:"max_ms"`
}

// TenantRow is one tenant's slice of the gate's audit.
type TenantRow struct {
	Name          string           `json:"name"`
	InFlight      int              `json:"in_flight"`
	Requests      uint64           `json:"requests"`
	RateLimited   uint64           `json:"rate_limited"`
	QuotaRejected uint64           `json:"quota_rejected"`
	Shed          uint64           `json:"shed"`
	Errors        uint64           `json:"errors"`
	RatePerSec    float64          `json:"rate_per_sec,omitempty"`
	MaxInFlight   int              `json:"max_in_flight,omitempty"`
	Shapes        []TenantShapeRow `json:"shapes,omitempty"`
}

// Report is the /debug/tenants document: the gate's dispatch counters
// plus one row per tenant. Batches counts every Cluster.RetrieveBatch
// the gate made, DirectBatches those that were one tenant's explicit
// fx.retrieveBatch.
type Report struct {
	Batches uint64 `json:"batches"`
	// CoalescedQueries is always 0: the gate no longer batches queries
	// across callers. The field stays, off the wire, because the load
	// harness under bench/ reads it.
	CoalescedQueries uint64      `json:"-"`
	DirectBatches    uint64      `json:"direct_batches"`
	RateLimited      uint64      `json:"rate_limited"`
	QuotaRejected    uint64      `json:"quota_rejected"`
	BurnSheds        uint64      `json:"burn_sheds"`
	FrontSheds       uint64      `json:"front_sheds"`
	Tenants          []TenantRow `json:"tenants"`
}

// Report snapshots the gate's per-tenant audit (the programmatic
// /debug/tenants).
func (g *Gate) Report() Report {
	rep := Report{
		Batches:       g.metrics.batches.Value(),
		DirectBatches: g.directBatch.Load(),
		BurnSheds:     g.burnSheds.Load(),
	}
	for _, t := range g.tenants.all() {
		t.mu.Lock()
		row := TenantRow{
			Name:          t.cfg.Name,
			InFlight:      t.inFlight,
			RateLimited:   t.series.rejected[rateLimited].value(),
			QuotaRejected: t.series.rejected[quota].value(),
			Shed:          t.series.rejected[shed].value(),
			Errors:        t.errors,
			RatePerSec:    t.cfg.RatePerSec,
			MaxInFlight:   t.cfg.MaxInFlight,
		}
		for i := range t.series.requests {
			row.Requests += t.series.requests[i].value()
		}
		for shape, ss := range t.shapes {
			sr := TenantShapeRow{
				Shape:     shape,
				Queries:   ss.Queries,
				Errors:    ss.Errors,
				MaxMillis: float64(ss.MaxLatency) / float64(time.Millisecond),
			}
			if ss.Queries > 0 {
				sr.MeanMillis = float64(ss.SumLatency) / float64(ss.Queries) / float64(time.Millisecond)
			}
			row.Shapes = append(row.Shapes, sr)
		}
		t.mu.Unlock()
		sort.Slice(row.Shapes, func(i, j int) bool { return row.Shapes[i].Shape < row.Shapes[j].Shape })
		rep.Tenants = append(rep.Tenants, row)
		rep.RateLimited += row.RateLimited
		rep.QuotaRejected += row.QuotaRejected
		rep.FrontSheds += row.Shed
	}
	return rep
}

// Metrics returns the gate's own metric registry: the fxgate_* series.
func (g *Gate) Metrics() *obs.Registry { return g.metrics.reg }

// DebugHandler serves the gate's cluster's observability handler
// (Cluster.DebugEndpoints) plus /debug/tenants, the gate's per-tenant
// audit (?format=json|text); its /metrics renders the cluster's registry
// and then the gate's own.
func (g *Gate) DebugHandler() http.Handler {
	tenants := obs.Endpoint{Path: "/debug/tenants", Desc: "per-tenant gate audit: admission counters and shape slices",
		Handler: obs.DebugEndpoint(
			func() (any, error) { return g.Report(), nil },
			func(w io.Writer, doc any) {
				rep := doc.(Report)
				fmt.Fprintf(w, "fxgate: batches %d  direct %d  rate-limited %d  quota %d  burn-sheds %d  front-sheds %d\n\n",
					rep.Batches, rep.DirectBatches, rep.RateLimited, rep.QuotaRejected, rep.BurnSheds, rep.FrontSheds)
				for _, t := range rep.Tenants {
					fmt.Fprintf(w, "tenant %s: req %d err %d rate-limited %d quota %d shed %d inflight %d\n",
						t.Name, t.Requests, t.Errors, t.RateLimited, t.QuotaRejected, t.Shed, t.InFlight)
					for _, s := range t.Shapes {
						fmt.Fprintf(w, "  %-12s q %-7d err %-5d mean %7.3fms max %7.3fms\n",
							s.Shape, s.Queries, s.Errors, s.MeanMillis, s.MaxMillis)
					}
				}
			},
		)}
	metrics := obs.MetricsEndpoint(g.cfg.Cluster.Metrics, g.Metrics)
	return obs.HandlerFor(append(g.cfg.Cluster.DebugEndpoints(), tenants, metrics)...)
}
