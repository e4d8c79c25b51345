package mempool

import (
	"fmt"
	"io"

	"fxdist/internal/obs"
)

type mempoolDoc struct {
	RecycledBytes uint64       `json:"recycled_bytes"`
	RecycledSlabs uint64       `json:"recycled_slabs"`
	Pools         []PoolReport `json:"pools"`
}

// RegisterMetrics installs the pools' callback gauges into r, so their
// absorption shows up on a node's /metrics and federates across nodes
// (fxtop's "recycle rate" = slabs/gets). The pools are the process's;
// every node registry of the process reads the same totals.
func RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("fxdist_mempool_recycled_bytes",
		"Bytes served from pooled slabs instead of fresh allocations, process lifetime.",
		func() float64 { b, _ := RecycledTotals(); return float64(b) })
	r.GaugeFunc("fxdist_mempool_recycled_slabs",
		"Slabs served from pools instead of fresh allocations, process lifetime.",
		func() float64 { _, s := RecycledTotals(); return float64(s) })
	r.GaugeFunc("fxdist_mempool_gets",
		"Total pool Get calls across every registered pool.",
		func() float64 {
			var gets uint64
			for _, p := range Report() {
				gets += p.Gets
			}
			return float64(gets)
		})
}

// Endpoint serves /debug/mempool: every registered pool's counters.
func Endpoint() obs.Endpoint {
	return obs.Endpoint{Path: "/debug/mempool", Desc: "slab pool stats: per-size-class gets/puts/misses and recycled bytes/slabs", Handler: obs.DebugEndpoint(
		func() (any, error) {
			b, o := RecycledTotals()
			return mempoolDoc{RecycledBytes: b, RecycledSlabs: o, Pools: Report()}, nil
		},
		func(w io.Writer, doc any) {
			d := doc.(mempoolDoc)
			fmt.Fprintf(w, "recycled: %d bytes in %d slabs\n", d.RecycledBytes, d.RecycledSlabs)
			fmt.Fprintf(w, "%-16s %10s %10s %10s %10s %8s %16s\n",
				"pool", "gets", "misses", "oversize", "puts", "drops", "recycled bytes")
			for _, p := range d.Pools {
				fmt.Fprintf(w, "%-16s %10d %10d %10d %10d %8d %16d\n",
					p.Name, p.Gets, p.Misses, p.Oversize, p.Puts, p.Drops, p.RecycledBytes)
			}
		},
	)}
}
