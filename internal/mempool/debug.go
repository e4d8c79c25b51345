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

// sum adds up the pools' Get-side counters: the gauges and the
// endpoint's header read them, summed at read time.
func sum(pools []PoolReport) (t Stats) {
	for _, p := range pools {
		t.Gets += p.Gets
		t.Misses += p.Misses
		t.Oversize += p.Oversize
		t.RecycledBytes += p.RecycledBytes
	}
	return t
}

// RegisterMetrics installs the pools' callback gauges into r, so their
// absorption shows up on a node's /metrics and federates across nodes
// (fxtop's "recycle rate" = recycled slabs / gets, where gets counts
// every Get: hits, misses and oversize). Each scrape sums the pools' own
// counters; every node registry of the process reads the same pools.
func RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("fxdist_mempool_recycled_bytes",
		"Bytes served from pooled slabs instead of fresh allocations, process lifetime.",
		func() float64 { return float64(sum(Report()).RecycledBytes) })
	r.GaugeFunc("fxdist_mempool_recycled_slabs",
		"Slabs served from pools instead of fresh allocations, process lifetime.",
		func() float64 { return float64(sum(Report()).Gets) })
	r.GaugeFunc("fxdist_mempool_gets",
		"Total pool Get calls across every registered pool.",
		func() float64 { t := sum(Report()); return float64(t.Gets + t.Misses + t.Oversize) })
}

// Endpoint serves /debug/mempool: every registered pool's counters.
func Endpoint() obs.Endpoint {
	return obs.Endpoint{Path: "/debug/mempool", Desc: "slab pool stats: per-size-class gets/puts/misses and recycled bytes/slabs", Handler: obs.DebugEndpoint(
		func() (any, error) {
			pools := Report()
			t := sum(pools)
			return mempoolDoc{RecycledBytes: t.RecycledBytes, RecycledSlabs: t.Gets, Pools: pools}, nil
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
