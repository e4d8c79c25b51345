package plancache

import (
	"fmt"
	"io"

	"fxdist/internal/obs"
)

// Endpoint serves /debug/plancache for the cache c returns at request
// time (a cluster's cache changes at a rescale's cutover): a list of one
// snapshot, so that readers of the document's JSON shape stay as they
// are.
func Endpoint(c func() *Cache) obs.Endpoint {
	return obs.Endpoint{Path: "/debug/plancache", Desc: "compiled-plan LRU: hit/miss/eviction counts, entries, bytes", Handler: obs.DebugEndpoint(
		func() (any, error) { return []Snapshot{c().Stats()}, nil },
		func(w io.Writer, doc any) { writeText(w, doc.([]Snapshot)) },
	)}
}

func writeText(w io.Writer, snaps []Snapshot) {
	for _, s := range snaps {
		fmt.Fprintf(w, "cache %s entries=%d/%d bytes=%d hits=%d misses=%d evictions=%d hit-rate=%.3f\n",
			s.Backend, s.Entries, s.Capacity, s.Bytes, s.Hits, s.Misses, s.Evictions, s.HitRate)
		for _, p := range s.Plans {
			fmt.Fprintf(w, "  %+v\n", p)
		}
	}
}
