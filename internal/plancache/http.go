package plancache

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"fxdist/internal/obs"
)

// Process-wide registry of live caches, for /debug/plancache and the
// facade's PlanCacheReport.
var (
	regMu  sync.Mutex
	caches []*Cache
)

func register(c *Cache) {
	regMu.Lock()
	caches = append(caches, c)
	regMu.Unlock()
}

func unregister(c *Cache) {
	regMu.Lock()
	for i, o := range caches {
		if o == c {
			caches = append(caches[:i], caches[i+1:]...)
			break
		}
	}
	regMu.Unlock()
}

// Report snapshots every live cache, sorted by backend (stable across
// same-backend caches: registration order).
func Report() []Snapshot {
	regMu.Lock()
	all := make([]*Cache, len(caches))
	copy(all, caches)
	regMu.Unlock()
	out := make([]Snapshot, 0, len(all))
	for _, c := range all {
		out = append(out, c.Stats())
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Backend < out[j].Backend })
	return out
}

func init() {
	obs.RegisterDebugHandler("/debug/plancache", "compiled-plan LRU per backend: hit/miss/eviction counts, entries, bytes", obs.DebugEndpoint(
		func() (any, error) { return Report(), nil },
		func(w io.Writer, doc any) { writeText(w, doc.([]Snapshot)) },
	))
}

func writeText(w io.Writer, snaps []Snapshot) {
	if len(snaps) == 0 {
		fmt.Fprintln(w, "no plan caches registered")
		return
	}
	for _, s := range snaps {
		fmt.Fprintf(w, "cache %s entries=%d/%d bytes=%d hits=%d misses=%d evictions=%d hit-rate=%.3f\n",
			s.Backend, s.Entries, s.Capacity, s.Bytes, s.Hits, s.Misses, s.Evictions, s.HitRate)
		for _, p := range s.Plans {
			fmt.Fprintf(w, "  %+v\n", p)
		}
	}
}
