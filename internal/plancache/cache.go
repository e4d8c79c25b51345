package plancache

import (
	"container/list"
	"sync"

	"fxdist/internal/obs"
)

// Key identifies one cached plan: the owning allocator's identity (so a
// rebuilt allocator — e.g. after a snapshot reload — never reuses stale
// plans) and the query shape.
type Key struct {
	Owner uint64
	Shape string
}

// Process-wide owner identity assignment. Identities are per pointer
// value: two allocators built from the same spec are still distinct
// owners, which is exactly the invalidation rule the cache needs.
var (
	idMu   sync.Mutex
	ids    = make(map[any]uint64)
	nextID uint64
)

// IdentityOf returns a process-unique identity for owner (an allocator,
// or the schema file for allocator-less backends), assigning one on
// first use.
func IdentityOf(owner any) uint64 {
	idMu.Lock()
	defer idMu.Unlock()
	if id, ok := ids[owner]; ok {
		return id
	}
	nextID++
	ids[owner] = nextID
	return nextID
}

// DefaultCapacity is the LRU capacity New starts with; a cluster's
// WithPlanCacheSize / Resize changes it.
const DefaultCapacity = 256

// DefaultMaxTuples has no reader in this module: it is the value
// bench/fxload/layers.go passes as Compile's ignored third argument, and
// goes when a [benchmark] PR edits that call.
const DefaultMaxTuples = 1 << 16

// entry is one resident plan.
type entry struct {
	key  Key
	plan *Plan
}

// Cache is the LRU plan cache of one cluster.
// Each cluster owns one (they are not shared across clusters), but all
// caches of one backend report under the same metric labels and appear
// individually on /debug/plancache.
type Cache struct {
	backend string

	mu       sync.Mutex
	enabled  bool
	capacity int
	lru      *list.List // of *entry, front = most recent
	index    map[Key]*list.Element
	bytes    int
	hits     uint64
	misses   uint64
	evicted  uint64

	mHits, mMisses, mEvicted *obs.Counter
	mEntries, mBytes         *obs.Gauge
}

// New builds a plan cache reporting under the backend label ("memory",
// "durable", "replicated", "netdist") and registers it for
// /debug/plancache. Call Close when the owning cluster is discarded.
func New(backend string) *Cache {
	r := obs.Default()
	bl := obs.L("cache", backend)
	c := &Cache{
		backend:  backend,
		enabled:  true,
		capacity: DefaultCapacity,
		lru:      list.New(),
		index:    make(map[Key]*list.Element),
		mHits: r.Counter("fxdist_plancache_hit_total",
			"Plan-cache lookups served from a resident plan.", bl),
		mMisses: r.Counter("fxdist_plancache_miss_total",
			"Plan-cache lookups that compiled a new plan.", bl),
		mEvicted: r.Counter("fxdist_plancache_eviction_total",
			"Plans evicted by the LRU capacity.", bl),
		mEntries: r.Gauge("fxdist_plancache_size",
			"Resident plans, totalled over every live cache of the backend.", bl),
		mBytes: r.Gauge("fxdist_plancache_bytes",
			"Approximate resident plan bytes, totalled over every live cache of the backend.", bl),
	}
	register(c)
	return c
}

// Backend returns the backend label the cache reports under.
func (c *Cache) Backend() string { return c.backend }

// Enabled reports whether lookups hit the cache; a disabled cache makes
// the engine take the uncached (pre-cache) retrieval path.
func (c *Cache) Enabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enabled
}

// SetEnabled toggles the cache. Disabling keeps resident plans (they
// become reachable again on re-enable).
func (c *Cache) SetEnabled(v bool) {
	c.mu.Lock()
	c.enabled = v
	c.mu.Unlock()
}

// Resize changes the LRU capacity, evicting immediately if shrinking.
func (c *Cache) Resize(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.capacity = n
	c.evictLocked()
	c.mu.Unlock()
}

// evictLocked drops LRU tails until the capacity holds.
func (c *Cache) evictLocked() {
	for c.lru.Len() > c.capacity {
		el := c.lru.Back()
		e := el.Value.(*entry)
		c.lru.Remove(el)
		delete(c.index, e.key)
		c.bytes -= e.plan.Bytes()
		c.evicted++
		c.mEvicted.Inc()
		c.mEntries.Add(-1)
		c.mBytes.Add(-float64(e.plan.Bytes()))
	}
}

// Get returns the plan for key, compiling it with compile on a miss; the
// second return reports whether the lookup was a hit. Concurrent misses
// of one key each compile (a plan is O(M) numbers, about a microsecond):
// the first to finish inserts its plan and the rest return that one.
// Compilation errors are not cached.
func (c *Cache) Get(key Key, compile func() (*Plan, error)) (*Plan, bool, error) {
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.lru.MoveToFront(el)
		p := el.Value.(*entry).plan
		c.hits++
		c.mu.Unlock()
		c.mHits.Inc()
		return p, true, nil
	}
	c.misses++
	c.mu.Unlock()
	c.mMisses.Inc()

	p, err := compile()
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		return el.Value.(*entry).plan, false, nil
	}
	c.index[key] = c.lru.PushFront(&entry{key: key, plan: p})
	c.bytes += p.Bytes()
	c.mEntries.Add(1)
	c.mBytes.Add(float64(p.Bytes()))
	c.evictLocked()
	return p, false, nil
}

// Close unregisters the cache from /debug/plancache and drops its
// resident plans. Subsequent Gets behave like a fresh (empty) cache.
func (c *Cache) Close() {
	c.mu.Lock()
	n := c.lru.Len()
	b := c.bytes
	c.lru.Init()
	c.index = make(map[Key]*list.Element)
	c.bytes = 0
	c.mu.Unlock()
	c.mEntries.Add(-float64(n))
	c.mBytes.Add(-float64(b))
	unregister(c)
}

// PlanInfo describes one resident plan on /debug/plancache.
type PlanInfo struct {
	Owner uint64 `json:"owner"`
	Shape string `json:"shape"`
	RQ    int    `json:"r_q"`
	M     int    `json:"m"`
	Bound int    `json:"bound"`
	Bytes int    `json:"bytes"`
}

// Snapshot is one cache's point-in-time state.
type Snapshot struct {
	Backend   string     `json:"backend"`
	Enabled   bool       `json:"enabled"`
	Capacity  int        `json:"capacity"`
	Entries   int        `json:"entries"`
	Bytes     int        `json:"bytes"`
	Hits      uint64     `json:"hits"`
	Misses    uint64     `json:"misses"`
	Evictions uint64     `json:"evictions"`
	HitRate   float64    `json:"hit_rate"`
	Plans     []PlanInfo `json:"plans"`
}

// Stats snapshots the cache, most recently used plan first.
func (c *Cache) Stats() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Backend:   c.backend,
		Enabled:   c.enabled,
		Capacity:  c.capacity,
		Entries:   c.lru.Len(),
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evicted,
	}
	if total := c.hits + c.misses; total > 0 {
		s.HitRate = float64(c.hits) / float64(total)
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		s.Plans = append(s.Plans, PlanInfo{
			Owner: e.key.Owner,
			Shape: e.key.Shape,
			RQ:    e.plan.RQ,
			M:     e.plan.M,
			Bound: e.plan.Bound,
			Bytes: e.plan.Bytes(),
		})
	}
	return s
}
