package plancache

import (
	"container/list"
	"sync"

	"fxdist/internal/obs"
)

// DefaultCapacity is every cache's LRU capacity, in shapes. An n-field
// schema has 2^n shapes and a cluster behind a gate serves whichever its
// callers send, so the cache is bounded; 256 holds every shape of an
// 8-field schema.
const DefaultCapacity = 256

// DefaultMaxTuples has no reader in this module: it is the value
// bench/fxload/layers.go passes as Compile's ignored third argument, and
// goes when a [benchmark] PR edits that call.
const DefaultMaxTuples = 1 << 16

// Cache is the LRU plan cache of one executor, keyed by shape: the
// executor has one allocator, so a shape names one plan. Caches are not
// shared across clusters, but all caches of one backend report under the
// same metric labels and appear individually on /debug/plancache.
type Cache struct {
	backend string

	mu       sync.Mutex
	capacity int        // DefaultCapacity; this package's tests lower it
	lru      *list.List // of *Plan, front = most recent
	index    map[string]*list.Element
	bytes    int
	hits     uint64
	misses   uint64
	evicted  uint64

	mHits, mMisses, mEvicted *obs.Counter
	mEntries, mBytes         *obs.Gauge
}

// New builds a plan cache reporting under the backend label ("memory",
// "durable", "replicated", "netdist"). Call Close when the owning
// cluster is discarded.
func New(backend string) *Cache {
	r := obs.Default()
	bl := obs.L("cache", backend)
	c := &Cache{
		backend:  backend,
		capacity: DefaultCapacity,
		lru:      list.New(),
		index:    make(map[string]*list.Element),
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
	return c
}

// Backend returns the backend label the cache reports under.
func (c *Cache) Backend() string { return c.backend }

// evictLocked drops LRU tails until the capacity holds.
func (c *Cache) evictLocked() {
	for c.lru.Len() > c.capacity {
		p := c.lru.Remove(c.lru.Back()).(*Plan)
		delete(c.index, p.Shape)
		c.bytes -= p.Bytes()
		c.evicted++
		c.mEvicted.Inc()
		c.mEntries.Add(-1)
		c.mBytes.Add(-float64(p.Bytes()))
	}
}

// Get returns the plan for shape (query.AppendShape's bytes), compiling it
// with compile on a miss (compile must return a plan of that shape); the
// second return reports whether the lookup was a hit. A hit allocates
// nothing: the key is looked up as the bytes, and a miss files the plan
// under its own Shape. Concurrent misses of one shape each compile (a
// plan is O(M) numbers, about a microsecond): the first to finish inserts
// its plan and the rest return that one. Compilation errors are not
// cached.
func (c *Cache) Get(shape []byte, compile func() (*Plan, error)) (*Plan, bool, error) {
	c.mu.Lock()
	if el, ok := c.index[string(shape)]; ok {
		c.lru.MoveToFront(el)
		p := el.Value.(*Plan)
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
	if el, ok := c.index[p.Shape]; ok {
		return el.Value.(*Plan), false, nil
	}
	c.index[p.Shape] = c.lru.PushFront(p)
	c.bytes += p.Bytes()
	c.mEntries.Add(1)
	c.mBytes.Add(float64(p.Bytes()))
	c.evictLocked()
	return p, false, nil
}

// Close drops the cache's resident plans and takes them out of the
// fxdist_plancache gauges. Subsequent Gets behave like a fresh cache.
func (c *Cache) Close() {
	c.mu.Lock()
	n := c.lru.Len()
	b := c.bytes
	c.lru.Init()
	c.index = make(map[string]*list.Element)
	c.bytes = 0
	c.mu.Unlock()
	c.mEntries.Add(-float64(n))
	c.mBytes.Add(-float64(b))
}

// PlanInfo describes one resident plan on /debug/plancache.
type PlanInfo struct {
	Shape string `json:"shape"`
	RQ    int    `json:"r_q"`
	M     int    `json:"m"`
	Bound int    `json:"bound"`
	Bytes int    `json:"bytes"`
}

// Snapshot is one cache's point-in-time state.
type Snapshot struct {
	Backend   string     `json:"backend"`
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
		p := el.Value.(*Plan)
		s.Plans = append(s.Plans, PlanInfo{Shape: p.Shape, RQ: p.RQ, M: p.M, Bound: p.Bound, Bytes: p.Bytes()})
	}
	return s
}
