// Package mempool provides per-size-class buffer pools for the
// retrieval hot path — the DPDK mbuf idiom: a fixed ladder of
// power-of-two size classes, each backed by a sync.Pool, so steady-state
// traffic recycles slabs instead of allocating them. Pools are typed
// ([]byte wire frames, []string field arenas, record-header slices) and
// every pool keeps get/put/miss counters that feed /debug/mempool and
// the cost profiler's recycled-vs-allocated attribution.
//
// All pool methods are nil-safe: a nil *SlicePool allocates fresh
// slices on Get and drops them on Put. SetEnabled(false) makes every
// pool in the process behave that way — the no-pool reference path the
// differential tests compare the pooled one against.
package mempool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// minShift..maxShift bound the class ladder: capacities run from
	// 1<<minShift to 1<<maxShift elements. Requests above the ceiling
	// fall through to plain make and are never pooled (counted as
	// oversize); requests below the floor round up to the smallest
	// class.
	minShift   = 6  // 64 elements
	maxShift   = 24 // 16Mi elements
	numClasses = maxShift - minShift + 1
)

// classFor returns the index of the smallest class holding n elements,
// or -1 when n exceeds the largest class.
func classFor(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - minShift
	if c >= numClasses {
		return -1
	}
	return c
}

// classOf returns the class index whose capacity is exactly c, or -1
// for foreign capacities (not a power of two, or out of range) — those
// are dropped on Put rather than poisoning a class with short slabs.
func classOf(c int) int {
	if c <= 0 || c&(c-1) != 0 {
		return -1
	}
	s := bits.TrailingZeros(uint(c))
	if s < minShift || s > maxShift {
		return -1
	}
	return s - minShift
}

// disabled turns every pool into the nil pass-through; see SetEnabled.
var disabled atomic.Bool

// SetEnabled switches pooling on or off for the whole process and
// returns the previous setting. Off, every Get allocates and every Put
// drops, exactly as on a nil pool, so retrievals run the pre-pooling
// allocation pattern. It is a test seam — the differential suites flip
// it around a reference run and restore it — not a tuning knob: nothing
// outside tests calls it, and tests that do must not run in parallel.
func SetEnabled(on bool) (was bool) { return !disabled.Swap(!on) }

// Enabled reports the SetEnabled setting, for pools kept elsewhere.
func Enabled() bool { return !disabled.Load() }

// poison makes Put scribble byte slabs before pooling them; see SetPoison.
var poison atomic.Bool

// SetPoison is the second test seam: on, Put overwrites a byte slab with
// 0xDB before pooling it, so a string still aliasing a released frame
// reads as garbage instead of as the record it used to be. Same rules as
// SetEnabled: tests only, restored in t.Cleanup, never in parallel.
func SetPoison(on bool) (was bool) { return poison.Swap(on) }

// Stats is a point-in-time snapshot of one pool's counters.
type Stats struct {
	// Gets counts Get calls served from the pool (recycled slabs).
	Gets uint64 `json:"gets"`
	// Misses counts Get calls that allocated because the class was
	// empty.
	Misses uint64 `json:"misses"`
	// Oversize counts Get calls above the largest class (plain make,
	// never pooled).
	Oversize uint64 `json:"oversize"`
	// Puts counts slabs accepted back into a class.
	Puts uint64 `json:"puts"`
	// Drops counts Put calls rejected for a foreign capacity.
	Drops uint64 `json:"drops"`
	// RecycledBytes estimates the bytes served from recycled slabs
	// (class capacity × element size, summed over pool hits).
	RecycledBytes uint64 `json:"recycled_bytes"`
}

// SlicePool is a ladder of power-of-two size classes for []T slabs.
// Get returns a slice of the requested length whose capacity is the
// class size; Put returns it for reuse. Pools holding pointerful
// elements are cleared on Put so stale headers cannot retain dead
// heap. A nil *SlicePool is a valid pass-through: Get allocates, Put
// drops.
type SlicePool[T any] struct {
	name     string
	clear    bool
	elemSize uintptr
	classes  [numClasses]sync.Pool
	// boxes recycles the *[]T a class keeps a slab behind: Get parks the
	// emptied box here and Put refills it, so a warm pair allocates nothing.
	boxes sync.Pool

	gets, misses, oversize, puts, drops, recycledB atomic.Uint64
}

// NewSlicePool returns a registered pool named name whose slabs are
// cleared on Put — the right default for element types that hold
// pointers (strings, records). Use NewBytesPool for raw byte slabs.
func NewSlicePool[T any](name string) *SlicePool[T] {
	p := &SlicePool[T]{name: name, clear: true, elemSize: unsafe.Sizeof(*new(T))}
	register(p)
	return p
}

// NewBytesPool returns a registered []byte pool that skips the clear
// on Put (bytes hold no pointers, and wire slabs are fully overwritten
// before every read).
func NewBytesPool(name string) *SlicePool[byte] {
	p := &SlicePool[byte]{name: name, elemSize: 1}
	register(p)
	return p
}

// Get returns a slice of length n. From a non-nil pool the capacity is
// the class size and the contents of a recycled slab beyond what the
// caller writes are stale — callers must write every element they
// read. A nil or disabled pool returns make([]T, n).
func (p *SlicePool[T]) Get(n int) []T {
	if p == nil || disabled.Load() {
		return make([]T, n)
	}
	c := classFor(n)
	if c < 0 {
		p.oversize.Add(1)
		return make([]T, n)
	}
	if v := p.classes[c].Get(); v != nil {
		p.gets.Add(1)
		box := v.(*[]T)
		s := *box
		*box = nil
		p.boxes.Put(box)
		nb := uint64(cap(s)) * uint64(p.elemSize)
		p.recycledB.Add(nb)
		recycled(nb)
		return s[:n]
	}
	p.misses.Add(1)
	return make([]T, n, 1<<(minShift+c))
}

// Put returns s to its class for reuse. Slices with foreign capacities
// (not allocated by Get, or oversize) are dropped. Safe on a nil or
// disabled pool (the slab is dropped) and on nil slices.
func (p *SlicePool[T]) Put(s []T) {
	if p == nil || s == nil || disabled.Load() {
		return
	}
	c := classOf(cap(s))
	if c < 0 {
		p.drops.Add(1)
		return
	}
	s = s[:cap(s)]
	if p.clear {
		clear(s)
	} else if poison.Load() {
		if b, ok := any(s).([]byte); ok {
			for i := range b {
				b[i] = 0xDB
			}
		}
	}
	p.puts.Add(1)
	box, _ := p.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s
	p.classes[c].Put(box)
}

// Grow returns s with room for n more elements, growing through the pool
// instead of the allocator: when s lacks the room, a slab of at least
// double the capacity is drawn from the pool, the elements are copied
// across, and the old slab is returned for reuse. On a nil or disabled
// pool it returns s, and append grows it as usual.
func (p *SlicePool[T]) Grow(s []T, n int) []T {
	if cap(s)-len(s) >= n || p == nil || disabled.Load() {
		return s
	}
	grown := p.Get(max(2*cap(s), len(s)+n))[:len(s)]
	copy(grown, s)
	p.Put(s)
	return grown
}

// AppendOne appends v to s, growing it through the pool (Grow). The fast
// path (spare capacity) is a plain append.
func (p *SlicePool[T]) AppendOne(s []T, v T) []T {
	if len(s) < cap(s) {
		return append(s, v)
	}
	return append(p.Grow(s, 1), v)
}

// Stats snapshots the pool's counters. Safe on a nil pool.
func (p *SlicePool[T]) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return Stats{
		Gets:          p.gets.Load(),
		Misses:        p.misses.Load(),
		Oversize:      p.oversize.Load(),
		Puts:          p.puts.Load(),
		Drops:         p.drops.Load(),
		RecycledBytes: p.recycledB.Load(),
	}
}

func (p *SlicePool[T]) report() PoolReport {
	s := p.Stats()
	return PoolReport{Name: p.name, Stats: s}
}

// Frames is the shared pool for wire frames and page-read buffers —
// the raw byte slabs every subsystem slices records out of.
var Frames = NewBytesPool("frames")

// Process-wide recycle counters, read by the cost profiler (via the
// hook mempool registers into obs) so /debug/hotpath can report how
// much of a stage's demand was served from pools rather than the heap.
var recycledBytes, recycledObjects atomic.Uint64

func recycled(n uint64) {
	recycledBytes.Add(n)
	recycledObjects.Add(1)
}

// RecycledTotals returns the cumulative (bytes, slabs) served from all
// pools since process start.
func RecycledTotals() (uint64, uint64) {
	return recycledBytes.Load(), recycledObjects.Load()
}

// PoolReport is one pool's row in the /debug/mempool document.
type PoolReport struct {
	Name string `json:"name"`
	Stats
}

type reporter interface{ report() PoolReport }

var (
	regMu    sync.Mutex
	registry []reporter
)

func register(r reporter) {
	regMu.Lock()
	registry = append(registry, r)
	regMu.Unlock()
}

// Report snapshots every registered pool, in registration order.
func Report() []PoolReport {
	regMu.Lock()
	rs := make([]reporter, len(registry))
	copy(rs, registry)
	regMu.Unlock()
	out := make([]PoolReport, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.report())
	}
	return out
}
