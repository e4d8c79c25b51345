package obs

import (
	"runtime/metrics"
	"sync"
)

// Allocation sampling for the cost profiler. Stage boundaries read the
// process-global heap-allocation counters from runtime/metrics — unlike
// runtime.ReadMemStats this does not stop the world, so it is cheap
// enough to call four or five times per query. Deltas between two reads
// attribute allocation volume to the stage between them; concurrent
// queries smear into each other's deltas, which is acceptable for an
// aggregate profile (the per-shape means converge on the true split).

// AllocStat is a point-in-time reading of cumulative heap allocation,
// plus — filled by the caller from the buffer-pool layer's totals — the
// cumulative demand those pools served without touching the heap. The
// pair keeps the profiler honest under pooling: a stage whose alloc
// delta collapses but whose recycled delta grows moved its traffic into
// the pools; a stage where both collapse genuinely stopped asking for
// memory.
type AllocStat struct {
	// Bytes is the cumulative count of heap bytes allocated.
	Bytes uint64
	// Objects is the cumulative count of heap objects allocated.
	Objects uint64
	// RecycledBytes is the cumulative count of bytes served from
	// recycled pool slabs instead of the heap (zero unless the caller
	// read the pools).
	RecycledBytes uint64
	// RecycledSlabs is the cumulative count of slabs served from pools.
	RecycledSlabs uint64
}

// Sub returns the allocation delta from earlier to s, clamped at zero
// (counters are monotonic, but a zero reading from a disabled metric
// must not underflow).
func (s AllocStat) Sub(earlier AllocStat) AllocStat {
	d := AllocStat{}
	if s.Bytes > earlier.Bytes {
		d.Bytes = s.Bytes - earlier.Bytes
	}
	if s.Objects > earlier.Objects {
		d.Objects = s.Objects - earlier.Objects
	}
	if s.RecycledBytes > earlier.RecycledBytes {
		d.RecycledBytes = s.RecycledBytes - earlier.RecycledBytes
	}
	if s.RecycledSlabs > earlier.RecycledSlabs {
		d.RecycledSlabs = s.RecycledSlabs - earlier.RecycledSlabs
	}
	return d
}

var allocSamplePool = sync.Pool{
	New: func() any {
		s := make([]metrics.Sample, 2)
		s[0].Name = "/gc/heap/allocs:bytes"
		s[1].Name = "/gc/heap/allocs:objects"
		return &s
	},
}

// ReadAllocs samples the cumulative heap-allocation counters; the
// recycled fields stay zero (obs cannot import the pool layer without a
// cycle, so the engine fills them).
func ReadAllocs() AllocStat {
	sp := allocSamplePool.Get().(*[]metrics.Sample)
	metrics.Read(*sp)
	var st AllocStat
	if (*sp)[0].Value.Kind() == metrics.KindUint64 {
		st.Bytes = (*sp)[0].Value.Uint64()
	}
	if (*sp)[1].Value.Kind() == metrics.KindUint64 {
		st.Objects = (*sp)[1].Value.Uint64()
	}
	allocSamplePool.Put(sp)
	return st
}
