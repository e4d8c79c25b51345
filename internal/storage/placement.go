// This file adds availability to a declustered file with *chained
// declustering* (Hsiao & DeWitt): each bucket's primary copy lives on the
// device the allocator chooses, and a backup copy lives on the next
// device around the ring. When a device fails, its buckets are served
// from their backups — and instead of dumping the whole failed load onto
// one successor (naive failover, 2x worst-case load), the chained scheme
// shifts a deterministic fraction of every survivor's primary load to its
// backup holder so the orphaned load spreads around the ring, bounding
// the per-device load at M/(M-1) of normal.
//
// The paper's FX distribution decides *where primaries go*; this file
// shows the same group-allocator machinery carrying a classic
// availability scheme on top.

package storage

import (
	"fmt"

	"fxdist/internal/convolve"
	"fxdist/internal/decluster"
	"fxdist/internal/query"
)

// ReplicaMode selects the failover policy.
type ReplicaMode int

const (
	// Chained spreads a failed device's load around the ring via
	// fractional offloading (max load M/(M-1) of normal).
	Chained ReplicaMode = iota
	// Naive serves all of a failed device's buckets from its single
	// backup holder (max load 2x normal).
	Naive
)

// String names the mode.
func (m ReplicaMode) String() string {
	switch m {
	case Chained:
		return "chained"
	case Naive:
		return "naive"
	default:
		return fmt.Sprintf("ReplicaMode(%d)", int(m))
	}
}

// Placement decides, for every bucket, which device serves it given the
// current failure set. It wraps a group allocator; primaries follow the
// allocator, backups sit on (primary+1) mod M.
type Placement struct {
	alloc  decluster.GroupAllocator
	fs     decluster.FileSystem
	mode   ReplicaMode
	failed []bool
	nfail  int
}

// NewPlacement builds a placement over the allocator with no failures.
func NewPlacement(alloc decluster.GroupAllocator, mode ReplicaMode) *Placement {
	fs := alloc.FileSystem()
	return &Placement{alloc: alloc, fs: fs, mode: mode, failed: make([]bool, fs.M)}
}

// Primary returns the bucket's primary device (the allocator's choice).
func (p *Placement) Primary(bucket []int) int { return p.alloc.Device(bucket) }

// Backup returns the bucket's backup device: the ring successor of its
// primary.
func (p *Placement) Backup(bucket []int) int {
	return (p.alloc.Device(bucket) + 1) % p.fs.M
}

// Fail marks a device failed. With chained declustering a single failure
// is survivable; a second adjacent failure would lose data, which Fail
// reports as an error (the backup of a failed device's data must be
// alive).
func (p *Placement) Fail(dev int) error {
	if dev < 0 || dev >= p.fs.M {
		return fmt.Errorf("storage: device %d out of range", dev)
	}
	if p.failed[dev] {
		return nil
	}
	prev := (dev - 1 + p.fs.M) % p.fs.M
	next := (dev + 1) % p.fs.M
	if p.failed[prev] || p.failed[next] {
		return fmt.Errorf("storage: failing device %d with a failed ring neighbour loses data", dev)
	}
	p.failed[dev] = true
	p.nfail++
	return nil
}

// Restore marks a device healthy again.
func (p *Placement) Restore(dev int) error {
	if dev < 0 || dev >= p.fs.M {
		return fmt.Errorf("storage: device %d out of range", dev)
	}
	if p.failed[dev] {
		p.failed[dev] = false
		p.nfail--
	}
	return nil
}

// Failed reports whether dev is failed.
func (p *Placement) Failed(dev int) bool { return p.failed[dev] }

// Server returns the device that serves the bucket under the current
// failure set, implementing the mode's failover policy.
func (p *Placement) Server(bucket []int) int {
	prim := p.alloc.Device(bucket)
	if !p.failed[prim] {
		if p.mode == Chained && p.nfail > 0 {
			// Fractional offload: device f+k serves k/(M-1) of its own
			// primary load; the rest shifts to its backup holder. Only
			// the failure "upstream" of prim matters.
			if f, ok := p.upstreamFailure(prim); ok {
				k := (prim - f + p.fs.M) % p.fs.M // distance from failure
				m1 := p.fs.M - 1
				next := (prim + 1) % p.fs.M
				// The last device in the chain (k = M-1) keeps all its
				// load: its backup holder is the failed device itself.
				if k < m1 && !p.failed[next] && p.bucketFraction(bucket) >= k {
					return next
				}
			}
		}
		return prim
	}
	// Primary failed: the backup holder serves it.
	return (prim + 1) % p.fs.M
}

// upstreamFailure finds the failed device for whose chain dev is a link:
// the nearest failed device scanning backwards around the ring.
func (p *Placement) upstreamFailure(dev int) (int, bool) {
	for k := 1; k < p.fs.M; k++ {
		d := (dev - k + p.fs.M) % p.fs.M
		if p.failed[d] {
			return d, true
		}
	}
	return 0, false
}

// bucketFraction maps a bucket deterministically to 0..M-2, so "serve
// fraction k/(M-1)" becomes "serve buckets whose fraction index < k".
// A multiplicative scramble decorrelates the index from the device number
// (which is itself a function of the coordinates).
func (p *Placement) bucketFraction(bucket []int) int {
	h := uint64(p.fs.Linear(bucket))
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	return int(h % uint64(p.fs.M-1))
}

// Loads returns the per-device served-bucket counts for a query under the
// current failure set. Failed devices always report zero.
func (p *Placement) Loads(q query.Query) []int {
	if err := q.Validate(p.fs); err != nil {
		panic(err)
	}
	loads := make([]int, p.fs.M)
	q.EachQualified(p.fs, func(b []int) {
		loads[p.Server(b)]++
	})
	return loads
}

// HealthyLoads returns what the load vector would be with no failures
// (the allocator's own loads) — the baseline for degradation ratios.
func (p *Placement) HealthyLoads(q query.Query) []int {
	return convolve.Loads(p.alloc, q)
}

// DegradationReport compares the largest response size with and without
// the current failures.
type DegradationReport struct {
	HealthyMax, DegradedMax int
	// Ratio is DegradedMax / HealthyMax.
	Ratio float64
}

// Degradation measures a query's largest-response-size degradation under
// the current failure set.
func (p *Placement) Degradation(q query.Query) DegradationReport {
	healthy := p.HealthyLoads(q)
	degraded := p.Loads(q)
	r := DegradationReport{}
	for _, v := range healthy {
		if v > r.HealthyMax {
			r.HealthyMax = v
		}
	}
	for _, v := range degraded {
		if v > r.DegradedMax {
			r.DegradedMax = v
		}
	}
	if r.HealthyMax > 0 {
		r.Ratio = float64(r.DegradedMax) / float64(r.HealthyMax)
	}
	return r
}
