// Package plancache compiles and caches per-shape retrieval plans.
//
// The engine executor's per-retrieval work — validation, |R(q)|, the
// strict-optimality bound ceil(|R(q)|/M), and each device's qualified-
// bucket enumeration — is almost entirely a function of the *query
// shape* (which fields are unspecified), not of the specified values.
// The paper's own §4–5 analysis is shape-based for exactly this reason.
// For a group allocator the device of a bucket factors as
//
//	device(b) = h · c_free      h = fold of the specified contributions,
//	                            c_free = fold of the free-field ones,
//
// so the free-field value tuples can be grouped by their folded
// contribution once per shape: device dev serves exactly the tuples in
// group h⁻¹ · dev, whatever values the query specifies. A Plan stores
// those groups; answering a concrete query is then a lookup plus a
// substitution walk, with no per-call recursion, reverse-index probing
// or re-validation.
//
// Plans are held in per-cluster Caches (LRU, singleflight-guarded),
// keyed by (allocator identity, shape) so a rebuilt allocator — e.g.
// after a snapshot reload — can never serve another allocator's plan.
// Cache traffic is mirrored into the obs metric registry and the
// /debug/plancache endpoint.
package plancache

import (
	"fxdist/internal/audit"
	"fxdist/internal/convolve"
	"fxdist/internal/decluster"
	"fxdist/internal/query"
)

// Plan is one compiled retrieval plan for a (allocator, shape) pair.
// Plans are immutable after compilation and safe for concurrent use.
type Plan struct {
	// Shape is the query-shape key: 's' per specified field, '*' per
	// unspecified one.
	Shape string
	// Unspec lists the unspecified field indices in field order.
	Unspec []int
	// RQ is |R(q)|, the number of qualified buckets — identical for
	// every query of this shape.
	RQ int
	// M is the device count the plan was compiled for.
	M int
	// Bound is the paper's strict-optimality bound ceil(RQ/M).
	Bound int

	alloc decluster.GroupAllocator
	// counts[g] is the number of free-field value tuples whose folded
	// contribution is g (convolve.Profile): what device h·g holds of any
	// query of the shape, so the devices that hold nothing are known
	// without tuples. nil only on plans built without an allocator.
	counts []int
	// tuples[g] flattens (len(Unspec)-wide) the free-field value tuples
	// whose folded contribution is g, in the exact order InverseMapper
	// enumerates them: rest fields row-major, solved-field preimages
	// ascending. nil on plans without an allocator or with RQ past the
	// compilation cap.
	tuples [][]int32
	// bytes approximates the plan's heap footprint, for cache accounting.
	bytes int
}

// Summary builds a plan carrying only the shape-pure numbers (|R(q)| and
// the bound), with neither counts nor tuples. It is the engine's
// uncached fallback: the executor asks every device under it, and the
// devices enumerate with their InverseMapper.
func Summary(q query.Query, rq, m int) *Plan {
	return &Plan{
		Shape:  q.Shape(),
		Unspec: q.UnspecifiedFields(),
		RQ:     rq,
		M:      m,
		Bound:  audit.Bound(rq, m),
		bytes:  64,
	}
}

// Compile builds the plan for q's shape under alloc: the summary
// numbers, the per-group counts, and the tuple groups. When the shape's
// |R(q)| exceeds maxTuples (0 means no cap) the tuple groups are
// skipped, so one enormous shape cannot blow up the cache — and a cache
// whose reader wants only the counts (the TCP coordinator) holds O(M)
// per shape.
func Compile(alloc decluster.GroupAllocator, q query.Query, maxTuples int) *Plan {
	fs := alloc.FileSystem()
	rq := q.NumQualified(fs)
	p := Summary(q, rq, fs.M)
	p.alloc = alloc
	p.counts = convolve.Profile(alloc, p.Unspec)
	p.bytes += 8 * (len(p.Unspec) + len(p.counts))
	if maxTuples > 0 && rq > maxTuples {
		return p
	}
	k := len(p.Unspec)
	if k == 0 {
		p.tuples = make([][]int32, fs.M)
		return p
	}

	// Mirror InverseMapper's field split: solve for the (first) largest
	// unspecified field, enumerate the rest row-major. The enumeration
	// order inside each group must match EachOnDevice exactly so cached
	// and uncached retrievals return records in the same order.
	solvedSlot := 0
	for j, i := range p.Unspec {
		if fs.Sizes[i] > fs.Sizes[p.Unspec[solvedSlot]] {
			solvedSlot = j
		}
	}
	solved := p.Unspec[solvedSlot]
	rest := make([]int, 0, k-1)
	restSlots := make([]int, 0, k-1)
	for j, i := range p.Unspec {
		if j != solvedSlot {
			rest = append(rest, i)
			restSlots = append(restSlots, j)
		}
	}

	g := alloc.Op()
	tuples := make([][]int32, fs.M)
	buf := make([]int32, k)
	var rec func(j, acc int)
	rec = func(j, acc int) {
		if j == len(rest) {
			for v := 0; v < fs.Sizes[solved]; v++ {
				buf[solvedSlot] = int32(v)
				c := g.Combine(acc, alloc.Contribution(solved, v), fs.M)
				tuples[c] = append(tuples[c], buf...)
			}
			return
		}
		i := rest[j]
		for v := 0; v < fs.Sizes[i]; v++ {
			buf[restSlots[j]] = int32(v)
			rec(j+1, g.Combine(acc, alloc.Contribution(i, v), fs.M))
		}
	}
	rec(0, 0)
	p.tuples = tuples
	for _, ts := range tuples {
		p.bytes += 24 + 4*len(ts)
	}
	return p
}

// Ready reports whether the plan carries compiled tuple groups — i.e.
// whether devices can enumerate from it instead of the InverseMapper.
func (p *Plan) Ready() bool { return p.tuples != nil }

// Bytes approximates the plan's heap footprint.
func (p *Plan) Bytes() int { return p.bytes }

// Tuples returns the total number of cached free-field tuples.
func (p *Plan) Tuples() int {
	if len(p.Unspec) == 0 {
		return 0
	}
	n := 0
	for _, ts := range p.tuples {
		n += len(ts) / len(p.Unspec)
	}
	return n
}

// Fold returns h, the fold of q's specified contributions: device dev
// serves the tuple group h⁻¹ · dev, since dev = h · c_free. 0 on a plan
// without an allocator.
func (p *Plan) Fold(q query.Query) int {
	if p.alloc == nil {
		return 0
	}
	return q.Fold(p.alloc)
}

// residual returns the tuple group device dev serves under fold h.
func (p *Plan) residual(h, dev int) int {
	g := p.alloc.Op()
	return g.Combine(g.Invert(h, p.M), dev, p.M)
}

// MayHold reports whether device dev can hold a qualified bucket of a
// query of the shape whose specified contributions fold to h (Fold):
// false only when the plan counts none there, true for every device on a
// plan without counts.
func (p *Plan) MayHold(h, dev int) bool {
	return p.counts == nil || p.counts[p.residual(h, dev)] > 0
}

// CountOnDevice returns r_dev(q) — the device's qualified-bucket count —
// without materialising buckets. The plan must be compiled (Compile).
func (p *Plan) CountOnDevice(q query.Query, dev int) int {
	return p.counts[p.residual(p.Fold(q), dev)]
}

// Walk starts the enumeration of the buckets of R(q) on device dev of a
// Ready plan, in the order InverseMapper produces them, building the
// current bucket in scratch (query.TupleWalk). q must have the plan's
// shape and be in range (engine queries are, by construction from the
// schema).
func (p *Plan) Walk(q query.Query, dev int, scratch []int) query.Walk {
	c := p.residual(p.Fold(q), dev)
	if len(p.Unspec) == 0 {
		// Fully specified query: the single qualified bucket lives on
		// device h, i.e. where the residual is the identity.
		return query.TupleWalk(q, nil, nil, c == 0, scratch)
	}
	return query.TupleWalk(q, p.Unspec, p.tuples[c], false, scratch)
}
