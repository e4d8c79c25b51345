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
	fs    decluster.FileSystem
	// solved is the field the device equation is solved for (the largest
	// unspecified field, matching InverseMapper), -1 when Unspec is empty.
	solved int
	// solvedSlot is solved's position within Unspec.
	solvedSlot int
	// tuples[g] flattens (len(Unspec)-wide) the free-field value tuples
	// whose folded contribution is g, in the exact order InverseMapper
	// enumerates them: rest fields row-major, solved-field preimages
	// ascending. nil on summary-only plans (no allocator, or RQ past the
	// compilation cap).
	tuples [][]int32
	// bytes approximates the plan's heap footprint, for cache accounting.
	bytes int
}

// Summary builds a tuple-less plan carrying only the shape-pure numbers
// (|R(q)| and the bound). The engine uses it for backends without an
// allocator (the TCP coordinator) and as the uncached fallback; devices
// seeing a summary plan fall back to their InverseMapper.
func Summary(q query.Query, rq, m int) *Plan {
	return &Plan{
		Shape:  q.Shape(),
		Unspec: q.UnspecifiedFields(),
		RQ:     rq,
		M:      m,
		Bound:  audit.Bound(rq, m),
		solved: -1,
		bytes:  64,
	}
}

// Compile builds the full plan for q's shape under alloc. When the
// shape's |R(q)| exceeds maxTuples (0 means no cap), the tuple groups
// are skipped and a summary plan is returned instead, so one enormous
// shape cannot blow up the cache.
func Compile(alloc decluster.GroupAllocator, q query.Query, maxTuples int) *Plan {
	fs := alloc.FileSystem()
	rq := q.NumQualified(fs)
	p := Summary(q, rq, fs.M)
	if maxTuples > 0 && rq > maxTuples {
		return p
	}
	p.alloc = alloc
	p.fs = fs
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
	p.solved = p.Unspec[solvedSlot]
	p.solvedSlot = solvedSlot
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
			for v := 0; v < fs.Sizes[p.solved]; v++ {
				buf[solvedSlot] = int32(v)
				c := g.Combine(acc, alloc.Contribution(p.solved, v), fs.M)
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
	p.bytes = 64 + 8*len(p.Unspec)
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

// residual returns the tuple group device dev serves for query q: with
// h the fold of q's specified contributions, dev = h · c_free, so
// c_free = h⁻¹ · dev.
func (p *Plan) residual(q query.Query, dev int) int {
	g := p.alloc.Op()
	h := 0
	for i, v := range q.Spec {
		if v != query.Unspecified {
			h = g.Combine(h, p.alloc.Contribution(i, v), p.fs.M)
		}
	}
	return g.Combine(g.Invert(h, p.fs.M), dev, p.fs.M)
}

// EachOnDevice calls fn for every bucket of R(q) on device dev, in the
// same order InverseMapper.EachOnDevice produces them. The slice passed
// to fn is reused; copy to retain. q must have the plan's shape and be
// in range (engine queries are, by construction from the schema).
func (p *Plan) EachOnDevice(q query.Query, dev int, fn func(bucket []int)) {
	c := p.residual(q, dev)
	b := make([]int, len(q.Spec))
	copy(b, q.Spec)
	k := len(p.Unspec)
	if k == 0 {
		// Fully specified query: the single qualified bucket lives on
		// device h, i.e. where the residual is the identity.
		if c == 0 {
			fn(b)
		}
		return
	}
	ts := p.tuples[c]
	for off := 0; off < len(ts); off += k {
		for j, i := range p.Unspec {
			b[i] = int(ts[off+j])
		}
		fn(b)
	}
}

// CountOnDevice returns r_dev(q) — the device's qualified-bucket count —
// without materialising buckets.
func (p *Plan) CountOnDevice(q query.Query, dev int) int {
	k := len(p.Unspec)
	if k == 0 {
		if p.residual(q, dev) == 0 {
			return 1
		}
		return 0
	}
	return len(p.tuples[p.residual(q, dev)]) / k
}
