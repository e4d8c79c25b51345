// Package plancache compiles and caches per-shape retrieval plans.
//
// What a retrieval needs before it fans out — validation, |R(q)|, the
// strict-optimality bound ceil(|R(q)|/M), and which devices hold a
// qualified bucket at all — is a function of the *query shape* (which
// fields are unspecified), not of the specified values. The paper's own
// §4–5 analysis is shape-based for exactly this reason. For a group
// allocator the device of a bucket factors as
//
//	device(b) = h · c_free      h = fold of the specified contributions,
//	                            c_free = fold of the free-field ones,
//
// so counting the free-field value combinations by their folded
// contribution once per shape says what every device holds of any query
// of the shape: device dev holds counts[h⁻¹ · dev] buckets, whatever
// values the query specifies; the busiest is h·g*, g* a group of
// max(counts). A Plan is those O(M) numbers and nothing else; devices
// enumerate buckets themselves (§4.2, query.InverseMapper.Walk).
//
// Every retrieval runs under such a plan. Plans are held in one LRU
// Cache per executor, keyed by shape: an executor has one allocator, and
// a rebuilt allocator — e.g. after a snapshot reload — always comes with
// a new cluster and so a new cache. Cache traffic is counted once, in the
// cluster's metric registry, which /debug/plancache reads too.
package plancache

import (
	"fxdist/internal/convolve"
	"fxdist/internal/decluster"
	"fxdist/internal/obs"
	"fxdist/internal/query"
)

// Plan is one compiled retrieval plan for a (allocator, shape) pair.
// Plans are immutable after compilation and safe for concurrent use.
type Plan struct {
	// Shape is the query-shape key: 's' per specified field, '*' per
	// unspecified one.
	Shape string
	// RQ is |R(q)|, the number of qualified buckets — identical for
	// every query of this shape.
	RQ int
	// M is the device count the plan was compiled for.
	M int
	// Bound is the paper's strict-optimality bound ceil(RQ/M).
	Bound int
	// MaxLoad is max(counts), the busiest device's share of every query.
	MaxLoad int

	alloc decluster.GroupAllocator
	// counts[g] is the number of free-field value combinations whose
	// folded contribution is g (convolve.Profile): what device h·g holds
	// of any query of the shape.
	counts []int
	worst  int // a group g* with counts[g*] = MaxLoad
}

// Compile builds the plan for q's shape under alloc: |R(q)|, the bound
// and the per-group counts. The third parameter is ignored — it capped
// a per-device bucket list plans no longer carry — and stays only
// because bench/fxload/layers.go passes one and only a [benchmark] PR may
// edit bench/.
func Compile(alloc decluster.GroupAllocator, q query.Query, _ int) *Plan {
	fs := alloc.FileSystem()
	rq := q.NumQualified(fs)
	p := &Plan{
		Shape:  q.Shape(),
		RQ:     rq,
		M:      fs.M,
		Bound:  obs.Bound(rq, fs.M),
		alloc:  alloc,
		counts: convolve.Profile(alloc, q.UnspecifiedFields()),
	}
	for g, n := range p.counts {
		if n > p.MaxLoad {
			p.MaxLoad, p.worst = n, g
		}
	}
	return p
}

// Violates reports whether every query of the shape breaks the bound.
func (p *Plan) Violates() bool { return p.MaxLoad > p.Bound }

// WorstDevice returns h·g*, the busiest device of the query of fold h.
func (p *Plan) WorstDevice(h int) int { return p.alloc.Op().Combine(h, p.worst, p.M) }

// Bytes approximates the plan's heap footprint, for cache accounting.
func (p *Plan) Bytes() int { return 64 + 8*len(p.counts) }

// Fold returns h, the fold of q's specified contributions: device dev
// holds the count of group h⁻¹ · dev, since dev = h · c_free.
func (p *Plan) Fold(q query.Query) int { return q.Fold(p.alloc) }

// residual returns the group device dev holds under fold h.
func (p *Plan) residual(h, dev int) int {
	g := p.alloc.Op()
	return g.Combine(g.Invert(h, p.M), dev, p.M)
}

// Count returns r_dev(q), what device dev holds of the query of the
// shape whose specified contributions fold to h (Fold).
func (p *Plan) Count(h, dev int) int { return p.counts[p.residual(h, dev)] }
