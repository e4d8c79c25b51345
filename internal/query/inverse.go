package query

import (
	"fxdist/internal/decluster"
)

// InverseMapper answers the per-device question of the paper's §4.2: which
// qualified buckets of a query reside on one given device? Each parallel
// device runs this locally, so it must not scan the whole grid. For group
// allocators the device equation
//
//	c_1(J_1) · ... · c_n(J_n) = dev        (in (Z_M, op))
//
// can be solved for the last unspecified field: fix values for all but one
// unspecified field, compute the contribution the remaining field must
// supply, and look it up in a per-field reverse index. The enumeration
// cost is |R(q)| / F_last * (average preimage size), independent of the
// total grid size.
type InverseMapper struct {
	a decluster.GroupAllocator
	// reverse[i][c] lists the values v of field i with Contribution(i,v)=c.
	reverse [][][]int
}

// NewInverseMapper precomputes reverse contribution indexes for a.
func NewInverseMapper(a decluster.GroupAllocator) *InverseMapper {
	fs := a.FileSystem()
	rev := make([][][]int, fs.NumFields())
	for i, f := range fs.Sizes {
		r := make([][]int, fs.M)
		for v := 0; v < f; v++ {
			c := a.Contribution(i, v)
			r[c] = append(r[c], v)
		}
		rev[i] = r
	}
	return &InverseMapper{a: a, reverse: rev}
}

// Allocator returns the allocator the mapper was built for.
func (im *InverseMapper) Allocator() decluster.GroupAllocator { return im.a }

// Walk is one enumeration of the buckets of R(q) on one device — the
// inverse mapper's odometer — pulled with Next until nil. A walk keeps
// its backing array between enumerations, so a finished one handed back
// to InverseMapper.Walk, or one started over a caller's array (WalkOver),
// enumerates without allocating. Not safe for concurrent use.
type Walk struct {
	im     *InverseMapper
	dev    int
	solved int   // the field the device equation is solved for, -1 when none is free
	buf    []int // one backing array for b, rest and acc
	b      []int // the current bucket: q.Spec with the free fields substituted
	rest   []int // the free fields other than solved, in field order
	acc    []int // acc[j] folds the specified contributions and those of rest[:j]
	pre    []int // solved-field values still to emit under the current rest values
	more   bool  // rest has further value combinations after the current one
}

// WalkOver returns a walk that enumerates in scratch — a caller's stack
// array, say — when it holds the 3n+1 ints a query of n fields needs;
// InverseMapper.Walk allocates its own array when it does not.
func WalkOver(scratch []int) Walk { return Walk{buf: scratch} }

// one stands in for the preimages when no field is free: the one
// qualified bucket is emitted once, as it is.
var one = []int{0}

// Walk starts the enumeration of the buckets of R(q) on device dev in
// w's slices (the zero Walk, WalkOver's, or a finished one to reuse). q
// must be valid for the allocator's file system (Query.Validate).
func (im *InverseMapper) Walk(w Walk, q Query, dev int) Walk {
	fs := im.a.FileSystem()
	w.im, w.dev, w.solved, w.more, w.pre = im, dev, -1, false, nil
	n := len(q.Spec)
	if cap(w.buf) < 3*n+1 {
		w.buf = make([]int, 3*n+1)
	}
	w.b, w.rest, w.acc = w.buf[:n], w.buf[n:n:2*n], w.buf[2*n:2*n:3*n+1]
	copy(w.b, q.Spec)

	// Solve for the largest unspecified field: removing the biggest domain
	// from the enumeration saves the most work.
	for i, v := range q.Spec {
		if v == Unspecified && (w.solved < 0 || fs.Sizes[i] > fs.Sizes[w.solved]) {
			w.solved = i
		}
	}
	h := q.Fold(im.a)
	w.acc = append(w.acc, h)
	if w.solved < 0 {
		if h == dev {
			w.pre = one
		}
		return w
	}
	for i, v := range q.Spec {
		if v == Unspecified && i != w.solved {
			w.rest = append(w.rest, i)
			w.b[i] = 0
			w.acc = append(w.acc, 0)
		}
	}
	w.more = true
	w.refold(0)
	return w
}

// refold recomputes the folds from rest[j] on and loads the solved-field
// preimages that land the current rest values on the device: the
// contribution c with acc · c = dev, i.e. c = acc⁻¹ · dev.
func (w *Walk) refold(j int) {
	a, m := w.im.a, w.im.a.FileSystem().M
	g := a.Op()
	for ; j < len(w.rest); j++ {
		w.acc[j+1] = g.Combine(w.acc[j], a.Contribution(w.rest[j], w.b[w.rest[j]]), m)
	}
	c := g.Combine(g.Invert(w.acc[len(w.rest)], m), w.dev, m)
	w.pre = w.im.reverse[w.solved][c]
}

// Next returns the next bucket, nil when the enumeration is over; the
// slice is reused by the following Next. Buckets come in row-major order
// over rest, the solved field's preimages ascending within each: the
// record order of every backend.
func (w *Walk) Next() []int {
	for {
		if len(w.pre) > 0 {
			if w.solved >= 0 {
				w.b[w.solved] = w.pre[0]
			}
			w.pre = w.pre[1:]
			return w.b
		}
		if !w.more {
			return nil
		}
		// Step the odometer over rest, last field fastest.
		sizes := w.im.a.FileSystem().Sizes
		j := len(w.rest) - 1
		for ; j >= 0; j-- {
			i := w.rest[j]
			if w.b[i]++; w.b[i] < sizes[i] {
				break
			}
			w.b[i] = 0
		}
		if j < 0 {
			w.more = false
			return nil
		}
		w.refold(j)
	}
}

// EachOnDevice calls fn for every bucket of R(q) that the allocator places
// on device dev, in Walk's order. The slice passed to fn is reused; copy
// to retain.
func (im *InverseMapper) EachOnDevice(q Query, dev int, fn func(bucket []int)) {
	if err := q.Validate(im.a.FileSystem()); err != nil {
		panic(err)
	}
	w := im.Walk(Walk{}, q, dev)
	for b := w.Next(); b != nil; b = w.Next() {
		fn(b)
	}
}

// CountOnDevice returns r_dev(q) without materialising buckets.
func (im *InverseMapper) CountOnDevice(q Query, dev int) int {
	n := 0
	im.EachOnDevice(q, dev, func([]int) { n++ })
	return n
}
