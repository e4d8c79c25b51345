// Package query defines partial match queries over a multi-key hashed
// bucket grid and the machinery to answer them against a declustered file:
// qualified-bucket enumeration, per-device load measurement, and the
// *inverse mapping* the paper's §4.2 calls out — finding the qualified
// buckets that live on one particular device without scanning the whole
// grid, which is what each parallel device must do locally.
package query

import (
	"fmt"
	"strings"

	"fxdist/internal/decluster"
)

// Unspecified marks a field that the query leaves free.
const Unspecified = -1

// Query is a partial match query: Spec[i] is the hashed value the query
// specifies for field i, or Unspecified.
type Query struct {
	Spec []int
}

// New builds a query from a specification vector (values or Unspecified).
func New(spec []int) Query {
	return Query{Spec: append([]int(nil), spec...)}
}

// Exact builds the exact-match query for a bucket (no unspecified fields).
func Exact(bucket []int) Query { return New(bucket) }

// All builds the query with all n fields unspecified (whole-file
// retrieval).
func All(n int) Query {
	spec := make([]int, n)
	for i := range spec {
		spec[i] = Unspecified
	}
	return Query{Spec: spec}
}

// Validate checks q against a file system.
func (q Query) Validate(fs decluster.FileSystem) error {
	if len(q.Spec) != fs.NumFields() {
		return fmt.Errorf("query: %d fields specified, file system has %d", len(q.Spec), fs.NumFields())
	}
	for i, v := range q.Spec {
		if v == Unspecified {
			continue
		}
		if v < 0 || v >= fs.Sizes[i] {
			return fmt.Errorf("query: field %d value %d outside domain [0,%d)", i, v, fs.Sizes[i])
		}
	}
	return nil
}

// UnspecifiedFields returns the indices of unspecified fields in order.
func (q Query) UnspecifiedFields() []int {
	var out []int
	for i, v := range q.Spec {
		if v == Unspecified {
			out = append(out, i)
		}
	}
	return out
}

// NumUnspecified returns the count of unspecified fields (the paper's k).
func (q Query) NumUnspecified() int {
	k := 0
	for _, v := range q.Spec {
		if v == Unspecified {
			k++
		}
	}
	return k
}

// NumQualified returns |R(q)|: the number of buckets matching q, the
// product of the unspecified field sizes.
func (q Query) NumQualified(fs decluster.FileSystem) int {
	n := 1
	for i, v := range q.Spec {
		if v == Unspecified {
			n *= fs.Sizes[i]
		}
	}
	return n
}

// Fold returns h, the group fold of q's specified contributions under a:
// the device of a qualified bucket is h · (the fold of its free-field
// contributions).
func (q Query) Fold(a decluster.GroupAllocator) int {
	g, m := a.Op(), a.FileSystem().M
	h := 0
	for i, v := range q.Spec {
		if v != Unspecified {
			h = g.Combine(h, a.Contribution(i, v), m)
		}
	}
	return h
}

// Matches reports whether bucket satisfies q.
func (q Query) Matches(bucket []int) bool {
	for i, v := range q.Spec {
		if v != Unspecified && bucket[i] != v {
			return false
		}
	}
	return true
}

// EachQualified calls fn for every bucket in R(q), in row-major order over
// the unspecified fields. The slice passed to fn is reused; copy to
// retain.
func (q Query) EachQualified(fs decluster.FileSystem, fn func(bucket []int)) {
	b := make([]int, len(q.Spec))
	copy(b, q.Spec)
	unspec := q.UnspecifiedFields()
	var rec func(j int)
	rec = func(j int) {
		if j == len(unspec) {
			fn(b)
			return
		}
		i := unspec[j]
		for v := 0; v < fs.Sizes[i]; v++ {
			b[i] = v
			rec(j + 1)
		}
	}
	rec(0)
}

// Shape returns the query's shape key: one byte per field, 's' for
// specified and '*' for unspecified — e.g. "s**s". Two queries with the
// same unspecified field set are the same shape (the paper's query
// class), whatever values they specify.
func (q Query) Shape() string {
	return string(q.AppendShape(make([]byte, 0, len(q.Spec))))
}

// AppendShape appends the shape key to b: the form for a caller that
// looks a shape up (m[string(b)] does not allocate) rather than keeps it.
func (q Query) AppendShape(b []byte) []byte {
	for _, v := range q.Spec {
		if v == Unspecified {
			b = append(b, '*')
		} else {
			b = append(b, 's')
		}
	}
	return b
}

// String renders the query with '*' for unspecified fields, e.g. "<3,*,0>".
func (q Query) String() string {
	parts := make([]string, len(q.Spec))
	for i, v := range q.Spec {
		if v == Unspecified {
			parts[i] = "*"
		} else {
			parts[i] = fmt.Sprint(v)
		}
	}
	return "<" + strings.Join(parts, ",") + ">"
}

// Loads scans R(q) through the allocator and returns per-device qualified
// bucket counts — the response sizes r_i(q) of the paper's §5.2. This is
// the brute-force ground truth; package convolve computes the same vector
// without enumeration.
func Loads(a decluster.Allocator, q Query) []int {
	fs := a.FileSystem()
	if err := q.Validate(fs); err != nil {
		panic(err)
	}
	h := make([]int, fs.M)
	q.EachQualified(fs, func(b []int) {
		h[a.Device(b)]++
	})
	return h
}

// LargestLoad returns MAX(r_0(q) ... r_{M-1}(q)), the paper's largest
// response size for q.
func LargestLoad(a decluster.Allocator, q Query) int {
	max := 0
	for _, v := range Loads(a, q) {
		if v > max {
			max = v
		}
	}
	return max
}
