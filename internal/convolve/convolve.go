// Package convolve computes exact per-device load vectors for partial
// match queries under group allocators without enumerating qualified
// buckets.
//
// For a group allocator, the device of a qualified bucket is
//
//	dev = h · c_{i1}(v1) · c_{i2}(v2) · ... · c_{ik}(vk)
//
// where h folds the specified contributions and i1..ik are the unspecified
// fields. The load vector is therefore the group convolution of the
// per-field contribution histograms, translated by h. Because translation
// by h is a bijection of Z_M in both groups, the *multiset* of loads — and
// hence the largest response size, the optimality verdict, and any other
// symmetric statistic — does not depend on the specified values at all.
// That observation turns the paper's Tables 7-9, which average over every
// possible query, into a handful of convolutions.
package convolve

import (
	"fxdist/internal/decluster"
	"fxdist/internal/query"
)

// FieldHistogram returns g[c] = #{v in f_i : Contribution(i, v) = c}, the
// contribution histogram of one field.
func FieldHistogram(a decluster.GroupAllocator, fieldIdx int) []int {
	fs := a.FileSystem()
	g := make([]int, fs.M)
	for v := 0; v < fs.Sizes[fieldIdx]; v++ {
		g[a.Contribution(fieldIdx, v)]++
	}
	return g
}

// isUniform reports whether all entries of vec are equal.
func isUniform(vec []int) bool {
	for _, v := range vec[1:] {
		if v != vec[0] {
			return false
		}
	}
	return true
}

// convolveInto returns the group convolution of vec with the contribution
// histogram of one field: out[z·c] += vec[z] * g[c]. Convolving anything
// with a uniform operand yields a uniform result, so both uniform cases
// short-circuit — this is what makes sweeps over file systems with many
// fields of size >= M (whose contribution histograms are uniform) cheap.
func convolveInto(g decluster.Group, m int, vec, hist []int) []int {
	if isUniform(vec) || isUniform(hist) {
		vecSum, histSum := 0, 0
		for _, v := range vec {
			vecSum += v
		}
		for _, h := range hist {
			histSum += h
		}
		out := make([]int, m)
		per := vecSum * histSum / m
		for z := range out {
			out[z] = per
		}
		return out
	}
	out := make([]int, m)
	for c, gc := range hist {
		if gc == 0 {
			continue
		}
		for z, vz := range vec {
			if vz == 0 {
				continue
			}
			out[g.Combine(z, c, m)] += vz * gc
		}
	}
	return out
}

// Uniform reports whether all entries of a histogram are equal. A query
// with any unspecified field whose contribution histogram is uniform has a
// uniform load vector (convolving with a uniform operand yields a uniform
// result) and is therefore always distributed strict-optimally.
func Uniform(hist []int) bool { return isUniform(hist) }

// Fold returns the group convolution of vec with hist under g on Z_M.
func Fold(g decluster.Group, m int, vec, hist []int) []int {
	return convolveInto(g, m, vec, hist)
}

// Loads returns the per-device qualified-bucket counts for q under a —
// the same vector as query.Loads, computed in
// O(M * sum over unspecified fields of min(F_i, M)) instead of O(|R(q)|):
// the shape's profile translated by the fold of q's specified
// contributions.
func Loads(a decluster.GroupAllocator, q query.Query) []int {
	fs := a.FileSystem()
	if err := q.Validate(fs); err != nil {
		panic(err)
	}
	g, h := a.Op(), q.Fold(a)
	prof := Profile(a, q.UnspecifiedFields())
	vec := make([]int, fs.M)
	for c, n := range prof {
		vec[g.Combine(h, c, fs.M)] = n
	}
	return vec
}

// Profile returns counts[c] = the number of value tuples of the fields in
// unspec whose contributions fold to c — the load vector of a query that
// leaves exactly those fields free and whose specified contributions
// fold to the identity (under every allocator here, the one specifying 0
// everywhere else). By the translation argument above, the load vector
// of ANY query with the same unspecified set is this profile permuted:
// device h·c holds counts[c] of its buckets, so the maximum, minimum,
// histogram and the set of devices that hold none are
// query-value-independent up to that one translation.
func Profile(a decluster.GroupAllocator, unspec []int) []int {
	fs := a.FileSystem()
	vec := make([]int, fs.M)
	vec[0] = 1
	for _, i := range unspec {
		vec = convolveInto(a.Op(), fs.M, vec, FieldHistogram(a, i))
	}
	return vec
}

// LargestLoad returns the largest response size for any query whose
// unspecified field set is unspec (it is the same for all of them).
func LargestLoad(a decluster.GroupAllocator, unspec []int) int {
	max := 0
	for _, v := range Profile(a, unspec) {
		if v > max {
			max = v
		}
	}
	return max
}

// QualifiedCount returns |R(q)| for the unspecified set.
func QualifiedCount(fs decluster.FileSystem, unspec []int) int {
	n := 1
	for _, i := range unspec {
		n *= fs.Sizes[i]
	}
	return n
}
