// Package optimal implements the paper's optimality theory: exact
// strict/k/perfect optimality verdicts for group allocators, and the
// closed-form *sufficient conditions* of §4.2 (Corollaries 6.1 and 9.1)
// for FX and of [DuSo82] for Modulo, which the paper uses to compute the
// probability-of-optimality comparisons in Figures 1-4.
//
// A distribution is strict optimal for query q when no device holds more
// than ceil(|R(q)|/M) qualified buckets. For group allocators the load
// multiset depends only on the set of unspecified fields (see package
// convolve), so every verdict here is a function of that set.
package optimal

import (
	"slices"

	"fxdist/internal/bitsx"
	"fxdist/internal/convolve"
	"fxdist/internal/decluster"
	"fxdist/internal/field"
	"fxdist/internal/query"
)

// StrictForSubset reports whether a is strict optimal for every query
// whose unspecified field set is exactly unspec. Exact (via convolution),
// not a sufficient condition.
//
// A field whose contribution histogram is uniform over Z_M makes the load
// vector uniform outright (convolution with a uniform operand is uniform),
// so such subsets return true without convolving — which also keeps counts
// within int range for grids whose |R(q)| would overflow (e.g. ten fields
// of size 512).
func StrictForSubset(a decluster.GroupAllocator, unspec []int) bool {
	fs := a.FileSystem()
	hists := make([][]int, 0, len(unspec))
	for _, i := range unspec {
		h := convolve.FieldHistogram(a, i)
		if convolve.Uniform(h) {
			return true
		}
		hists = append(hists, h)
	}
	vec := make([]int, fs.M)
	vec[0] = 1
	r := 1
	for j, h := range hists {
		vec = convolve.Fold(a.Op(), fs.M, vec, h)
		r *= fs.Sizes[unspec[j]]
	}
	return slices.Max(vec) <= bitsx.CeilDiv(r, fs.M)
}

// StrictForQuery reports whether a is strict optimal for q. Exact.
func StrictForQuery(a decluster.GroupAllocator, q query.Query) bool {
	return StrictForSubset(a, q.UnspecifiedFields())
}

// KOptimal reports whether a is strict optimal for all queries with
// exactly k unspecified fields (the paper's k-optimality). Exact.
func KOptimal(a decluster.GroupAllocator, k int) bool {
	ok := true
	EachSubsetOfSize(a.FileSystem().NumFields(), k, func(s []int) {
		if ok && !StrictForSubset(a, s) {
			ok = false
		}
	})
	return ok
}

// PerfectOptimal reports whether a is k-optimal for every k = 0..n. Exact.
func PerfectOptimal(a decluster.GroupAllocator) bool {
	ok := true
	EachSubset(a.FileSystem().NumFields(), func(s []int) {
		if ok && !StrictForSubset(a, s) {
			ok = false
		}
	})
	return ok
}

// EachSubset calls fn with every subset of {0..n-1}, smallest first. The
// slice passed to fn is reused; copy to retain.
func EachSubset(n int, fn func(subset []int)) {
	for k := 0; k <= n; k++ {
		EachSubsetOfSize(n, k, fn)
	}
}

// EachSubsetOfSize calls fn with every k-element subset of {0..n-1} in
// lexicographic order. The slice passed to fn is reused; copy to retain.
func EachSubsetOfSize(n, k int, fn func(subset []int)) {
	if k < 0 || k > n {
		return
	}
	s := make([]int, k)
	var rec func(pos, next int)
	rec = func(pos, next int) {
		if pos == k {
			fn(s)
			return
		}
		for v := next; v <= n-(k-pos); v++ {
			s[pos] = v
			rec(pos+1, v+1)
		}
	}
	rec(0, 0)
}

// effectiveKind maps a plan function to its effective method: IU2 with
// F*F >= M degenerates to IU1 (paper note after Lemma 7.1), so §4.2's
// conditions must treat it as IU1.
func effectiveKind(fn field.Func) field.Kind {
	if fn.Kind() == field.IU2 && fn.D2() == 0 {
		return field.IU1
	}
	return fn.Kind()
}

// differentMethods reports whether the §4.2 "different transformation
// methods" precondition holds for fields i and j of the plan. The summary
// notes that "IU1 and IU2 combination do not apply", so that pair does not
// count as different.
func differentMethods(plan field.Plan, i, j int) bool {
	ki, kj := effectiveKind(plan.Funcs[i]), effectiveKind(plan.Funcs[j])
	if ki == kj {
		return false
	}
	iu := func(k field.Kind) bool { return k == field.IU1 || k == field.IU2 }
	return !(iu(ki) && iu(kj))
}

// FXSufficient evaluates the paper's §4.2 summary conditions (the union of
// Theorems 1-9 and Corollaries 6.1 and 9.1): it returns true only when the
// theory *guarantees* FX is strict optimal for every query with the given
// unspecified field set. A false return means "not guaranteed", not "not
// optimal" — compare with StrictForSubset for the exact verdict.
func FXSufficient(x *decluster.FX, unspec []int) bool {
	fs := x.FileSystem()
	plan := x.Plan()
	k := len(unspec)

	// (1) Zero or one unspecified field: Theorem 1.
	if k <= 1 {
		return true
	}
	// (2) Any unspecified field of size >= M: Theorem 2.
	for _, i := range unspec {
		if fs.Sizes[i] >= fs.M {
			return true
		}
	}
	// From here every unspecified field is smaller than M.
	if k == 2 {
		// (3) Two unspecified fields with different methods:
		// Theorems 4, 5, 6, 7, 8.
		return differentMethods(plan, unspec[0], unspec[1])
	}
	// (4)a / (5)a: a pair p, q with F_p*F_q >= M and different methods:
	// Theorem 3 combined with the pairwise theorems (Corollary 6.1 cond. 3,
	// Corollary 9.1 cond. 3).
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			p, q := unspec[a], unspec[b]
			if fs.Sizes[p]*fs.Sizes[q] >= fs.M && differentMethods(plan, p, q) {
				return true
			}
		}
	}
	// (4)b / (5)b: an I, U, IU2 triple with F_IU2 >= F_U (Lemma 9.1's
	// second condition; a non-degenerate IU2 implies F_IU2^2 < M). For
	// four or more unspecified fields the triple must additionally cover
	// the device count: F_i*F_j*F_k >= M (Corollary 9.1 cond. 5).
	var iIdx, uIdx, iu2Idx []int
	for _, i := range unspec {
		switch effectiveKind(plan.Funcs[i]) {
		case field.I:
			iIdx = append(iIdx, i)
		case field.U:
			uIdx = append(uIdx, i)
		case field.IU2:
			iu2Idx = append(iu2Idx, i)
		}
	}
	for _, i := range iIdx {
		for _, j := range uIdx {
			for _, l := range iu2Idx {
				if fs.Sizes[l] < fs.Sizes[j] {
					continue
				}
				if k > 3 && fs.Sizes[i]*fs.Sizes[j]*fs.Sizes[l] < fs.M {
					continue
				}
				return true
			}
		}
	}
	return false
}

// Witness describes a query class on which an allocator misses strict
// optimality.
type Witness struct {
	// Unspec is the unspecified field set.
	Unspec []int
	// MaxLoad is the largest response size; Bound is ceil(|R(q)|/M). A
	// witness always has MaxLoad > Bound.
	MaxLoad, Bound int
}

// FindWitness returns a query class for which a is NOT strict optimal, or
// ok=false if a is perfect optimal. Among failing classes it returns one
// with the fewest unspecified fields (the earliest k at which optimality
// breaks).
func FindWitness(a decluster.GroupAllocator) (w Witness, ok bool) {
	fs := a.FileSystem()
	n := fs.NumFields()
	for k := 0; k <= n; k++ {
		found := false
		EachSubsetOfSize(n, k, func(s []int) {
			if found {
				return
			}
			if !StrictForSubset(a, s) {
				r := convolve.QualifiedCount(fs, s)
				found = true
				w = Witness{
					Unspec:  append([]int(nil), s...),
					MaxLoad: convolve.LargestLoad(a, s),
					Bound:   bitsx.CeilDiv(r, fs.M),
				}
			}
		})
		if found {
			return w, true
		}
	}
	return Witness{}, false
}

// ModuloSufficient evaluates the [DuSo82] sufficient condition for Disk
// Modulo allocation, which the paper uses as the Modulo side of Figures
// 1-4: strict optimality is guaranteed when at most one field is
// unspecified, or when some unspecified field's size is a multiple of M
// (with power-of-two sizes: F_i >= M).
func ModuloSufficient(fs decluster.FileSystem, unspec []int) bool {
	if len(unspec) <= 1 {
		return true
	}
	for _, i := range unspec {
		if fs.Sizes[i]%fs.M == 0 {
			return true
		}
	}
	return false
}
