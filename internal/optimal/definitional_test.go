package optimal

import (
	"slices"
	"testing"

	"fxdist/internal/bitsx"
	"fxdist/internal/decluster"
	"fxdist/internal/query"
)

// bruteKOptimal checks k-optimality by enumerating every concrete query
// (every unspecified subset AND every assignment of specified values) and
// counting loads by scanning R(q) — the definition, with no reliance on
// convolution or translation invariance.
func bruteKOptimal(a decluster.GroupAllocator, k int) bool {
	fs := a.FileSystem()
	n := fs.NumFields()
	ok := true
	EachSubsetOfSize(n, k, func(unspec []int) {
		if !ok {
			return
		}
		isUnspec := make([]bool, n)
		for _, i := range unspec {
			isUnspec[i] = true
		}
		// Enumerate all assignments of specified values.
		spec := make([]int, n)
		var rec func(i int)
		rec = func(i int) {
			if !ok {
				return
			}
			if i == n {
				q := query.New(spec)
				loads := query.Loads(a, q)
				if slices.Max(loads) > bitsx.CeilDiv(q.NumQualified(fs), fs.M) {
					ok = false
				}
				return
			}
			if isUnspec[i] {
				spec[i] = query.Unspecified
				rec(i + 1)
				return
			}
			for v := 0; v < fs.Sizes[i]; v++ {
				spec[i] = v
				rec(i + 1)
			}
		}
		rec(0)
	})
	return ok
}

// KOptimal (one profile per subset, via convolution) must agree with the
// brute-force definition over every concrete query — this validates the
// translation-invariance shortcut the whole analysis pipeline rests on.
func TestKOptimalMatchesDefinition(t *testing.T) {
	configs := []struct {
		sizes []int
		m     int
	}{
		{[]int{2, 4}, 4},
		{[]int{4, 4}, 8},
		{[]int{2, 2, 4}, 4},
		{[]int{2, 4, 2}, 8},
	}
	for _, c := range configs {
		fs := decluster.MustFileSystem(c.sizes, c.m)
		allocs := []decluster.GroupAllocator{
			decluster.MustFX(fs),
			decluster.NewModulo(fs),
			decluster.MustGDM(fs, multipliersFor(len(c.sizes))),
		}
		for _, a := range allocs {
			for k := 0; k <= fs.NumFields(); k++ {
				fast := KOptimal(a, k)
				slow := bruteKOptimal(a, k)
				if fast != slow {
					t.Errorf("%s sizes=%v m=%d k=%d: KOptimal=%v, definition=%v",
						a.Name(), c.sizes, c.m, k, fast, slow)
				}
			}
		}
	}
}

func multipliersFor(n int) []int {
	base := []int{3, 5, 7, 11, 13, 17}
	return base[:n]
}

// PerfectOptimal must equal the conjunction of all k-optimalities.
func TestPerfectOptimalIsConjunction(t *testing.T) {
	fs := decluster.MustFileSystem([]int{2, 4, 2}, 8)
	for _, a := range []decluster.GroupAllocator{
		decluster.MustFX(fs),
		decluster.NewModulo(fs),
	} {
		all := true
		for k := 0; k <= 3; k++ {
			if !KOptimal(a, k) {
				all = false
			}
		}
		if PerfectOptimal(a) != all {
			t.Errorf("%s: PerfectOptimal=%v, conjunction=%v", a.Name(), PerfectOptimal(a), all)
		}
	}
}
