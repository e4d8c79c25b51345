// Package analysis regenerates the paper's evaluation artifacts: the
// average largest-response-size tables (Tables 7-9), the
// probability-of-strict-optimality figures (Figures 1-4) and the §5.2.2
// CPU address-computation cost comparison (cost.go).
//
// Both rest on the translation-invariance theorem (see package convolve):
// for group allocators the load multiset of a query depends only on its
// set of unspecified fields, so "averaging over all possible partial match
// queries with k unspecified fields" — the paper's procedure — reduces to
// averaging one exact profile per k-element field subset. The paper's
// printed numbers confirm this reading: e.g. Table 9's Modulo entry for
// k=2 is (3*8 + 9*8 + 3*16)/15 = 9.6, the unweighted subset average.
package analysis

import (
	"fmt"

	"fxdist/internal/bitsx"
	"fxdist/internal/convolve"
	"fxdist/internal/decluster"
	"fxdist/internal/optimal"
)

// ResponseRow is one row of a largest-response-size table: the average
// largest response size per method for queries with K unspecified fields,
// plus the information-theoretic optimum avg(ceil(|R(q)|/M)).
type ResponseRow struct {
	K       int
	Avg     []float64 // one entry per method, in spec order
	Optimal float64
}

// ResponseTable computes rows for each k in ks, averaging the largest
// response size over all k-element unspecified field subsets for every
// method. All methods must share the same file system.
func ResponseTable(fs decluster.FileSystem, methods []decluster.GroupAllocator, ks []int) []ResponseRow {
	for _, m := range methods {
		mfs := m.FileSystem()
		if mfs.M != fs.M || mfs.NumFields() != fs.NumFields() {
			panic(fmt.Sprintf("analysis: method %s built for a different file system", m.Name()))
		}
	}
	rows := make([]ResponseRow, 0, len(ks))
	for _, k := range ks {
		row := ResponseRow{K: k, Avg: make([]float64, len(methods))}
		subsets := 0
		optSum := 0
		sums := make([]int, len(methods))
		optimal.EachSubsetOfSize(fs.NumFields(), k, func(s []int) {
			subsets++
			r := convolve.QualifiedCount(fs, s)
			optSum += bitsx.CeilDiv(r, fs.M)
			for i, m := range methods {
				sums[i] += convolve.LargestLoad(m, s)
			}
		})
		if subsets == 0 {
			continue
		}
		for i := range methods {
			row.Avg[i] = float64(sums[i]) / float64(subsets)
		}
		row.Optimal = float64(optSum) / float64(subsets)
		rows = append(rows, row)
	}
	return rows
}

// OptimalityPoint is one x-position of a Figure 1-4 series: the percentage
// of partial match queries (equivalently, unspecified field subsets) that
// each method distributes strict-optimally, for a file system with
// SmallFields fields smaller than M.
type OptimalityPoint struct {
	SmallFields int
	// ModuloPct is the Modulo percentage from the [DuSo82] sufficient
	// condition (the paper's MD series).
	ModuloPct float64
	// FXPct is the FX percentage from the §4.2 sufficient conditions (the
	// paper's FD series).
	FXPct float64
	// ModuloExactPct and FXExactPct are the exact percentages computed by
	// convolution — an extension: the paper plots only the
	// sufficient-condition series.
	ModuloExactPct float64
	FXExactPct     float64
}

// percentOf counts predicate hits over all 2^n subsets.
func percentOf(n int, pred func(s []int) bool) float64 {
	hits, total := 0, 0
	optimal.EachSubset(n, func(s []int) {
		total++
		if pred(s) {
			hits++
		}
	})
	return 100 * float64(hits) / float64(total)
}

// OptimalityCurve computes one Figure 1-4 series. For each x = 0..n it
// builds a file system with x fields of size smallF (< M) and n-x fields
// of size largeF (>= M), plans FX transformations round-robin in the given
// family (the paper's I, U, IU1/IU2 cycling), and reports the percentage
// of subsets certified optimal by each method's sufficient condition.
// When exact is true it additionally computes the exact percentages, which
// is feasible for the paper's parameter ranges but was beyond 1988 budgets.
func OptimalityCurve(n, m, smallF, largeF int, fam Family, exact bool) []OptimalityPoint {
	if smallF >= m {
		panic(fmt.Sprintf("analysis: smallF=%d must be < M=%d", smallF, m))
	}
	if largeF < m {
		panic(fmt.Sprintf("analysis: largeF=%d must be >= M=%d", largeF, m))
	}
	points := make([]OptimalityPoint, 0, n+1)
	for x := 0; x <= n; x++ {
		sizes := make([]int, n)
		for i := range sizes {
			if i < x {
				sizes[i] = smallF
			} else {
				sizes[i] = largeF
			}
		}
		fs := decluster.MustFileSystem(sizes, m)
		fx := newCurveFX(fs, fam)
		md := decluster.NewModulo(fs)
		p := OptimalityPoint{
			SmallFields: x,
			ModuloPct:   percentOf(n, func(s []int) bool { return optimal.ModuloSufficient(fs, s) }),
			FXPct:       percentOf(n, func(s []int) bool { return optimal.FXSufficient(fx, s) }),
		}
		if exact {
			p.ModuloExactPct = percentOf(n, func(s []int) bool { return optimal.StrictForSubset(md, s) })
			p.FXExactPct = percentOf(n, func(s []int) bool { return optimal.StrictForSubset(fx, s) })
		}
		points = append(points, p)
	}
	return points
}
