package analysis

import (
	"fmt"
	"math"

	"fxdist/internal/convolve"
	"fxdist/internal/decluster"
	"fxdist/internal/field"
	"fxdist/internal/optimal"
	"fxdist/internal/query"
)

// WeightedOptimality computes the probability that a random partial match
// query is distributed strict-optimally, under the paper's §5 query model:
// every field is specified independently with probability p. Subsets are
// weighted binomially — a query class with k unspecified fields has
// probability p^(n-k) * (1-p)^k. pred receives the unspecified field set.
//
// With p = 0.5 this reduces to the uniform percentage used by Figures 1-4
// (every subset equally likely).
func WeightedOptimality(n int, p float64, pred func(unspec []int) bool) (float64, error) {
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("analysis: specification probability %v outside [0,1]", p)
	}
	prob := 0.0
	optimal.EachSubset(n, func(s []int) {
		if pred(s) {
			k := len(s)
			prob += math.Pow(p, float64(n-k)) * math.Pow(1-p, float64(k))
		}
	})
	return prob, nil
}

// PlanSearchResult reports the best transform assignment found by
// exhaustive search.
type PlanSearchResult struct {
	// Kinds is the best per-field assignment.
	Kinds []field.Kind
	// OptimalPct is the exact percentage of query classes (subsets) the
	// assignment distributes strict-optimally.
	OptimalPct float64
	// PlannerPct is the same metric for the library's default planner, for
	// comparison.
	PlannerPct float64
	// Evaluated is the number of assignments scored.
	Evaluated int
}

// SearchBestPlan exhaustively scores every per-field transform assignment
// (I, U, IU1, IU2 on fields smaller than M; identity is forced elsewhere)
// by exact strict-optimality percentage over all query classes, and
// returns the best together with the default planner's score. Cost grows
// as 4^(small fields) * 2^n convolutions — fine for the paper-scale n
// this library targets; use it to validate or beat the planner on a
// specific file system.
func SearchBestPlan(fs decluster.FileSystem) (PlanSearchResult, error) {
	n := fs.NumFields()
	var small []int
	for i, f := range fs.Sizes {
		if f < fs.M {
			small = append(small, i)
		}
	}
	kindsOf := func(assignment []field.Kind) []field.Kind {
		kinds := make([]field.Kind, n)
		for j, i := range small {
			kinds[i] = assignment[j]
		}
		return kinds
	}
	score := func(fx *decluster.FX) float64 {
		return percentOf(n, func(s []int) bool { return optimal.StrictForSubset(fx, s) })
	}

	res := PlanSearchResult{OptimalPct: -1}
	options := []field.Kind{field.I, field.U, field.IU1, field.IU2}
	assignment := make([]field.Kind, len(small))
	var rec func(j int) error
	rec = func(j int) error {
		if j == len(assignment) {
			fx, err := decluster.NewFX(fs, field.WithKinds(kindsOf(assignment)))
			if err != nil {
				return err
			}
			res.Evaluated++
			if pct := score(fx); pct > res.OptimalPct {
				res.OptimalPct = pct
				res.Kinds = kindsOf(assignment)
			}
			return nil
		}
		for _, k := range options {
			assignment[j] = k
			if err := rec(j + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return PlanSearchResult{}, err
	}

	planner, err := decluster.NewFX(fs)
	if err != nil {
		return PlanSearchResult{}, err
	}
	res.PlannerPct = score(planner)
	return res, nil
}

// ResponseTableExhaustive computes the same rows as ResponseTable by
// enumerating every concrete query — every unspecified subset and every
// assignment of specified values — instead of one convolution per subset.
// It therefore accepts arbitrary Allocators (e.g. the MSP table
// heuristic), whose load vectors are not translation invariant. Cost is
// O(C(n,k) * prod F_i) per row: small grids only.
func ResponseTableExhaustive(fs decluster.FileSystem, methods []decluster.Allocator, ks []int) []ResponseRow {
	n := fs.NumFields()
	rows := make([]ResponseRow, 0, len(ks))
	for _, k := range ks {
		row := ResponseRow{K: k, Avg: make([]float64, len(methods))}
		queries := 0
		optSum := 0
		sums := make([]int, len(methods))
		optimal.EachSubsetOfSize(n, k, func(unspec []int) {
			isUnspec := make([]bool, n)
			for _, i := range unspec {
				isUnspec[i] = true
			}
			r := convolve.QualifiedCount(fs, unspec)
			bound := (r + fs.M - 1) / fs.M
			spec := make([]int, n)
			var rec func(i int)
			rec = func(i int) {
				if i == n {
					queries++
					optSum += bound
					q := query.New(spec)
					for mi, m := range methods {
						max := 0
						for _, l := range query.Loads(m, q) {
							if l > max {
								max = l
							}
						}
						sums[mi] += max
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
		if queries == 0 {
			continue
		}
		for i := range methods {
			row.Avg[i] = float64(sums[i]) / float64(queries)
		}
		row.Optimal = float64(optSum) / float64(queries)
		rows = append(rows, row)
	}
	return rows
}

// MSweepPoint is one device-count position of an M-sweep: fixed field
// sizes, growing machine.
type MSweepPoint struct {
	M int
	// FXExactPct / ModuloExactPct are exact strict-optimality percentages
	// over all query classes.
	FXExactPct, ModuloExactPct float64
	// FXCertifiedPct is the §4.2 sufficient-condition percentage.
	FXCertifiedPct float64
	// SmallFields is the number of fields smaller than this M.
	SmallFields int
}

// MSweep quantifies the paper's closing caveat — "FX distribution does
// not guarantee strict optimal distribution when the number of parallel
// devices is quite large and all field sizes are much smaller" — by
// sweeping the device count over fixed field sizes and measuring exact
// and certified optimality percentages. ms entries must be powers of two.
func MSweep(sizes []int, ms []int, fam Family) ([]MSweepPoint, error) {
	out := make([]MSweepPoint, 0, len(ms))
	for _, m := range ms {
		fs, err := decluster.NewFileSystem(sizes, m)
		if err != nil {
			return nil, err
		}
		fx, err := decluster.NewFX(fs, field.WithFamily(fam))
		if err != nil {
			return nil, err
		}
		md := decluster.NewModulo(fs)
		n := fs.NumFields()
		out = append(out, MSweepPoint{
			M:           m,
			SmallFields: fs.SmallFieldCount(),
			FXExactPct: percentOf(n, func(s []int) bool {
				return optimal.StrictForSubset(fx, s)
			}),
			ModuloExactPct: percentOf(n, func(s []int) bool {
				return optimal.StrictForSubset(md, s)
			}),
			FXCertifiedPct: percentOf(n, func(s []int) bool {
				return optimal.FXSufficient(fx, s)
			}),
		})
	}
	return out, nil
}

// ExpectedLargest computes the workload-weighted expected largest
// response size of an allocator: sum over query classes of
// P(class) * largest load, with field i specified independently with
// probability probs[i]. This is the scalar that a method recommendation
// should minimise for a known workload.
func ExpectedLargest(a decluster.GroupAllocator, probs []float64) (float64, error) {
	fs := a.FileSystem()
	n := fs.NumFields()
	if len(probs) != n {
		return 0, fmt.Errorf("analysis: %d probabilities for %d fields", len(probs), n)
	}
	for i, p := range probs {
		if p < 0 || p > 1 {
			return 0, fmt.Errorf("analysis: probability %v of field %d outside [0,1]", p, i)
		}
	}
	total := 0.0
	optimal.EachSubset(n, func(s []int) {
		// The class weight, field by field; s is ascending.
		w, unspec := 1.0, s
		for i, p := range probs {
			if len(unspec) > 0 && unspec[0] == i {
				w, unspec = w*(1-p), unspec[1:]
			} else {
				w *= p
			}
		}
		if w != 0 {
			total += w * float64(convolve.LargestLoad(a, s))
		}
	})
	return total, nil
}

// Recommendation reports a workload-aware method choice.
type Recommendation struct {
	// Best is the index into the candidate slice of the method with the
	// lowest expected largest response size.
	Best int
	// Name is the winning method's name.
	Name string
	// Expected[i] is candidate i's workload-weighted expected largest
	// response size.
	Expected []float64
}

// Recommend scores candidate allocators by ExpectedLargest under the
// observed specification probabilities and returns the winner.
func Recommend(candidates []decluster.GroupAllocator, probs []float64) (Recommendation, error) {
	if len(candidates) == 0 {
		return Recommendation{}, fmt.Errorf("analysis: no candidates")
	}
	rec := Recommendation{Expected: make([]float64, len(candidates))}
	best := math.Inf(1)
	for i, a := range candidates {
		e, err := ExpectedLargest(a, probs)
		if err != nil {
			return Recommendation{}, fmt.Errorf("analysis: candidate %s: %w", a.Name(), err)
		}
		rec.Expected[i] = e
		if e < best {
			best = e
			rec.Best = i
			rec.Name = a.Name()
		}
	}
	return rec, nil
}

// PSweepPoint is one specification-probability position of a p-sweep.
type PSweepPoint struct {
	P float64
	// FXPct / ModuloPct are strict-optimality probabilities (0..1) under
	// the exact verdicts, weighted by the query distribution at p.
	FXPct, ModuloPct float64
}

// PSweep computes the probability that a random partial match query is
// distributed strict-optimally as a function of the per-field
// specification probability p — generalising Figures 1-4's implicit
// p = 1/2 to the whole workload spectrum. fam selects FX's transform
// family.
func PSweep(fs decluster.FileSystem, fam Family, ps []float64) ([]PSweepPoint, error) {
	fx, err := decluster.NewFX(fs, field.WithFamily(fam))
	if err != nil {
		return nil, err
	}
	md := decluster.NewModulo(fs)
	n := fs.NumFields()
	// The exact verdict per subset is p-independent; compute once.
	fxOpt := make(map[string]bool)
	mdOpt := make(map[string]bool)
	key := func(s []int) string {
		b := make([]byte, n)
		for _, i := range s {
			b[i] = 1
		}
		return string(b)
	}
	optimal.EachSubset(n, func(s []int) {
		k := key(s)
		fxOpt[k] = optimal.StrictForSubset(fx, s)
		mdOpt[k] = optimal.StrictForSubset(md, s)
	})
	out := make([]PSweepPoint, 0, len(ps))
	for _, p := range ps {
		fxP, err := WeightedOptimality(n, p, func(s []int) bool { return fxOpt[key(s)] })
		if err != nil {
			return nil, err
		}
		mdP, err := WeightedOptimality(n, p, func(s []int) bool { return mdOpt[key(s)] })
		if err != nil {
			return nil, err
		}
		out = append(out, PSweepPoint{P: p, FXPct: fxP, ModuloPct: mdP})
	}
	return out, nil
}

// GDMSearchResult reports a multiplier search.
type GDMSearchResult struct {
	Multipliers []int
	// AvgLargest is the k-averaged largest response size of the best set.
	AvgLargest float64
	Evaluated  int
}

// SearchGDM scores `trials` deterministic pseudo-random odd multiplier
// sets by average largest response size over all subsets of size k and
// returns the best — the "trial and error" the paper says GDM requires.
// The generator is a small linear congruential sequence so results are
// reproducible without a seed parameter.
func SearchGDM(fs decluster.FileSystem, k, trials, maxMultiplier int) (GDMSearchResult, error) {
	if trials <= 0 || maxMultiplier < 3 {
		return GDMSearchResult{}, fmt.Errorf("analysis: need trials > 0 and maxMultiplier >= 3")
	}
	res := GDMSearchResult{AvgLargest: math.Inf(1)}
	state := uint64(0x9E3779B97F4A7C15)
	next := func() int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state >> 33)
	}
	for t := 0; t < trials; t++ {
		mult := make([]int, fs.NumFields())
		for i := range mult {
			// Odd multipliers in [1, maxMultiplier].
			mult[i] = 2*(next()%((maxMultiplier+1)/2)) + 1
		}
		g, err := decluster.NewGDM(fs, mult)
		if err != nil {
			return GDMSearchResult{}, err
		}
		rows := ResponseTable(fs, []decluster.GroupAllocator{g}, []int{k})
		res.Evaluated++
		if avg := rows[0].Avg[0]; avg < res.AvgLargest {
			res.AvgLargest = avg
			res.Multipliers = mult
		}
	}
	return res, nil
}
