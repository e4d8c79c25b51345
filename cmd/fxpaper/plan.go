package main

import (
	"flag"
	"fmt"
	"io"

	"fxdist"
	"fxdist/internal/analysis"
	"fxdist/internal/cliutil"
)

// runPlan advises on declustering a file system: it plans FX field
// transformations for the given field sizes and device count, reports how
// much of the query space is certifiably and exactly strict-optimal,
// names a failing query class when one exists, and can exhaustively
// search all transform assignments.
func runPlan(flags *flag.FlagSet, args []string, out io.Writer) error {
	fieldsArg := flags.String("fields", "", "comma-separated field sizes (powers of two)")
	m := flags.Int("m", 0, "number of parallel devices (power of two)")
	search := flags.Bool("search", false, "exhaustively search all transform assignments")
	p := flags.Float64("p", 0.5, "per-field specification probability for the weighted score")
	if err := parse(flags, args); err != nil {
		return err
	}

	sizes, err := cliutil.ParseSizes(*fieldsArg)
	if err != nil {
		return err
	}
	fs, err := fxdist.NewFileSystem(sizes, *m)
	if err != nil {
		return err
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "file system: F = %v, M = %d (%d fields smaller than M)\n",
		sizes, *m, fs.SmallFieldCount())
	fmt.Fprintf(out, "recommended plan: %v\n\n", fx.Plan().Kinds())

	n := fs.NumFields()
	scores := []struct {
		label string
		holds func(q fxdist.Query) bool
	}{
		{"FX certified (§4.2 conditions):", func(q fxdist.Query) bool { return fxdist.FXGuaranteed(fx, q) }},
		{"FX exact:", func(q fxdist.Query) bool { return fxdist.StrictOptimal(fx, q) }},
		{"Modulo certified [DuSo82]:", func(q fxdist.Query) bool { return fxdist.ModuloGuaranteed(fs, q) }},
	}
	lines := fmt.Sprintf("strict-optimal probability at specification probability p = %.2f:\n", *p)
	for _, sc := range scores {
		w, err := analysis.WeightedOptimality(n, *p, func(s []int) bool { return sc.holds(subsetQuery(n, s)) })
		if err != nil {
			return err
		}
		lines += fmt.Sprintf("  %-31s %6.2f%%\n", sc.label, 100*w)
	}
	fmt.Fprint(out, lines)

	if w, ok := fxdist.FindWitness(fx); ok {
		fmt.Fprintf(out, "\nnot perfect optimal; smallest failing query class: unspecified fields %v "+
			"(largest response %d, optimal bound %d)\n", w.Unspec, w.MaxLoad, w.Bound)
	} else {
		fmt.Fprintln(out, "\nperfect optimal: strict optimal for every partial match query")
	}

	if *search {
		res, err := analysis.SearchBestPlan(fs)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nexhaustive search over %d assignments:\n", res.Evaluated)
		fmt.Fprintf(out, "  best:    %v at %.2f%% of query classes\n", res.Kinds, res.OptimalPct)
		fmt.Fprintf(out, "  planner: %v at %.2f%%\n", fx.Plan().Kinds(), res.PlannerPct)
	}

	// Workload-weighted method recommendation.
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = *p
	}
	basic, err := fxdist.NewBasicFX(fs)
	if err != nil {
		return err
	}
	candidates := []fxdist.GroupAllocator{fx, basic, fxdist.NewModulo(fs)}
	rec, err := analysis.Recommend(candidates, probs)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nexpected largest response size at p = %.2f:\n", *p)
	for i, c := range candidates {
		marker := " "
		if i == rec.Best {
			marker = "*"
		}
		fmt.Fprintf(out, "  %s %-24s %8.2f\n", marker, c.Name(), rec.Expected[i])
	}
	fmt.Fprintf(out, "recommended method: %s\n", rec.Name)
	return nil
}

// subsetQuery builds the canonical query with the given unspecified set.
func subsetQuery(n int, unspec []int) fxdist.Query {
	spec := make([]int, n)
	for _, i := range unspec {
		spec[i] = fxdist.Unspecified
	}
	return fxdist.NewQuery(spec)
}
