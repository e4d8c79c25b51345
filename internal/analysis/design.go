// This file chooses per-field directory depths d_i (F_i = 2^{d_i},
// sum d_i = D) for a budget of D bits and the probability p_i that a
// query specifies each field, minimizing the expected number of
// qualified buckets
//
//	E = prod_i ( p_i + (1-p_i) * 2^{d_i} )
//
// — the design problem of Rothnie & Lozano and Aho & Ullman. The
// increments of log(p + (1-p)2^d) are increasing in d, so assigning bits
// greedily to the field with the smallest next multiplicative growth is
// exactly optimal; tests verify the greedy against exhaustive search.

package analysis

import (
	"fmt"
	"math"
)

// Field describes one field's design inputs.
type Field struct {
	// SpecProb is the probability a query specifies this field.
	SpecProb float64
	// MaxDepth caps the field's directory depth (e.g. log2 of its distinct
	// value count — deeper directories would leave cells empty). Zero
	// means unconstrained.
	MaxDepth int
}

// DepthResult is a depth assignment and its objective value.
type DepthResult struct {
	// Depths holds d_i per field; F_i = 2^{d_i}.
	Depths []int
	// ExpectedQualified is E[number of qualified buckets] for a random
	// query under the independence model.
	ExpectedQualified float64
}

// Sizes returns the field sizes 2^{d_i}.
func (r DepthResult) Sizes() []int {
	out := make([]int, len(r.Depths))
	for i, d := range r.Depths {
		out[i] = 1 << d
	}
	return out
}

func validate(totalBits int, fields []Field) error {
	if len(fields) == 0 {
		return fmt.Errorf("analysis: need at least one field")
	}
	if totalBits < 0 {
		return fmt.Errorf("analysis: negative bit budget %d", totalBits)
	}
	capSum := 0
	for i, f := range fields {
		if f.SpecProb < 0 || f.SpecProb > 1 {
			return fmt.Errorf("analysis: field %d specification probability %v outside [0,1]", i, f.SpecProb)
		}
		if f.MaxDepth < 0 {
			return fmt.Errorf("analysis: field %d negative max depth", i)
		}
		if f.MaxDepth == 0 {
			capSum += totalBits
		} else {
			capSum += f.MaxDepth
		}
	}
	if capSum < totalBits {
		return fmt.Errorf("analysis: depth caps admit only %d bits, budget is %d", capSum, totalBits)
	}
	return nil
}

// factor returns p + (1-p) * 2^d.
func factor(p float64, d int) float64 {
	return p + (1-p)*math.Pow(2, float64(d))
}

// ExpectedQualified evaluates the objective for a depth assignment.
func ExpectedQualified(depths []int, probs []float64) float64 {
	e := 1.0
	for i, d := range depths {
		e *= factor(probs[i], d)
	}
	return e
}

// Depths assigns totalBits directory bits across the fields greedily —
// provably optimal for this objective (see the file comment).
func Depths(totalBits int, fields []Field) (DepthResult, error) {
	if err := validate(totalBits, fields); err != nil {
		return DepthResult{}, err
	}
	depths := make([]int, len(fields))
	for bit := 0; bit < totalBits; bit++ {
		best, bestGrowth := -1, math.Inf(1)
		for i, f := range fields {
			if f.MaxDepth > 0 && depths[i] >= f.MaxDepth {
				continue
			}
			growth := factor(f.SpecProb, depths[i]+1) / factor(f.SpecProb, depths[i])
			if growth < bestGrowth {
				best, bestGrowth = i, growth
			}
		}
		if best < 0 {
			return DepthResult{}, fmt.Errorf("analysis: depth caps exhausted before placing %d bits", totalBits)
		}
		depths[best]++
	}
	probs := make([]float64, len(fields))
	for i, f := range fields {
		probs[i] = f.SpecProb
	}
	return DepthResult{Depths: depths, ExpectedQualified: ExpectedQualified(depths, probs)}, nil
}

// ExhaustiveDepths solves the same problem by full enumeration — O(D^n);
// the ground truth greedy is tested against.
func ExhaustiveDepths(totalBits int, fields []Field) (DepthResult, error) {
	if err := validate(totalBits, fields); err != nil {
		return DepthResult{}, err
	}
	probs := make([]float64, len(fields))
	for i, f := range fields {
		probs[i] = f.SpecProb
	}
	best := DepthResult{ExpectedQualified: math.Inf(1)}
	depths := make([]int, len(fields))
	var rec func(i, remaining int)
	rec = func(i, remaining int) {
		if i == len(fields)-1 {
			if fields[i].MaxDepth > 0 && remaining > fields[i].MaxDepth {
				return
			}
			depths[i] = remaining
			if e := ExpectedQualified(depths, probs); e < best.ExpectedQualified {
				best.ExpectedQualified = e
				best.Depths = append([]int(nil), depths...)
			}
			return
		}
		maxd := remaining
		if fields[i].MaxDepth > 0 && fields[i].MaxDepth < maxd {
			maxd = fields[i].MaxDepth
		}
		for d := 0; d <= maxd; d++ {
			depths[i] = d
			rec(i+1, remaining-d)
		}
	}
	rec(0, totalBits)
	if best.Depths == nil {
		return DepthResult{}, fmt.Errorf("analysis: no feasible assignment of %d bits", totalBits)
	}
	return best, nil
}

// BitsFor returns the directory budget needed to hold records at the
// target mean bucket occupancy: the smallest D with 2^D >= records/occupancy.
func BitsFor(records, occupancy int) (int, error) {
	if records <= 0 || occupancy <= 0 {
		return 0, fmt.Errorf("analysis: records and occupancy must be positive")
	}
	buckets := (records + occupancy - 1) / occupancy
	d := 0
	for 1<<d < buckets {
		d++
	}
	return d, nil
}
