package analysis

import (
	"math"
	"math/rand"
	"testing"
)

func TestValidate(t *testing.T) {
	if _, err := Depths(4, nil); err == nil {
		t.Error("no fields accepted")
	}
	if _, err := Depths(-1, []Field{{SpecProb: 0.5}}); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := Depths(4, []Field{{SpecProb: 1.5}}); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := Depths(4, []Field{{SpecProb: 0.5, MaxDepth: -2}}); err == nil {
		t.Error("negative max depth accepted")
	}
	if _, err := Depths(10, []Field{{SpecProb: 0.5, MaxDepth: 3}, {SpecProb: 0.5, MaxDepth: 3}}); err == nil {
		t.Error("infeasible caps accepted")
	}
}

func TestExpectedQualifiedIdentity(t *testing.T) {
	// Verify the closed form against explicit enumeration of all
	// specification patterns: E = sum over patterns of
	// P(pattern) * prod_{unspecified} 2^{d_i}.
	depths := []int{2, 3, 1}
	probs := []float64{0.7, 0.4, 0.9}
	var brute float64
	for mask := 0; mask < 8; mask++ {
		p := 1.0
		buckets := 1.0
		for i := 0; i < 3; i++ {
			if mask&(1<<i) != 0 { // specified
				p *= probs[i]
			} else {
				p *= 1 - probs[i]
				buckets *= math.Pow(2, float64(depths[i]))
			}
		}
		brute += p * buckets
	}
	if got := ExpectedQualified(depths, probs); math.Abs(got-brute) > 1e-9 {
		t.Errorf("closed form %v, brute force %v", got, brute)
	}
}

// Greedy must match exhaustive search on random instances.
func TestGreedyMatchesExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(3)
		fields := make([]Field, n)
		for i := range fields {
			fields[i] = Field{SpecProb: float64(r.Intn(11)) / 10}
			if r.Intn(3) == 0 {
				fields[i].MaxDepth = 1 + r.Intn(4)
			}
		}
		budget := r.Intn(8)
		capSum := 0
		for _, f := range fields {
			if f.MaxDepth == 0 {
				capSum += budget
			} else {
				capSum += f.MaxDepth
			}
		}
		if capSum < budget {
			continue
		}
		g, err := Depths(budget, fields)
		if err != nil {
			t.Fatalf("greedy: %v (fields=%v budget=%d)", err, fields, budget)
		}
		e, err := ExhaustiveDepths(budget, fields)
		if err != nil {
			t.Fatalf("exhaustive: %v", err)
		}
		if math.Abs(g.ExpectedQualified-e.ExpectedQualified) > 1e-9 {
			t.Errorf("fields=%v budget=%d: greedy %v (%v) vs exhaustive %v (%v)",
				fields, budget, g.ExpectedQualified, g.Depths, e.ExpectedQualified, e.Depths)
		}
		sum := 0
		for _, d := range g.Depths {
			sum += d
		}
		if sum != budget {
			t.Errorf("greedy used %d bits of %d", sum, budget)
		}
	}
}

// Classic qualitative result: frequently specified fields deserve deeper
// directories.
func TestBitsFollowSpecificationProbability(t *testing.T) {
	res, err := Depths(6, []Field{
		{SpecProb: 0.9}, // often specified: cheap to grow
		{SpecProb: 0.1}, // rarely specified: expensive to grow
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Depths[0] <= res.Depths[1] {
		t.Errorf("depths %v: often-specified field should get more bits", res.Depths)
	}
}

// Equal probabilities: bits split evenly (within one).
func TestEqualProbsSplitEvenly(t *testing.T) {
	res, err := Depths(9, []Field{{SpecProb: 0.5}, {SpecProb: 0.5}, {SpecProb: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	min, max := res.Depths[0], res.Depths[0]
	for _, d := range res.Depths {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if max-min > 1 {
		t.Errorf("uneven split %v for equal probabilities", res.Depths)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	res, err := Depths(8, []Field{
		{SpecProb: 0.99, MaxDepth: 2}, // attractive but capped
		{SpecProb: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Depths[0] > 2 {
		t.Errorf("cap violated: %v", res.Depths)
	}
	if res.Depths[0]+res.Depths[1] != 8 {
		t.Errorf("budget not used: %v", res.Depths)
	}
}

func TestResultSizes(t *testing.T) {
	r := DepthResult{Depths: []int{0, 3, 1}}
	s := r.Sizes()
	if s[0] != 1 || s[1] != 8 || s[2] != 2 {
		t.Errorf("Sizes = %v", s)
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct {
		records, occupancy, want int
	}{
		{1000, 10, 7}, // 100 buckets -> 128
		{1024, 1, 10}, // exactly 2^10
		{1025, 1, 11}, // just over
		{1, 100, 0},   // one bucket
	}
	for _, c := range cases {
		got, err := BitsFor(c.records, c.occupancy)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("BitsFor(%d,%d) = %d, want %d", c.records, c.occupancy, got, c.want)
		}
	}
	if _, err := BitsFor(0, 1); err == nil {
		t.Error("zero records accepted")
	}
	if _, err := BitsFor(1, 0); err == nil {
		t.Error("zero occupancy accepted")
	}
}

func TestExhaustiveValidatesToo(t *testing.T) {
	if _, err := ExhaustiveDepths(4, nil); err == nil {
		t.Error("no fields accepted")
	}
	// Single field with cap below budget is infeasible.
	if _, err := ExhaustiveDepths(5, []Field{{SpecProb: 0.5, MaxDepth: 3}}); err == nil {
		t.Error("infeasible single-field instance accepted")
	}
}
