// This file collects the workload statistic that drives file design and
// method selection: per-field query specification frequencies (the p_i
// of the paper's §5 model, observed rather than assumed).

package analysis

import (
	"fmt"
	"sync"

	"fxdist/internal/mkhash"
)

// Tracker accumulates per-field specification frequencies from an
// observed query stream. Safe for concurrent use.
type Tracker struct {
	mu        sync.Mutex
	specified []int
	queries   int
}

// NewTracker builds a tracker for an n-field file.
func NewTracker(nFields int) (*Tracker, error) {
	if nFields <= 0 {
		return nil, fmt.Errorf("analysis: need at least one field")
	}
	return &Tracker{specified: make([]int, nFields)}, nil
}

// ObservePartialMatch records a value-level query.
func (t *Tracker) ObservePartialMatch(pm mkhash.PartialMatch) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(pm) != len(t.specified) {
		return fmt.Errorf("analysis: query has %d fields, tracker %d", len(pm), len(t.specified))
	}
	for i, v := range pm {
		if v != nil {
			t.specified[i]++
		}
	}
	t.queries++
	return nil
}

// Queries returns the number of observed queries.
func (t *Tracker) Queries() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.queries
}

// SpecProbs returns the observed per-field specification frequencies.
// With no observations it returns the uninformative prior 0.5 everywhere.
func (t *Tracker) SpecProbs() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, len(t.specified))
	if t.queries == 0 {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	for i, s := range t.specified {
		out[i] = float64(s) / float64(t.queries)
	}
	return out
}
