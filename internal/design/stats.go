// This file collects the workload and data statistics that drive file
// design and method selection: per-field query specification frequencies
// (the p_i of the paper's §5 model, observed rather than assumed) and
// per-field distinct-value counts (which cap useful directory depths).

package design

import (
	"fmt"
	"sync"

	"fxdist/internal/mkhash"
	"fxdist/internal/query"
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
		return nil, fmt.Errorf("design: need at least one field")
	}
	return &Tracker{specified: make([]int, nFields)}, nil
}

// Observe records a bucket-level query.
func (t *Tracker) Observe(q query.Query) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(q.Spec) != len(t.specified) {
		return fmt.Errorf("design: query has %d fields, tracker %d", len(q.Spec), len(t.specified))
	}
	for i, v := range q.Spec {
		if v != query.Unspecified {
			t.specified[i]++
		}
	}
	t.queries++
	return nil
}

// ObservePartialMatch records a value-level query.
func (t *Tracker) ObservePartialMatch(pm mkhash.PartialMatch) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(pm) != len(t.specified) {
		return fmt.Errorf("design: query has %d fields, tracker %d", len(pm), len(t.specified))
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

// FileStats summarises a file's data distribution.
type FileStats struct {
	// Records is the record count.
	Records int
	// Distinct[i] is the exact number of distinct values in field i.
	Distinct []int
}

// Collect scans a file and counts distinct values per field.
func Collect(file *mkhash.File) FileStats {
	n := file.NumFields()
	sets := make([]map[string]struct{}, n)
	for i := range sets {
		sets[i] = make(map[string]struct{})
	}
	records := 0
	file.EachBucket(func(_ []int, recs []mkhash.Record) {
		for _, r := range recs {
			records++
			for i, v := range r {
				sets[i][v] = struct{}{}
			}
		}
	})
	fs := FileStats{Records: records, Distinct: make([]int, n)}
	for i, s := range sets {
		fs.Distinct[i] = len(s)
	}
	return fs
}

// MaxDepths returns the deepest useful directory per field: beyond
// ceil(log2(distinct)) extra bits leave cells empty.
func (fs FileStats) MaxDepths() []int {
	out := make([]int, len(fs.Distinct))
	for i, d := range fs.Distinct {
		depth := 0
		for 1<<depth < d {
			depth++
		}
		out[i] = depth
	}
	return out
}

// DesignFields combines data statistics with observed specification
// probabilities into inputs for the directory design problem.
func (fs FileStats) DesignFields(probs []float64) ([]Field, error) {
	if len(probs) != len(fs.Distinct) {
		return nil, fmt.Errorf("design: %d probabilities for %d fields", len(probs), len(fs.Distinct))
	}
	depths := fs.MaxDepths()
	out := make([]Field, len(probs))
	for i, p := range probs {
		out[i] = Field{SpecProb: p, MaxDepth: depths[i]}
	}
	return out, nil
}
