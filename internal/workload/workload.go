// Package workload generates synthetic relations and partial match query
// mixes for the examples and benchmarks. Query generation follows the
// paper's §5 assumption: every field is specified independently with the
// same probability.
//
// All generators are deterministic for a given seed.
package workload

import (
	"fmt"
	"math/rand"

	"fxdist/internal/mkhash"
	"fxdist/internal/query"
)

// FieldSpec describes one field's value universe.
type FieldSpec struct {
	// Name labels the field (also used as the value prefix).
	Name string
	// Cardinality is the number of distinct values in the universe.
	Cardinality int
	// ZipfS, when > 1, skews value frequencies with a Zipf(s) law; 0 draws
	// values uniformly. Values in (0, 1] are invalid.
	ZipfS float64
}

// RecordSpec describes a synthetic relation.
type RecordSpec struct {
	Fields []FieldSpec
}

// Validate checks the spec.
func (rs RecordSpec) Validate() error {
	if len(rs.Fields) == 0 {
		return fmt.Errorf("workload: record spec needs at least one field")
	}
	for i, f := range rs.Fields {
		if f.Cardinality <= 0 {
			return fmt.Errorf("workload: field %d cardinality %d, want > 0", i, f.Cardinality)
		}
		if f.ZipfS != 0 && f.ZipfS <= 1 {
			return fmt.Errorf("workload: field %d ZipfS %v, want 0 or > 1", i, f.ZipfS)
		}
	}
	return nil
}

// valueDrawer returns a deterministic per-field value index generator.
func valueDrawer(r *rand.Rand, f FieldSpec) func() int {
	if f.ZipfS == 0 {
		return func() int { return r.Intn(f.Cardinality) }
	}
	z := rand.NewZipf(r, f.ZipfS, 1, uint64(f.Cardinality-1))
	return func() int { return int(z.Uint64()) }
}

// Value renders value index v of field f, e.g. "make-17".
func (f FieldSpec) Value(v int) string { return fmt.Sprintf("%s-%d", f.Name, v) }

// Records generates n records under the spec.
func Records(spec RecordSpec, n int, seed int64) ([]mkhash.Record, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	draw := make([]func() int, len(spec.Fields))
	for i, f := range spec.Fields {
		draw[i] = valueDrawer(r, f)
	}
	// Each value is rendered once and shared by the records that draw
	// it, found by one lookup of an int key, and the records are carved
	// from one run of values.
	rendered := make(map[int]string)
	out := mkhash.Views(make([]string, n*len(spec.Fields)), len(spec.Fields), make([]mkhash.Record, 0, n))
	for _, rec := range out {
		for j, f := range spec.Fields {
			v := draw[j]()
			s, ok := rendered[v*len(spec.Fields)+j]
			if !ok {
				s = f.Value(v)
				rendered[v*len(spec.Fields)+j] = s
			}
			rec[j] = s
		}
	}
	return out, nil
}

// Schema derives an mkhash schema for the spec with the given per-field
// directory depths.
func Schema(spec RecordSpec, depths []int) mkhash.Schema {
	names := make([]string, len(spec.Fields))
	for i, f := range spec.Fields {
		names[i] = f.Name
	}
	return mkhash.Schema{Fields: names, Depths: depths}
}

// PartialMatches generates value-level partial match queries: each field
// is specified independently with probability p, and specified values are
// drawn from the field's universe (with its skew).
func PartialMatches(spec RecordSpec, count int, p float64, seed int64) ([]mkhash.PartialMatch, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("workload: specification probability %v outside [0,1]", p)
	}
	r := rand.New(rand.NewSource(seed))
	draw := make([]func() int, len(spec.Fields))
	for i, f := range spec.Fields {
		draw[i] = valueDrawer(r, f)
	}
	out := make([]mkhash.PartialMatch, count)
	for i := range out {
		pm := make(mkhash.PartialMatch, len(spec.Fields))
		for j, f := range spec.Fields {
			if r.Float64() < p {
				v := f.Value(draw[j]())
				pm[j] = &v
			}
		}
		out[i] = pm
	}
	return out, nil
}

// BucketQueries generates bucket-level partial match queries against a
// file system with the given field sizes: each field is specified
// independently with probability p, with specified hash values uniform
// over the field domain.
func BucketQueries(sizes []int, count int, p float64, seed int64) ([]query.Query, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("workload: need at least one field")
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("workload: specification probability %v outside [0,1]", p)
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]query.Query, count)
	for i := range out {
		spec := make([]int, len(sizes))
		for j, f := range sizes {
			if r.Float64() < p {
				spec[j] = r.Intn(f)
			} else {
				spec[j] = query.Unspecified
			}
		}
		out[i] = query.New(spec)
	}
	return out, nil
}
