// Package mkhash implements the multi-key hashed file the paper assumes as
// its substrate (after Rivest [Rive76] and Rothnie & Lozano [RoLo74]): a
// record's n field values are hashed independently, field i into a
// directory of F_i cells (F_i a power of two, as in dynamic/partitioned
// hashing schemes), and the record lands in the bucket addressed by the
// vector of hash values. Partial match queries then qualify a sub-grid of
// buckets.
//
// The file supports dynamic growth in the style of extendible hashing:
// each field has a depth d_i with F_i = 2^d_i, and growing a field doubles
// its directory by revealing one more bit of the 64-bit field hash, so
// existing records redistribute without rehashing from scratch.
package mkhash

import (
	"fmt"
	"slices"

	"fxdist/internal/decluster"
	"fxdist/internal/query"
)

// Record is one tuple; the file stores records by value.
type Record []string

// clone copies a record.
func (r Record) clone() Record { return append(Record(nil), r...) }

// Schema names the fields and fixes the initial directory depths.
type Schema struct {
	// Fields holds the field names, in order.
	Fields []string
	// Depths holds the initial per-field directory depth d_i (F_i = 2^d_i).
	Depths []int
}

// Validate checks the schema.
func (s Schema) Validate() error {
	if len(s.Fields) == 0 {
		return fmt.Errorf("mkhash: schema needs at least one field")
	}
	if len(s.Depths) != len(s.Fields) {
		return fmt.Errorf("mkhash: %d depths for %d fields", len(s.Depths), len(s.Fields))
	}
	for i, d := range s.Depths {
		if d < 0 || d > 30 {
			return fmt.Errorf("mkhash: depth of field %q is %d, want 0..30", s.Fields[i], d)
		}
	}
	return nil
}

// FieldHash maps a field value to a 64-bit hash; the file uses the low
// depth bits. Implementations must be deterministic.
type FieldHash func(value string) uint64

// FNV-1a, 64 bit (hash/fnv's constants). The loop is written out because
// the values decide bucket addresses on disk and hash.Hash64 costs three
// allocations per hashed field.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// DefaultHash is FNV-1a over the value bytes, salted with the two low
// bytes of the field index so equal values in different fields hash
// independently.
func DefaultHash(fieldIdx int) FieldHash {
	salted := uint64(fnvOffset64)
	salted = (salted ^ uint64(byte(fieldIdx))) * fnvPrime64
	salted = (salted ^ uint64(byte(fieldIdx>>8))) * fnvPrime64
	return func(value string) uint64 {
		h := salted
		for i := 0; i < len(value); i++ {
			h = (h ^ uint64(value[i])) * fnvPrime64
		}
		return h
	}
}

// File is a multi-key hashed file held in memory as a bucket grid.
type File struct {
	schema Schema
	depths []int
	hashes []FieldHash
	// buckets maps the linear bucket index to its records.
	buckets map[int][]Record
	count   int
}

// Option configures New.
type Option func(*File)

// WithHash overrides the hash function of one field.
func WithHash(fieldIdx int, h FieldHash) Option {
	return func(f *File) { f.hashes[fieldIdx] = h }
}

// New builds an empty file for the schema.
func New(schema Schema, opts ...Option) (*File, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	f := &File{
		schema:  schema,
		depths:  append([]int(nil), schema.Depths...),
		hashes:  make([]FieldHash, len(schema.Fields)),
		buckets: make(map[int][]Record),
	}
	for i := range f.hashes {
		f.hashes[i] = DefaultHash(i)
	}
	for _, opt := range opts {
		opt(f)
	}
	return f, nil
}

// MustNew is New, panicking on error.
func MustNew(schema Schema, opts ...Option) *File {
	f, err := New(schema, opts...)
	if err != nil {
		panic(err)
	}
	return f
}

// Schema returns the file's schema (with the original depths).
func (f *File) Schema() Schema { return f.schema }

// FileSystem returns the current bucket-grid description for m devices.
func (f *File) FileSystem(m int) (decluster.FileSystem, error) {
	return decluster.NewFileSystem(f.Sizes(), m)
}

// Sizes returns the current per-field directory sizes F_i = 2^d_i.
func (f *File) Sizes() []int {
	out := make([]int, len(f.depths))
	for i, d := range f.depths {
		out[i] = 1 << d
	}
	return out
}

// Depths returns the current per-field directory depths (they grow past
// the schema's initial depths as Grow is called).
func (f *File) Depths() []int { return append([]int(nil), f.depths...) }

// NumFields returns n.
func (f *File) NumFields() int { return len(f.depths) }

// Len returns the number of stored records.
func (f *File) Len() int { return f.count }

// FieldIndex returns the index of the named field, or an error.
func (f *File) FieldIndex(name string) (int, error) {
	for i, n := range f.schema.Fields {
		if n == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("mkhash: no field named %q", name)
}

// hashValue returns the directory cell of value in field i at the current
// depth.
func (f *File) hashValue(i int, value string) int {
	return int(f.hashes[i](value) & uint64(1<<f.depths[i]-1))
}

// BucketOf returns the bucket coordinates the record hashes to.
func (f *File) BucketOf(r Record) ([]int, error) {
	return f.BucketInto(r, nil)
}

// BucketInto is BucketOf reusing b's backing array when it has the
// capacity — the allocation-free form for bulk routing loops.
func (f *File) BucketInto(r Record, b []int) ([]int, error) {
	if len(r) != len(f.depths) {
		return nil, fmt.Errorf("mkhash: record has %d fields, schema has %d", len(r), len(f.depths))
	}
	if cap(b) < len(r) {
		b = make([]int, len(r))
	}
	b = b[:len(r)]
	for i, v := range r {
		b[i] = f.hashValue(i, v)
	}
	return b, nil
}

// linear converts bucket coordinates to the linear index.
func (f *File) linear(b []int) int {
	idx := 0
	for i, v := range b {
		idx = idx<<f.depths[i] | v
	}
	return idx
}

// Insert stores a record.
func (f *File) Insert(r Record) error {
	b, err := f.BucketOf(r)
	if err != nil {
		return err
	}
	idx := f.linear(b)
	f.buckets[idx] = append(f.buckets[idx], r.clone())
	f.count++
	return nil
}

// Delete removes every stored record equal to r, returning the number
// removed.
func (f *File) Delete(r Record) (int, error) {
	b, err := f.BucketOf(r)
	if err != nil {
		return 0, err
	}
	idx := f.linear(b)
	recs := f.buckets[idx]
	kept := recs[:0]
	removed := 0
	for _, stored := range recs {
		if stored.equal(r) {
			removed++
			continue
		}
		kept = append(kept, stored)
	}
	if len(kept) == 0 {
		delete(f.buckets, idx)
	} else {
		f.buckets[idx] = kept
	}
	f.count -= removed
	return removed, nil
}

// equal compares records field-wise.
func (r Record) equal(other Record) bool {
	if len(r) != len(other) {
		return false
	}
	for i := range r {
		if r[i] != other[i] {
			return false
		}
	}
	return true
}

// Bucket returns the records stored in the bucket with the given
// coordinates (nil when empty). The result aliases internal storage; do
// not mutate.
func (f *File) Bucket(b []int) []Record { return f.buckets[f.linear(b)] }

// EachBucket calls fn for every non-empty bucket. The coordinate slice is
// reused between calls.
func (f *File) EachBucket(fn func(coords []int, records []Record)) {
	coords := make([]int, len(f.depths))
	for idx, recs := range f.buckets {
		if len(recs) == 0 {
			continue
		}
		rem := idx
		for i := len(f.depths) - 1; i >= 0; i-- {
			coords[i] = rem & (1<<f.depths[i] - 1)
			rem >>= f.depths[i]
		}
		fn(coords, recs)
	}
}

// Grow doubles field i's directory (d_i += 1) and redistributes records.
// Extendible-hashing style: each record moves to the cell revealed by one
// more bit of its field hash.
func (f *File) Grow(fieldIdx int) error {
	if fieldIdx < 0 || fieldIdx >= len(f.depths) {
		return fmt.Errorf("mkhash: grow of field %d, file has %d fields", fieldIdx, len(f.depths))
	}
	if f.depths[fieldIdx] >= 30 {
		return fmt.Errorf("mkhash: field %d already at maximum depth", fieldIdx)
	}
	old := f.buckets
	f.depths[fieldIdx]++
	f.buckets = make(map[int][]Record, len(old)*2)
	f.count = 0
	for _, recs := range old {
		for _, r := range recs {
			b, err := f.BucketOf(r)
			if err != nil {
				return err // unreachable: stored records always match arity
			}
			idx := f.linear(b)
			f.buckets[idx] = append(f.buckets[idx], r)
			f.count++
		}
	}
	return nil
}

// Occupancy returns the mean number of records per non-empty bucket and
// the largest bucket's size — the signals that trigger directory growth.
func (f *File) Occupancy() (mean float64, max int) {
	if len(f.buckets) == 0 {
		return 0, 0
	}
	for _, recs := range f.buckets {
		if len(recs) > max {
			max = len(recs)
		}
	}
	return float64(f.count) / float64(len(f.buckets)), max
}

// GrowAdvice returns the field whose directory doubling would split the
// stored records most evenly: for each field it counts how many records
// would move to the new upper half (their next hash bit is set) and
// scores the split by min(moved, stayed). A field whose values all share
// the next bit scores zero — growing it would double the directory
// without splitting anything. Ties go to the lowest field index; ok is
// false when the file is empty or no field can grow.
func (f *File) GrowAdvice() (fieldIdx int, ok bool) {
	if f.count == 0 {
		return 0, false
	}
	bestScore := -1
	for i, d := range f.depths {
		if d >= 30 {
			continue
		}
		moved := 0
		bit := uint64(1) << d
		f.EachBucket(func(_ []int, recs []Record) {
			for _, r := range recs {
				if f.hashes[i](r[i])&bit != 0 {
					moved++
				}
			}
		})
		stayed := f.count - moved
		score := moved
		if stayed < moved {
			score = stayed
		}
		if score > bestScore {
			bestScore = score
			fieldIdx = i
			ok = true
		}
	}
	return fieldIdx, ok
}

// PartialMatch describes a value-level partial match query: nil entries
// are unspecified fields.
type PartialMatch []*string

// Spec builds a value-level query from field name → value. Fields not
// mentioned are unspecified.
func (f *File) Spec(pairs map[string]string) (PartialMatch, error) {
	list := make([][2]string, 0, len(pairs))
	for name, value := range pairs {
		list = append(list, [2]string{name, value})
	}
	return f.SpecPairs(list, nil)
}

// SpecPairs is Spec over (field name, value) pairs, a later pair
// overriding an earlier one of the same name, written into pm's array
// (a new one if pm has no room for every field). The spec points at the
// values inside pairs, which must stay as they are while it is used.
func (f *File) SpecPairs(pairs [][2]string, pm PartialMatch) (PartialMatch, error) {
	if cap(pm) < len(f.depths) {
		pm = make(PartialMatch, len(f.depths))
	}
	pm = pm[:len(f.depths)]
	clear(pm)
	for j := range pairs {
		i, err := f.FieldIndex(pairs[j][0])
		if err != nil {
			return nil, err
		}
		pm[i] = &pairs[j][1]
	}
	return pm, nil
}

// BucketQuery lowers a value-level partial match to a bucket-level query
// by hashing the specified values.
func (f *File) BucketQuery(pm PartialMatch) (query.Query, error) { return f.BucketQueryInto(pm, nil) }

// BucketQueryInto is BucketQuery writing the spec into spec's array, or a
// new one if spec has no room for every field: the query aliases it.
func (f *File) BucketQueryInto(pm PartialMatch, spec []int) (query.Query, error) {
	if len(pm) != len(f.depths) {
		return query.Query{}, fmt.Errorf("mkhash: query has %d fields, schema has %d", len(pm), len(f.depths))
	}
	spec = slices.Grow(spec[:0], len(pm))[:len(pm)]
	for i, v := range pm {
		if v == nil {
			spec[i] = query.Unspecified
		} else {
			spec[i] = f.hashValue(i, *v)
		}
	}
	return query.Query{Spec: spec}, nil
}

// matches reports whether the record's actual values satisfy the
// value-level query (needed because hashing collides: a qualified bucket
// can hold false positives).
func (pm PartialMatch) matches(r Record) bool {
	for i, v := range pm {
		if v != nil && r[i] != *v {
			return false
		}
	}
	return true
}

// Search answers a value-level partial match query against the file
// directly (single-device semantics): it visits only qualified buckets and
// filters false hash positives.
func (f *File) Search(pm PartialMatch) ([]Record, error) {
	q, err := f.BucketQuery(pm)
	if err != nil {
		return nil, err
	}
	fs, err := f.FileSystem(1)
	if err != nil {
		return nil, err
	}
	var out []Record
	q.EachQualified(fs, func(b []int) {
		for _, r := range f.buckets[f.linear(b)] {
			if pm.matches(r) {
				out = append(out, r)
			}
		}
	})
	return out, nil
}
