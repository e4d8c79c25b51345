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
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"fxdist/internal/decluster"
	"fxdist/internal/query"
)

// Record is one tuple; the file stores records by value.
type Record []string

// Views appends to dst a view of each record in slab, a bucket's values
// laid end to end n apart, and returns it. A view's capacity ends with
// the record, so appending to it cannot reach the next.
func Views(slab []string, n int, dst []Record) []Record {
	for i := 0; i+n <= len(slab); i += n {
		dst = append(dst, slab[i:i+n:i+n])
	}
	return dst
}

// MaxGridBits bounds a file's grid: its depths sum to at most 32, so it
// holds at most 2^32 buckets, and the durable log and the file's
// placement keys hold a linear bucket index in 32 bits (DESIGN §2).
const MaxGridBits = 32

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
	sum := 0
	for i, d := range s.Depths {
		if d < 0 || d > 30 {
			return fmt.Errorf("mkhash: depth of field %q is %d, want 0..30", s.Fields[i], d)
		}
		sum += d
	}
	if sum > MaxGridBits {
		return fmt.Errorf("mkhash: depths sum to %d, want at most %d", sum, MaxGridBits)
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

// valueSlots is the size of a field's table of canonical values, a power
// of two: a value's slot is the low bits of its field hash.
const valueSlots = 1 << 12

// valueTable is one field's canonical values: slots numbers the value
// that took each slot in distinct, from 1, and 0 while the slot is
// empty, so a slot costs 2 bytes where a string costs 16.
type valueTable struct {
	slots    [valueSlots]uint16
	distinct []string
}

// File is a multi-key hashed file held in memory as a bucket grid.
type File struct {
	schema Schema
	depths []int
	hashes []FieldHash
	// buckets maps the linear bucket index to its slab: the records'
	// values end to end, NumFields apart, a window of one of runs, which
	// place appends and never changes (DESIGN §2). runs[0] is empty, so
	// an absent bucket's zero window is an empty slab.
	buckets map[uint32]window
	runs    [][]string
	count   int
	// dead counts the values of the windows replaced since the last
	// restage, which their runs may still hold.
	dead int
	// Insert stages a record: its values go to the end of chunk c, which
	// holds the staged records 2^c-1 to 2^(c+1)-2, and keys gets its
	// bucket index (high 32 bits) and staging number. staged is set
	// while keys is not empty; place empties it under mu.
	chunks [][]string
	keys   []uint64
	staged atomic.Bool
	mu     sync.Mutex
	// hs holds the field hashes of the record Insert is storing.
	hs []uint64
	// values holds each field's canonical values, made at the first
	// Insert: a stored value equal to its slot's shares the slot's string,
	// so a value repeated across records is kept once (DESIGN §2).
	values []valueTable
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
		buckets: make(map[uint32]window),
		runs:    [][]string{nil},
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
	if i := slices.Index(f.schema.Fields, name); i >= 0 {
		return i, nil
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
	if err := f.checkArity(r); err != nil {
		return nil, err
	}
	b := make([]int, len(r))
	for i, v := range r {
		b[i] = f.hashValue(i, v)
	}
	return b, nil
}

func (f *File) checkArity(r Record) error {
	if len(r) != len(f.depths) {
		return fmt.Errorf("mkhash: record has %d fields, schema has %d", len(r), len(f.depths))
	}
	return nil
}

// Route returns the device alloc gives r's bucket and the bucket's linear
// index, with no coordinate slice: it folds the allocator's per-field
// contributions as its Device does. alloc must be built for the file's
// current directory sizes.
func (f *File) Route(r Record, alloc decluster.GroupAllocator) (dev, bucket int, err error) {
	if err := f.checkArity(r); err != nil {
		return 0, 0, err
	}
	op, m := alloc.Op(), alloc.FileSystem().M
	for i, v := range r {
		cell := f.hashValue(i, v)
		dev = op.Combine(dev, alloc.Contribution(i, cell), m)
		bucket = bucket<<f.depths[i] | cell
	}
	return dev, bucket, nil
}

// linear converts bucket coordinates to the linear index.
func (f *File) linear(b []int) int {
	idx := 0
	for i, v := range b {
		idx = idx<<f.depths[i] | v
	}
	return idx
}

// locate returns the linear index of r's bucket, hashing each field once,
// and leaves each field's hash in hs when given one.
func (f *File) locate(r Record, hs []uint64) int {
	idx := 0
	for i, v := range r {
		h := f.hashes[i](v)
		idx = idx<<f.depths[i] | int(h&uint64(1<<f.depths[i]-1))
		if hs != nil {
			hs[i] = h
		}
	}
	return idx
}

// canonical returns the copy of field i's value v, of hash h, to store:
// its field's table slot when the two are equal. A slot keeps a copy of
// the first value hashed to it, so a colliding value, or any value under
// a custom hash that maps everything alike, stays as it is.
func (f *File) canonical(i int, v string, h uint64) string {
	t := &f.values[i]
	slot := &t.slots[h&(valueSlots-1)]
	if *slot == 0 {
		t.distinct = append(t.distinct, strings.Clone(v))
		*slot = uint16(len(t.distinct))
	}
	if c := t.distinct[*slot-1]; c == v {
		return c
	}
	return v
}

// window is a bucket's slab: records off to off+n of one of its file's
// runs. A file holds fewer than 2^32 records, as its staging keys count
// them.
type window struct{ run, off, n uint32 }

// slab returns the window's values, capped at its end.
func (f *File) slab(w window) []string {
	n := len(f.depths)
	return f.runs[w.run][int(w.off)*n : int(w.off+w.n)*n : int(w.off+w.n)*n]
}

// Insert stages a copy of the record for its bucket, its values shared
// with equal ones already stored where the field's table holds them. The
// next read places every staged record at once (DESIGN §2).
func (f *File) Insert(r Record) error {
	if err := f.checkArity(r); err != nil {
		return err
	}
	if f.values == nil {
		f.values, f.hs = make([]valueTable, len(r)), make([]uint64, len(r))
	}
	dst := f.stage(f.locate(r, f.hs), len(r))
	for i, v := range r {
		dst[i] = f.canonical(i, v, f.hs[i])
	}
	f.count++
	return nil
}

// stage reserves the next staged record, of n values, for bucket idx.
func (f *File) stage(idx, n int) []string {
	k := len(f.keys)
	c := bits.Len(uint(k+1)) - 1
	if c == len(f.chunks) {
		f.chunks = append(f.chunks, make([]string, 0, n<<c))
	}
	l := len(f.chunks[c])
	f.chunks[c] = f.chunks[c][:l+n]
	f.keys = append(f.keys, uint64(idx)<<32|uint64(k))
	f.staged.Store(true)
	return f.chunks[c][l : l+n]
}

// place files every staged record in its bucket. Readers call it first;
// the flag and the lock make it safe for concurrent readers.
func (f *File) place() {
	if f.staged.Load() {
		f.mu.Lock()
		defer f.mu.Unlock()
	}
	if f.staged.Load() {
		f.fill()
		if f.dead > f.count*len(f.depths) {
			f.restage()
			f.fill()
		}
		f.staged.Store(false)
	}
}

// fill is place's counted pass: it sorts the keys, sizes one run for all
// the buckets they touch and lays each one out in it, its old records
// and then its staged ones in the order they came, as a capped window.
func (f *File) fill() {
	keys, n := f.keys, len(f.depths)
	slices.Sort(keys)
	size := len(keys)
	for i, key := range keys {
		if i == 0 || key>>32 != keys[i-1]>>32 {
			size += int(f.buckets[uint32(key>>32)].n)
		}
	}
	run, start, r := make([]string, 0, size*n), 0, uint32(len(f.runs))
	for i, key := range keys {
		idx := uint32(key >> 32)
		if i == 0 || key>>32 != keys[i-1]>>32 {
			start, run = len(run), append(run, f.slab(f.buckets[idx])...)
			f.dead += len(run) - start
		}
		k := int(uint32(key)) + 1 // staged record k-1 is in chunk c
		c := bits.Len(uint(k)) - 1
		run = append(run, f.chunks[c][(k-1<<c)*n:][:n]...)
		if i+1 == len(keys) || keys[i+1]>>32 != key>>32 {
			f.buckets[idx] = window{r, uint32(start / n), uint32((len(run) - start) / n)}
		}
	}
	f.runs, f.chunks, f.keys = append(f.runs, run), nil, nil
}

// restage stages every placed record again at the current depths, for
// place to lay the whole file out as one run.
func (f *File) restage() {
	old, n := f.buckets, len(f.depths)
	f.buckets = make(map[uint32]window, len(old))
	for _, w := range old {
		slab := f.slab(w)
		for i := 0; i < len(slab); i += n {
			copy(f.stage(f.locate(slab[i:i+n], nil), n), slab[i:i+n])
		}
	}
	f.runs, f.dead = f.runs[:1:1], 0
}

// Delete removes every stored record equal to r, returning the number
// removed. The bucket's survivors are staged again, so the next read
// places them in a new slab and views of the old one stay as they are.
// The values the removed records leave in their fields' tables stay there.
func (f *File) Delete(r Record) (int, error) {
	if err := f.checkArity(r); err != nil {
		return 0, err
	}
	f.place()
	idx := f.locate(r, nil)
	n, slab, removed := len(r), f.slab(f.buckets[uint32(idx)]), 0
	for i := 0; i < len(slab); i += n {
		if slices.Equal(slab[i:i+n], r) {
			removed++
		}
	}
	if removed == 0 {
		return 0, nil
	}
	delete(f.buckets, uint32(idx))
	for i := 0; i < len(slab); i += n {
		if !slices.Equal(slab[i:i+n], r) {
			copy(f.stage(idx, n), slab[i:i+n])
		}
	}
	f.count -= removed
	if f.dead += len(slab); f.dead > f.count*n {
		f.restage()
	}
	return removed, nil
}

// Bucket returns views of the records stored in the bucket with the
// given coordinates (nil when empty). The views alias internal storage;
// do not mutate.
func (f *File) Bucket(b []int) []Record {
	f.place()
	return Views(f.slab(f.buckets[uint32(f.linear(b))]), len(f.depths), nil)
}

// EachSlab calls fn for every non-empty bucket with its slab: the
// bucket's records' values end to end, NumFields apart, capped at its
// length. The slab never changes under its holder (placement, Delete and
// Grow build new ones); do not mutate it. The coordinate slice is reused
// between calls.
func (f *File) EachSlab(fn func(coords []int, slab []string)) {
	f.place()
	fs, coords := decluster.FileSystem{Sizes: f.Sizes(), M: 1}, []int(nil)
	for idx, w := range f.buckets {
		coords = fs.Coords(int(idx), coords[:0])
		fn(coords, f.slab(w))
	}
}

// EachBucket calls fn for every non-empty bucket with views of its
// records. The coordinate and records slices are reused between calls;
// the views are not.
func (f *File) EachBucket(fn func(coords []int, records []Record)) {
	var records []Record
	f.EachSlab(func(coords []int, slab []string) {
		records = Views(slab, len(coords), records[:0])
		fn(coords, records)
	})
}

// Grow doubles field i's directory (d_i += 1) and redistributes records.
// Extendible-hashing style: each record moves to the cell revealed by one
// more bit of its field hash, and the file is placed again as one run.
func (f *File) Grow(fieldIdx int) error {
	if fieldIdx < 0 || fieldIdx >= len(f.depths) {
		return fmt.Errorf("mkhash: grow of field %d, file has %d fields", fieldIdx, len(f.depths))
	}
	if !f.canGrow(fieldIdx) {
		return fmt.Errorf("mkhash: field %d cannot grow past depth 30 or a grid of 2^%d buckets", fieldIdx, MaxGridBits)
	}
	f.place()
	f.depths[fieldIdx]++
	f.restage()
	f.place()
	return nil
}

// canGrow reports whether doubling field i leaves a valid schema.
func (f *File) canGrow(i int) bool {
	depths := slices.Clone(f.depths)
	depths[i]++
	return Schema{f.schema.Fields, depths}.Validate() == nil
}

// Occupancy returns the mean number of records per non-empty bucket and
// the largest bucket's size — the signals that trigger directory growth.
func (f *File) Occupancy() (mean float64, max int) {
	f.place()
	if len(f.buckets) == 0 {
		return 0, 0
	}
	for _, w := range f.buckets {
		if int(w.n) > max {
			max = int(w.n)
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
	f.place()
	bestScore := -1
	for i, d := range f.depths {
		if !f.canGrow(i) {
			continue
		}
		moved := 0
		bit := uint64(1) << d
		for _, w := range f.buckets {
			for j, slab := i, f.slab(w); j < len(slab); j += len(f.depths) {
				if f.hashes[i](slab[j])&bit != 0 {
					moved++
				}
			}
		}
		if score := min(moved, f.count-moved); score > bestScore {
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
	f.place()
	var out []Record
	q.EachQualified(fs, func(b []int) {
		slab, n := f.slab(f.buckets[uint32(f.linear(b))]), len(pm)
		for i := 0; i < len(slab); i += n {
			if r := slab[i : i+n : i+n]; pm.matches(r) {
				out = append(out, r)
			}
		}
	})
	return out, nil
}
