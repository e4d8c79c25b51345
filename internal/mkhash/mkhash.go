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

// File is a multi-key hashed file held in memory as a bucket grid.
type File struct {
	schema Schema
	depths []int
	hashes []FieldHash
	// t holds the placed records: each placement appends the buckets it
	// touches to t's ids and points their spans there, and never changes
	// an id already placed, so a frozen copy (Freeze) reads on as it was
	// (DESIGN §2). t.dead counts the records of replaced spans.
	t     Table
	count int
	// Insert stages a record: its ids go to the end of pending and keys
	// gets its bucket index (high 32 bits) and staging number. staged is
	// set while keys is not empty; place empties it under mu.
	pending []uint32
	keys    []uint64
	staged  atomic.Bool
	mu      sync.Mutex
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
		schema: schema,
		depths: append([]int(nil), schema.Depths...),
		hashes: make([]FieldHash, len(schema.Fields)),
		t:      *NewTable(len(schema.Fields)),
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

// index returns the linear index of the bucket of the record of the given
// ids, from the hashes their dictionaries keep.
func (f *File) index(ids []uint32) int {
	idx := 0
	for i, id := range ids {
		idx = idx<<f.depths[i] | int(f.t.fields[i].hashes[id]&uint64(1<<f.depths[i]-1))
	}
	return idx
}

// Insert stages the record's ids, adding its new values to their fields'
// dictionaries. The next read places every staged record at once
// (DESIGN §2).
func (f *File) Insert(r Record) error {
	if err := f.checkArity(r); err != nil {
		return err
	}
	ids := f.stage(len(r))
	for i, v := range r {
		ids[i] = f.t.intern(i, v, f.hashes[i])
	}
	f.key(f.index(ids))
	f.count++
	return nil
}

// stage reserves the next staged record, of n ids; key files it. The
// pending ids double when full, so k inserts grow them O(log k) times.
func (f *File) stage(n int) []uint32 {
	l := len(f.pending)
	if l+n > cap(f.pending) {
		f.pending = slices.Grow(f.pending, max(l, 16*n))
	}
	f.pending = f.pending[:l+n]
	return f.pending[l:]
}

// key files the record stage reserved last in bucket idx.
func (f *File) key(idx int) {
	f.keys = append(f.keys, uint64(idx)<<32|uint64(len(f.keys)))
	f.staged.Store(true)
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
		if f.t.dead > f.count {
			f.t.compact()
		}
		f.staged.Store(false)
	}
}

// fill is place's counted pass: it sorts the keys, grows the ids once for
// all the buckets they touch and appends each one, its old records and
// then its staged ones in the order they came, as a new span.
func (f *File) fill() {
	t, keys, n := &f.t, f.keys, len(f.depths)
	slices.Sort(keys)
	t.ownSpans()
	size := len(keys)
	for i, key := range keys {
		if i == 0 || key>>32 != keys[i-1]>>32 {
			size += int(t.spans[uint32(key>>32)].n)
		}
	}
	w := t.w * n
	t.ids = slices.Grow(t.ids, size*w)
	var start uint32
	for i, key := range keys {
		idx := uint32(key >> 32)
		if i == 0 || key>>32 != keys[i-1]>>32 {
			old := t.spans[idx]
			start, t.ids = t.records(), append(t.ids, t.ids[int(old.off)*w:int(old.off+old.n)*w]...)
			t.dead += int(old.n)
		}
		for _, id := range f.pending[int(uint32(key))*n:][:n] {
			t.appendID(id)
		}
		if i+1 == len(keys) || keys[i+1]>>32 != key>>32 {
			t.spans[idx] = span{start, t.records() - start}
		}
	}
	f.pending, f.keys = nil, nil
}

// restage stages every placed record again at the current depths, for
// place to lay the whole file out afresh.
func (f *File) restage() {
	t := &f.t
	for _, s := range t.spans {
		for k := s.off; k < s.off+s.n; k++ {
			f.key(f.index(f.stageAgain(k)))
		}
	}
	t.ids, t.spans, t.sharedSpans, t.dead = nil, make(map[uint32]span, len(t.spans)), false, 0
}

// stageAgain stages placed record k again and returns its ids.
func (f *File) stageAgain(k uint32) []uint32 {
	n := len(f.depths)
	ids := f.stage(n)
	for i := range ids {
		ids[i] = f.t.id(int(k)*n + i)
	}
	return ids
}

// Freeze places the staged records and returns the file's records as a
// table no later change to the file reaches: the two share the ids, the
// span map and the dictionaries, and the file copies what it changes.
// A file holding replaced records hands out a compacted copy of its live
// ones instead of its ids.
func (f *File) Freeze() *Table {
	f.place()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t.sharedFields, f.t.sharedSpans = true, true
	t := f.t
	if t.ids = slices.Clip(t.ids); t.dead > 0 {
		t.compact()
	}
	return &t
}

// Delete removes every stored record equal to r, returning the number
// removed. The bucket's survivors are staged again, so the next read
// places them in a new span. The values the removed records leave in
// their fields' dictionaries stay there.
func (f *File) Delete(r Record) (int, error) {
	if err := f.checkArity(r); err != nil {
		return 0, err
	}
	f.place()
	pm := make(PartialMatch, len(r))
	for i := range r {
		pm[i] = &r[i]
	}
	want := f.t.Want(pm, nil)
	if slices.Contains(want, none) {
		return 0, nil
	}
	idx, removed := uint32(f.index(want)), 0
	f.t.Scan(idx, want, func(uint32) { removed++ })
	if removed == 0 {
		return 0, nil
	}
	s := f.t.spans[idx]
	for k := s.off; k < s.off+s.n; k++ {
		if !f.t.matches(k, want) {
			f.stageAgain(k)
			f.key(int(idx))
		}
	}
	f.t.Drop(idx)
	f.count -= removed
	return removed, nil
}

// build returns the records at offsets ks of the file's ids, built: one
// slab holds their values, one their headers.
func (f *File) build(ks []uint32) []Record {
	if len(ks) == 0 {
		return nil
	}
	vals := make([]string, 0, len(ks)*len(f.depths))
	for _, k := range ks {
		vals = f.t.appendValues(vals, k)
	}
	return Views(vals, len(f.depths), make([]Record, 0, len(ks)))
}

// Bucket returns the records stored in the bucket with the given
// coordinates (nil when empty), built for the caller.
func (f *File) Bucket(b []int) []Record {
	f.place()
	var ks []uint32
	f.t.Scan(uint32(f.linear(b)), nil, func(k uint32) { ks = append(ks, k) })
	return f.build(ks)
}

// EachBucket calls fn for every non-empty bucket with views of its
// records. The coordinates, the views and their slab are reused between
// calls: a view is valid only inside the call it was handed to (its
// values, which are the file's own strings, stay valid).
func (f *File) EachBucket(fn func(coords []int, records []Record)) {
	f.place()
	fs, coords := decluster.FileSystem{Sizes: f.Sizes(), M: 1}, []int(nil)
	var vals []string
	var records []Record
	for idx, s := range f.t.spans {
		vals = vals[:0]
		for k := s.off; k < s.off+s.n; k++ {
			vals = f.t.appendValues(vals, k)
		}
		coords = fs.Coords(int(idx), coords[:0])
		records = Views(vals, len(f.depths), records[:0])
		fn(coords, records)
	}
}

// Grow doubles field i's directory (d_i += 1) and redistributes records.
// Extendible-hashing style: each record moves to the cell revealed by one
// more bit of its field hash, kept in its field's dictionary, and the
// file is placed again afresh.
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
	if len(f.t.spans) == 0 {
		return 0, 0
	}
	for _, s := range f.t.spans {
		if int(s.n) > max {
			max = int(s.n)
		}
	}
	return float64(f.count) / float64(len(f.t.spans)), max
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
		moved, bit, hashes := 0, uint64(1)<<d, f.t.fields[i].hashes
		for _, s := range f.t.spans {
			for k := s.off; k < s.off+s.n; k++ {
				if hashes[f.t.id(int(k)*len(f.depths)+i)]&bit != 0 {
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

// Search answers a value-level partial match query against the file
// directly (single-device semantics): it visits only qualified buckets,
// filters false hash positives by id, and builds the records it returns.
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
	want := f.t.Want(pm, nil)
	var ks []uint32
	q.EachQualified(fs, func(b []int) {
		f.t.Scan(uint32(f.linear(b)), want, func(k uint32) { ks = append(ks, k) })
	})
	return f.build(ks), nil
}
