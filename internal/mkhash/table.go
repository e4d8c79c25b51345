package mkhash

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"fxdist/internal/mempool"
)

// A stored record is its value numbers (DESIGN §2): each field keeps a
// total dictionary — value → id, and id → value and the value's field
// hash, so nothing stored is hashed twice — and a bucket's records are
// their ids end to end, NumFields apart, 2 bytes an id until a field
// passes 65 535 values and 4 bytes from then on.

// Want's ids for a value no record holds and for a field left open; no
// stored id reaches either.
const (
	none = math.MaxUint32 - 1
	free = math.MaxUint32
)

// field is one field's dictionary. Ids are only ever added, so a prefix
// of values and hashes never changes under a table that shares it.
type field struct {
	ids    map[string]uint32
	values []string
	hashes []uint64
}

// span is a bucket's records, off to off+n of its table's ids.
type span struct{ off, n uint32 }

// Table is buckets of records held as ids: a file's placed records, a
// frozen copy a cluster serves, or one device's share of them. Tables
// split from one another share their dictionaries, ids and span maps but
// never write them in place: the first write copies what it changes.
type Table struct {
	fields                    []field
	sharedFields, sharedSpans bool
	w                         int // bytes an id: 2, or 4 once widened
	ids                       []byte
	spans                     map[uint32]span
	dead                      int // records of ids no span covers
}

// NewTable returns an empty table of records of n fields.
func NewTable(n int) *Table {
	t := &Table{fields: make([]field, n), w: 2, spans: make(map[uint32]span)}
	for i := range t.fields {
		t.fields[i].ids = make(map[string]uint32)
	}
	return t
}

// NumFields returns the number of fields a record has.
func (t *Table) NumFields() int { return len(t.fields) }

// Buckets returns the number of non-empty buckets.
func (t *Table) Buckets() int { return len(t.spans) }

// EachBucket calls fn with every non-empty bucket; fn may Drop it.
func (t *Table) EachBucket(fn func(bucket uint32)) {
	for b := range t.spans {
		fn(b)
	}
}

// records returns the number of records ids holds, dead ones included.
func (t *Table) records() uint32 { return uint32(len(t.ids) / (t.w * len(t.fields))) }

// id returns the j-th id: field j%n of record j/n.
func (t *Table) id(j int) uint32 {
	if t.w == 4 {
		return binary.LittleEndian.Uint32(t.ids[4*j:])
	}
	return uint32(binary.LittleEndian.Uint16(t.ids[2*j:]))
}

func (t *Table) appendID(id uint32) {
	if t.w == 4 {
		t.ids = binary.LittleEndian.AppendUint32(t.ids, id)
	} else {
		t.ids = binary.LittleEndian.AppendUint16(t.ids, uint16(id))
	}
}

// intern returns field i's id for v, adding v when it is new with its
// hash under h (0 without one: a server never addresses buckets). The
// 65 536th value of a field rewrites every id at 4 bytes in one pass.
func (t *Table) intern(i int, v string, h FieldHash) uint32 {
	if id, ok := t.fields[i].ids[v]; ok {
		return id
	}
	if t.sharedFields {
		fields := make([]field, len(t.fields))
		for j, f := range t.fields {
			fields[j] = field{maps.Clone(f.ids), slices.Clip(f.values), slices.Clip(f.hashes)}
		}
		t.fields, t.sharedFields = fields, false
	}
	f, hash := &t.fields[i], uint64(0)
	id, v := uint32(len(f.values)), strings.Clone(v)
	if h != nil {
		hash = h(v)
	}
	f.ids[v], f.values, f.hashes = id, append(f.values, v), append(f.hashes, hash)
	if id >= math.MaxUint16 && t.w == 2 {
		ids := make([]byte, 0, 2*len(t.ids))
		for j := range len(t.ids) / 2 {
			ids = binary.LittleEndian.AppendUint32(ids, t.id(j))
		}
		t.ids, t.w = ids, 4
	}
	return id
}

func (t *Table) ownSpans() {
	if t.sharedSpans {
		t.spans, t.sharedSpans = maps.Clone(t.spans), false
	}
}

// Drop empties bucket. Once ids holds more dead records than live ones,
// the live ones are laid out afresh, so a table never holds twice its
// records.
func (t *Table) Drop(bucket uint32) {
	if s, ok := t.spans[bucket]; ok {
		t.ownSpans()
		delete(t.spans, bucket)
		if t.dead += int(s.n); t.dead > int(t.records())-t.dead {
			t.compact()
		}
	}
}

// compact lays the live spans out in new ids, dropping the dead ones.
func (t *Table) compact() {
	w := t.w * len(t.fields)
	ids, spans := make([]byte, 0, len(t.ids)-t.dead*w), make(map[uint32]span, len(t.spans))
	for b, s := range t.spans {
		spans[b] = span{uint32(len(ids) / w), s.n}
		ids = append(ids, t.ids[int(s.off)*w:int(s.off+s.n)*w]...)
	}
	t.ids, t.spans, t.sharedSpans, t.dead = ids, spans, false, 0
}

// Put replaces bucket's records with recs, of NumFields values each,
// adding their values to the table's own dictionary; no records drops
// the bucket.
func (t *Table) Put(bucket uint32, recs []Record) error {
	for _, r := range recs {
		if len(r) != len(t.fields) {
			return fmt.Errorf("mkhash: a record of %d fields, table has %d", len(r), len(t.fields))
		}
	}
	if t.Drop(bucket); len(recs) == 0 {
		return nil
	}
	off := t.records()
	t.ids = slices.Grow(t.ids, len(recs)*len(t.fields)*t.w)
	for _, r := range recs {
		for i, v := range r {
			t.appendID(t.intern(i, v, nil))
		}
	}
	t.ownSpans()
	t.spans[bucket] = span{off, uint32(len(recs))}
	return nil
}

// Split gives each of m tables the buckets owner names it: windows into
// t's ids under t's dictionary, which all of them share — t too, so its
// next new value copies the dictionary rather than growing theirs.
func (t *Table) Split(m int, owner func(bucket uint32) int) []*Table {
	t.sharedFields = true
	parts := make([]*Table, m)
	for d := range parts {
		parts[d] = &Table{fields: t.fields, sharedFields: true, w: t.w, ids: slices.Clip(t.ids),
			spans: make(map[uint32]span), dead: int(t.records())}
	}
	for b, s := range t.spans {
		p := parts[owner(b)]
		p.spans[b], p.dead = s, p.dead-int(s.n)
	}
	return parts
}

// Want appends to dst, for each field of pm, the id of the value it
// specifies — none when no record holds it, so nothing matches — or free
// when it leaves the field open: what Scan compares records with.
func (t *Table) Want(pm PartialMatch, dst []uint32) []uint32 {
	for i, v := range pm {
		id, ok := uint32(free), true
		if v != nil {
			if id, ok = t.fields[i].ids[*v]; !ok {
				id = none
			}
		}
		dst = append(dst, id)
	}
	return dst
}

// matches reports whether record k holds every id want names.
func (t *Table) matches(k uint32, want []uint32) bool {
	j := int(k) * len(t.fields)
	for i, id := range want {
		if id != free && t.id(j+i) != id {
			return false
		}
	}
	return true
}

// Scan is the record loop of every backend: it calls hit with the offset
// of each record of bucket holding the ids want names (all of them for a
// nil want), comparing integers only, and returns how many records the
// bucket holds — every one is scanned, even for a value no record holds.
func (t *Table) Scan(bucket uint32, want []uint32, hit func(k uint32)) int {
	s := t.spans[bucket]
	for k := s.off; k < s.off+s.n; k++ {
		if t.matches(k, want) {
			hit(k)
		}
	}
	return int(s.n)
}

// value returns the value of record k's field i.
func (t *Table) value(k uint32, i int) string {
	return t.fields[i].values[t.id(int(k)*len(t.fields)+i)]
}

// appendValues appends record k's values to dst.
func (t *Table) appendValues(dst []string, k uint32) []string {
	for i := range t.fields {
		dst = append(dst, t.value(k, i))
	}
	return dst
}

// Strings returns the value of every id t holds as one run of string
// headers, record k's from k*NumFields: what a cluster that hands out
// views of its records serves them from.
func (t *Table) Strings() []string {
	out := make([]string, len(t.ids)/t.w)
	for j := range out {
		out[j] = t.fields[j%len(t.fields)].values[t.id(j)]
	}
	return out
}

// Encode appends record k of t to e, encoded from its ids: the bytes
// AppendEncoded gives its values.
func (e *Encoded) Encode(t *Table, k uint32) {
	size, bytes := uvarintLen(uint64(len(t.fields))), 0
	for i := range t.fields {
		l := len(t.value(k, i))
		size, bytes = size+uvarintLen(uint64(l))+l, bytes+l
	}
	e.enc = binary.AppendUvarint(mempool.Frames.Grow(e.enc, size), uint64(len(t.fields)))
	for i := range t.fields {
		e.enc = binary.AppendUvarint(e.enc, uint64(len(t.value(k, i))))
		e.enc = append(e.enc, t.value(k, i)...)
	}
	e.records, e.fields, e.bytes = e.records+1, e.fields+len(t.fields), e.bytes+bytes
}

// Digest digests bucket's records.
func (t *Table) Digest(bucket uint32) Digest {
	var vals []string
	t.Scan(bucket, nil, func(k uint32) { vals = t.appendValues(vals, k) })
	return DigestOf(Views(vals, len(t.fields), nil))
}
