package mkhash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
	"unsafe"

	"fxdist/internal/mempool"
)

// A record's encoded body is the one byte layout a record takes, in the
// durable log's put and tombstone frames and in the binary wire's record
// lists alike: a uvarint field count, then for each field a uvarint
// length and that many bytes of value. The functions below are the only
// code that writes, checks or reads it.

// uvarintLen returns the encoded size of v without encoding it.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// EncodedSize returns the exact size of rec's encoded body.
func EncodedSize(rec Record) int {
	n := uvarintLen(uint64(len(rec)))
	for _, v := range rec {
		n += uvarintLen(uint64(len(v))) + len(v)
	}
	return n
}

// AppendEncoded appends rec's encoded body to buf.
func AppendEncoded(buf []byte, rec Record) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rec)))
	for _, v := range rec {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// Digest is a commutative digest of a record multiset: the number of
// records and the sum, mod 2^64, of each record's FNV-64a hash over its
// encoded body. The same records digest equally in any order and however
// they are grouped, so two layouts of one file — a rescale's two epochs —
// compare with one Digest each.
type Digest struct {
	Records int    `json:"records"`
	Sum     uint64 `json:"sum"`
}

// DigestOf digests recs.
func DigestOf(recs []Record) Digest {
	d := Digest{Records: len(recs)}
	h := fnv.New64a()
	var body []byte
	for _, r := range recs {
		body = AppendEncoded(body[:0], r)
		h.Reset()
		h.Write(body) //nolint:errcheck // hash.Hash never errors
		d.Sum += h.Sum64()
	}
	return d
}

// Plus digests the union of the two multisets.
func (d Digest) Plus(o Digest) Digest {
	return Digest{Records: d.Records + o.Records, Sum: d.Sum + o.Sum}
}

// MatchEncoded is the one validator of an encoded body: it checks the
// body at the head of enc — its field count, which cannot exceed the
// bytes left since a field costs at least its length byte, and every
// field length — and reports the body's size, field count and value
// bytes, and whether each field pm specifies, of those the record has,
// equals the stored bytes. Bytes after the body are not its business: a
// log frame holds one body, a wire list many. Nothing is materialised.
func MatchEncoded(enc []byte, pm PartialMatch) (size, fields, bytes int, match bool, err error) {
	count, off := binary.Uvarint(enc)
	if off <= 0 || count > uint64(len(enc)-off) {
		return 0, 0, 0, false, fmt.Errorf("mkhash: corrupt record body (field count %d)", count)
	}
	match = true
	for i := 0; i < int(count); i++ {
		l, n := binary.Uvarint(enc[off:])
		if n <= 0 || uint64(len(enc)-off-n) < l {
			return 0, 0, 0, false, errors.New("mkhash: corrupt record field length")
		}
		off += n
		if match && i < len(pm) && pm[i] != nil && string(enc[off:off+int(l)]) != *pm[i] {
			match = false
		}
		bytes += int(l)
		off += int(l)
	}
	return off, int(count), bytes, match, nil
}

// BuildEncoded materialises the body at the head of enc, which
// MatchEncoded has accepted, and returns it with the rest of enc. Given a
// builder b it copies every byte out, drawing the field slice and the
// values from b's chunks, so enc may be recycled as soon as the call
// returns. Given b nil it builds a view instead: the field slice is carved
// from the front of *slab, which must have room for it, and the values
// alias enc, which must outlive the record.
func BuildEncoded(enc []byte, b *mempool.RecordBuilder, slab *[]string) (Record, []byte) {
	count, off := binary.Uvarint(enc)
	var rec Record
	if b != nil {
		rec = b.Fields(int(count))
	} else {
		rec, *slab = (*slab)[:count:count], (*slab)[count:]
	}
	for i := range rec {
		l, n := binary.Uvarint(enc[off:])
		v := enc[off+n : off+n+int(l)]
		if b != nil {
			rec[i] = b.Bytes(v)
		} else {
			rec[i] = unsafe.String(unsafe.SliceData(v), len(v))
		}
		off += n + int(l)
	}
	return rec, enc[off:]
}

// DecodeEncoded validates the n bodies at the head of enc, then builds
// them into memory of their own, reserved exactly — two allocations for
// their fields and values besides the slice — and returns them with the
// bodies' total size.
func DecodeEncoded(enc []byte, n int) ([]Record, int, error) {
	size, fields, bytes := 0, 0, 0
	for range n {
		s, f, b, _, err := MatchEncoded(enc[size:], nil)
		if err != nil {
			return nil, 0, err
		}
		size, fields, bytes = size+s, fields+f, bytes+b
	}
	var b mempool.RecordBuilder
	b.Reserve(fields, bytes)
	recs := make([]Record, n)
	for i, rest := 0, enc; i < n; i++ {
		recs[i], rest = BuildEncoded(rest, &b, nil)
	}
	return recs, size, nil
}

// Encoded collects encoded bodies back to back in one slab grown through
// mempool.Frames, and how many records, field slots and value bytes
// building them takes. The zero value is empty; Release returns the slab,
// on every path.
type Encoded struct {
	enc                    []byte
	records, fields, bytes int
}

// Add appends one body MatchEncoded accepted, with the field count and
// value bytes it reported.
func (e *Encoded) Add(body []byte, fields, bytes int) {
	e.enc = append(mempool.Frames.Grow(e.enc, len(body)), body...)
	e.records++
	e.fields += fields
	e.bytes += bytes
}

// Bytes returns the collected bodies, back to back.
func (e *Encoded) Bytes() []byte { return e.enc }

// Size returns the collected bodies' record, field and byte counts.
func (e *Encoded) Size() (records, fields, bytes int) { return e.records, e.fields, e.bytes }

// Build reserves exactly the collected bodies' sizes on b and materialises
// them through it, calling fn for each in the order they were added.
// Every byte is copied out, so the records outlive Release, and they cost
// the builder two allocations however many there are.
func (e *Encoded) Build(b *mempool.RecordBuilder, fn func(rec Record) error) error {
	b.Reserve(e.fields, e.bytes)
	for enc := e.enc; len(enc) > 0; {
		var rec Record
		rec, enc = BuildEncoded(enc, b, nil)
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Release returns the slab to mempool.Frames and empties e.
func (e *Encoded) Release() {
	mempool.Frames.Put(e.enc)
	*e = Encoded{}
}
