package mkhash

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"fxdist/internal/mempool"
)

// checkEncoded is the one oracle for an encoded body: it runs MatchEncoded
// on enc and, when the body is accepted, checks it against a decode of its
// own — the body builds the same through a builder and as a view, its
// counts are the built record's, MatchEncoded's verdict is a comparison of
// the built fields with pm, EncodedSize is the length of the re-encoding,
// and the canonical re-encoding is a fixed point. It returns the built
// record, or MatchEncoded's error.
func checkEncoded(t *testing.T, enc []byte, pm PartialMatch) (Record, error) {
	t.Helper()
	size, fields, nbytes, match, err := MatchEncoded(enc, pm)
	if err != nil {
		if _, _, derr := DecodeEncoded(enc, 1); derr == nil {
			t.Fatalf("DecodeEncoded accepted a body MatchEncoded rejects (%v)", err)
		}
		return nil, err
	}
	rec, rest := BuildEncoded(enc, new(mempool.RecordBuilder), nil)
	if len(rest) != len(enc)-size {
		t.Fatalf("BuildEncoded left %d bytes, MatchEncoded measured a %d-byte body of %d", len(rest), size, len(enc))
	}
	slab := make([]string, fields+1)
	view, _ := BuildEncoded(enc, nil, &slab)
	if !slices.Equal(view, rec) || len(slab) != 1 {
		t.Fatalf("view %q, copy %q, %d header slots left of %d", view, rec, len(slab), fields+1)
	}
	total := 0
	for _, v := range rec {
		total += len(v)
	}
	if fields != len(rec) || nbytes != total {
		t.Fatalf("MatchEncoded counted %d fields / %d bytes, the record has %d / %d", fields, nbytes, len(rec), total)
	}
	want := true
	for i, v := range pm {
		if i < len(rec) && v != nil && rec[i] != *v {
			want = false
		}
	}
	if match != want {
		t.Fatalf("MatchEncoded says %v for %q against the query, the fields say %v", match, rec, want)
	}
	canonical := AppendEncoded(nil, rec)
	if EncodedSize(rec) != len(canonical) {
		t.Fatalf("EncodedSize = %d, the encoding is %d bytes", EncodedSize(rec), len(canonical))
	}
	again, n, err := DecodeEncoded(canonical, 1)
	if err != nil || n != len(canonical) || !slices.Equal(again[0], rec) {
		t.Fatalf("canonical re-encoding decodes as %q (%d of %d bytes), %v", again, n, len(canonical), err)
	}
	if !bytes.Equal(AppendEncoded(nil, again[0]), canonical) {
		t.Fatal("canonical encoding not a fixed point")
	}
	return rec, nil
}

// FuzzDecodeRecord: arbitrary bytes must never panic, and every body
// MatchEncoded accepts satisfies checkEncoded for an arbitrary query.
// (Byte-level bijectivity does not hold: varints have non-minimal
// encodings, which decode fine but re-encode minimally.)
func FuzzDecodeRecord(f *testing.F) {
	for _, enc := range [][]byte{
		{},
		AppendEncoded(nil, Record{"a", "b"}),
		AppendEncoded(nil, Record{""}),
		{0x80, 0x00}, // non-minimal varint for 0
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		{1, 200, 1},                  // field length past the end
		{2, 1, 'a', 0x81, 0x00, 'b'}, // non-minimal field length
		{3, 0, 0},                    // more fields than bytes left
		append(AppendEncoded(nil, Record{"a"}), 0),
	} {
		f.Add(enc, uint8(2), uint8(3), "a", "b", "")
	}
	f.Fuzz(func(t *testing.T, enc []byte, arity, mask uint8, v0, v1, v2 string) {
		values := []string{v0, v1, v2}
		pm := make(PartialMatch, arity%4)
		for i := range pm {
			if mask&(1<<i) != 0 {
				pm[i] = &values[i]
			}
		}
		checkEncoded(t, enc, pm)
	})
}

// Bodies round-trip arbitrary field values, including empty and
// binary-looking strings, and fill exactly their encoding.
func TestRecordCodecProperty(t *testing.T) {
	f := func(fields []string, mask uint8) bool {
		pm := make(PartialMatch, len(fields))
		for i := range pm {
			if mask&(1<<(i%8)) != 0 {
				pm[i] = &fields[i]
			}
		}
		enc := AppendEncoded(nil, Record(fields))
		rec, err := checkEncoded(t, enc, pm)
		size, _, _, match, _ := MatchEncoded(enc, pm)
		return err == nil && size == len(enc) && match && slices.Equal(rec, Record(fields))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for name, enc := range map[string][]byte{
		"empty":                 {},
		"field past the end":    {1, 200, 1},
		"more fields than left": {3, 0, 0},
		"overflowing count":     {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02},
	} {
		if _, err := checkEncoded(t, enc, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Trailing bytes are not the body's: the caller framing it sees them.
	good := AppendEncoded(nil, Record{"a"})
	if size, _, _, _, err := MatchEncoded(append(good, 0), nil); err != nil || size != len(good) {
		t.Errorf("body with a trailing byte: size %d of %d, %v", size, len(good), err)
	}
	// A wide record: the count is bounded by the bytes, not a constant.
	wide := AppendEncoded(nil, make(Record, 1<<20+1))
	if rec, err := checkEncoded(t, wide, nil); err != nil || len(rec) != 1<<20+1 {
		t.Errorf("wide record: %d fields, %v", len(rec), err)
	}
}

func TestMultisetDigestProperties(t *testing.T) {
	a := []Record{{"ab", "c"}, {"x"}}
	b := []Record{{"x"}, {"ab", "c"}}
	if DigestOf(a) != DigestOf(b) {
		t.Error("digest is order-sensitive")
	}
	if DigestOf(a[:1]).Plus(DigestOf(a[1:])) != DigestOf(a) {
		t.Error("digest depends on how the records are grouped")
	}
	// Field boundaries matter: ["ab","c"] vs ["a","bc"].
	c := []Record{{"a", "bc"}, {"x"}}
	if DigestOf(a) == DigestOf(c) {
		t.Error("digest ignores field boundaries")
	}
	// So does the field count: ["x"] vs ["x",""].
	if DigestOf([]Record{{"x"}}) == DigestOf([]Record{{"x", ""}}) {
		t.Error("digest ignores an empty trailing field")
	}
	if d := DigestOf(a[:1]); d == DigestOf(a) || d.Records != 1 {
		t.Errorf("a dropped record digests as %+v, the whole as %+v", d, DigestOf(a))
	}
	if DigestOf(nil) != (Digest{}) {
		t.Error("empty digest not zero")
	}
}
