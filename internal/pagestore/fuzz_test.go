package pagestore

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
)

// FuzzOpenRecovery: arbitrary file contents must open without panicking,
// and the store must remain appendable and scannable afterwards.
func FuzzOpenRecovery(f *testing.F) {
	f.Add([]byte{})
	// A valid single-frame log as seed.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.log")
	s, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Append(3, mkhash.Record{"x", "y"}); err != nil {
		f.Fatal(err)
	}
	s.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(append(raw, 0xDE, 0xAD))

	f.Fuzz(func(t *testing.T, contents []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(p, contents, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(p)
		if err != nil {
			return // I/O errors are acceptable; panics are not
		}
		defer st.Close()
		if err := st.Append(1, mkhash.Record{"post"}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		found := false
		if err := st.ScanInto(1, mempool.NewRecordBuilder(false), func(r mkhash.Record) error {
			if len(r) == 1 && r[0] == "post" {
				found = true
			}
			return nil
		}); err != nil {
			t.Fatalf("scan after recovery: %v", err)
		}
		if !found {
			t.Fatal("appended record not found after recovery")
		}
	})
}

// referenceDecode is the decoder the store had before it matched on the
// encoded bytes, kept as the oracle FuzzScanMatching compares against.
func referenceDecode(payload []byte) (mkhash.Record, error) {
	rd := payload
	take := func() (uint64, error) {
		v, n := binary.Uvarint(rd)
		if n <= 0 {
			return 0, io.ErrUnexpectedEOF
		}
		rd = rd[n:]
		return v, nil
	}
	count, err := take()
	if err != nil {
		return nil, fmt.Errorf("pagestore: corrupt record header")
	}
	if count > uint64(len(rd)) { // a field costs at least its length byte
		return nil, fmt.Errorf("pagestore: implausible field count %d", count)
	}
	rec := make(mkhash.Record, 0, count)
	for i := uint64(0); i < count; i++ {
		l, err := take()
		if err != nil || uint64(len(rd)) < l {
			return nil, fmt.Errorf("pagestore: corrupt field length")
		}
		rec = append(rec, string(rd[:l]))
		rd = rd[l:]
	}
	if len(rd) != 0 {
		return nil, fmt.Errorf("pagestore: %d trailing bytes in record frame", len(rd))
	}
	return rec, nil
}

// FuzzScanMatching: for an arbitrary record body and an arbitrary query,
// the scan — walk, match on the encoded bytes, collect the hit with
// AppendMatching, Build it — returns exactly what decoding the body and
// asking the decoded record's fields (agrees) returns. It errors on every
// body the decoder rejects, and on a record with fewer fields than the
// query (where agrees would index out of range). Released slabs are
// poisoned, so a hit still aliasing the collected bytes fails the
// comparison.
func FuzzScanMatching(f *testing.F) {
	defer mempool.SetPoison(mempool.SetPoison(true))
	for _, body := range [][]byte{
		{},
		mkhash.AppendEncoded(nil, mkhash.Record{"a", "b"}),
		mkhash.AppendEncoded(nil, mkhash.Record{""}),
		{0x80, 0x00}, // non-minimal varint for 0
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		{1, 200, 1},                  // field length past the end
		{2, 1, 'a', 0x81, 0x00, 'b'}, // non-minimal field length
		append(mkhash.AppendEncoded(nil, mkhash.Record{"a"}), 0),
	} {
		f.Add(body, uint8(2), uint8(3), "a", "b", "")
		f.Add(body, uint8(1), uint8(1), "", "", "")
		f.Add(body, uint8(3), uint8(0), "a", "b", "c")
	}
	f.Fuzz(func(t *testing.T, body []byte, arity, mask uint8, v0, v1, v2 string) {
		values := []string{v0, v1, v2}
		pm := make(mkhash.PartialMatch, arity%4)
		for i := range pm {
			if mask&(1<<i) != 0 {
				pm[i] = &values[i]
			}
		}
		hits, scanned, err := matching(storeOf(11, body), 11, pm)
		want, decodeErr := referenceDecode(body)
		switch {
		case decodeErr != nil:
			if err == nil {
				t.Fatalf("scan accepted a body the decoder rejects (%v)", decodeErr)
			}
		case len(want) < len(pm):
			if err == nil {
				t.Fatalf("scan matched a %d-field record against a %d-field query", len(want), len(pm))
			}
		case err != nil:
			t.Fatalf("scan rejected a valid body: %v", err)
		case scanned != 1:
			t.Fatalf("scanned = %d", scanned)
		case !agrees(pm, want):
			if len(hits) != 0 {
				t.Fatalf("scan returned %v, the decoded record does not match", hits)
			}
		case len(hits) != 1 || len(hits[0]) != len(want):
			t.Fatalf("scan returned %v, want [%v]", hits, want)
		default:
			for i := range want {
				if hits[0][i] != want[i] {
					t.Fatalf("field %d = %q, want %q", i, hits[0][i], want[i])
				}
			}
		}
	})
}

// agrees is the scan's oracle on a decoded record: every field pm
// specifies equals the record's value, compared as strings.
func agrees(pm mkhash.PartialMatch, r mkhash.Record) bool {
	for i, v := range pm {
		if v != nil && r[i] != *v {
			return false
		}
	}
	return true
}
