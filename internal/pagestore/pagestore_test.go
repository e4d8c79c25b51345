package pagestore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
)

func tempStore(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dev0.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

func collect(t *testing.T, s *Store, bucket uint32) []mkhash.Record {
	t.Helper()
	var out []mkhash.Record
	if err := s.ScanInto(bucket, mempool.NewRecordBuilder(false), func(r mkhash.Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// matching is a durable device's scan of one bucket: collect the hits,
// build them into owned memory, give the slab back.
func matching(s *Store, bucket uint32, pm mkhash.PartialMatch) (hits []mkhash.Record, scanned int, err error) {
	var found mkhash.Encoded
	defer found.Release()
	if scanned, err = s.AppendMatching(bucket, pm, &found); err != nil {
		return nil, scanned, err
	}
	err = found.Build(mempool.NewRecordBuilder(false), func(r mkhash.Record) error {
		hits = append(hits, r)
		return nil
	})
	return hits, scanned, err
}

func TestAppendScanRoundTrip(t *testing.T) {
	s, _ := tempStore(t)
	defer s.Close()
	recs := []mkhash.Record{
		{"a", "b", "c"},
		{"", "empty first field ok", ""},
		{"unicode ✓", "tab\tand\nnewline", "x"},
	}
	for _, r := range recs {
		if err := s.Append(7, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(9, mkhash.Record{"other", "bucket", "z"}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, s, 7)
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("scan = %v, want %v", got, recs)
	}
	if len(collect(t, s, 9)) != 1 || len(collect(t, s, 8)) != 0 {
		t.Error("bucket isolation broken")
	}
	if s.Len() != 4 || s.Buckets() != 2 {
		t.Errorf("Len=%d Buckets=%d", s.Len(), s.Buckets())
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	s, path := tempStore(t)
	for i := 0; i < 100; i++ {
		if err := s.Append(uint32(i%10), mkhash.Record{fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 100 || s2.Buckets() != 10 {
		t.Fatalf("after reopen Len=%d Buckets=%d", s2.Len(), s2.Buckets())
	}
	got := collect(t, s2, 3)
	if len(got) != 10 || got[0][0] != "v3" || got[9][0] != "v93" {
		t.Errorf("bucket 3 after reopen = %v", got)
	}
}

// A torn tail (crash mid-append) must be truncated away on open, keeping
// every fully written frame.
func TestTornTailRecovery(t *testing.T) {
	s, path := tempStore(t)
	for i := 0; i < 20; i++ {
		if err := s.Append(1, mkhash.Record{fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop 3 bytes off the final frame.
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 19 {
		t.Fatalf("after torn-tail recovery Len=%d, want 19", s2.Len())
	}
	if torn, off, was := s2.TornTail(); !torn || was != info.Size()-3 || off >= was {
		t.Errorf("TornTail() = %v, %d, %d; want a cut below the chopped size %d", torn, off, was, info.Size()-3)
	}
	if torn, _, _ := s.TornTail(); torn {
		t.Error("a freshly created store reports a torn tail")
	}
	// The file must have been truncated to the valid prefix so appends
	// continue cleanly.
	if err := s2.Append(1, mkhash.Record{"post-crash"}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, s2, 1)
	if got[len(got)-1][0] != "post-crash" || got[18][0] != "v18" {
		t.Errorf("post-recovery contents wrong: %v", got[len(got)-2:])
	}
}

// A bit flip in a frame body must cut the log at that frame (CRC
// mismatch), not return corrupt data.
func TestCorruptFrameDetected(t *testing.T) {
	s, path := tempStore(t)
	for i := 0; i < 10; i++ {
		if err := s.Append(1, mkhash.Record{fmt.Sprintf("value-%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the 6th frame's payload.
	frameLen := len(raw) / 10
	raw[5*frameLen+frameHeaderSize+2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 5 {
		t.Fatalf("after corruption Len=%d, want 5 (valid prefix)", s2.Len())
	}
}

// A frame announcing an absurd length must not cause a huge allocation.
func TestImplausibleLengthRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "evil.log")
	frame := make([]byte, frameHeaderSize)
	binary.LittleEndian.PutUint32(frame[8:12], 0xFFFFFFF0)
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0", s.Len())
	}
}

func TestEachBucket(t *testing.T) {
	s, _ := tempStore(t)
	defer s.Close()
	for i := 0; i < 30; i++ {
		s.Append(uint32(i%3), mkhash.Record{"x"})
	}
	seen := map[uint32]bool{}
	if err := s.EachBucket(func(b uint32) error {
		seen[b] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Errorf("EachBucket visited %v", seen)
	}
	wantErr := fmt.Errorf("stop")
	if err := s.EachBucket(func(uint32) error { return wantErr }); err != wantErr {
		t.Error("EachBucket did not propagate the callback error")
	}
}

func TestScanPropagatesCallbackError(t *testing.T) {
	s, _ := tempStore(t)
	defer s.Close()
	s.Append(0, mkhash.Record{"a"})
	wantErr := fmt.Errorf("stop")
	if err := s.ScanInto(0, mempool.NewRecordBuilder(false), func(mkhash.Record) error { return wantErr }); err != wantErr {
		t.Error("Scan did not propagate the callback error")
	}
}

func TestOpenFailsOnDirectory(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("Open on a directory succeeded")
	}
}

// TestWideRecordReadsBack: a record Append accepts must read back through
// every path — scan, Compact, Delete and the tombstone's replay on Open —
// however many fields it has. A field costs at least its length byte, so
// the payload bound is the only bound on the field count.
func TestWideRecordReadsBack(t *testing.T) {
	s, path := tempStore(t)
	wide := make(mkhash.Record, 1<<20+1)
	if err := s.Append(7, wide); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(3, mkhash.Record{"a"}); err != nil {
		t.Fatal(err)
	}
	hits, scanned, err := matching(s, 7, nil)
	if err != nil || scanned != 1 || len(hits) != 1 || len(hits[0]) != len(wide) {
		t.Fatalf("scan: %d hits of %d scanned, %v", len(hits), scanned, err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if got := collect(t, s, 3); !reflect.DeepEqual(got, []mkhash.Record{{"a"}}) {
		t.Fatalf("bucket 3 after compact = %v", got)
	}
	if n, err := s.Delete(7, wide); n != 1 || err != nil {
		t.Fatalf("delete = %d, %v", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	if s.Len() != 1 || len(collect(t, s, 7)) != 0 {
		t.Fatalf("after reopen: %d records, bucket 7 holds %d", s.Len(), len(collect(t, s, 7)))
	}
}
