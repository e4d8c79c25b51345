package pagestore

import (
	"fmt"
	"os"
	"testing"

	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
)

func TestDeleteRemovesMatches(t *testing.T) {
	s, _ := tempStore(t)
	defer s.Close()
	s.Append(1, mkhash.Record{"dup"})  //nolint:errcheck
	s.Append(1, mkhash.Record{"keep"}) //nolint:errcheck
	s.Append(1, mkhash.Record{"dup"})  //nolint:errcheck
	s.Append(2, mkhash.Record{"dup"})  //nolint:errcheck // other bucket untouched
	n, err := s.Delete(1, mkhash.Record{"dup"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("deleted %d, want 2", n)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	got := collect(t, s, 1)
	if len(got) != 1 || got[0][0] != "keep" {
		t.Errorf("bucket 1 after delete = %v", got)
	}
	if len(collect(t, s, 2)) != 1 {
		t.Error("delete leaked into another bucket")
	}
	// Deleting a missing record writes nothing and reports zero.
	sizeBefore := s.size
	n, err = s.Delete(1, mkhash.Record{"missing"})
	if err != nil || n != 0 {
		t.Errorf("delete missing = %d, %v", n, err)
	}
	if s.size != sizeBefore {
		t.Error("tombstone written for a missing record")
	}
}

// Tombstones must survive restarts: the deletion replays from the log.
func TestDeletePersistsAcrossReopen(t *testing.T) {
	s, path := tempStore(t)
	for i := 0; i < 10; i++ {
		s.Append(1, mkhash.Record{fmt.Sprintf("v%d", i%3)}) //nolint:errcheck
	}
	if _, err := s.Delete(1, mkhash.Record{"v1"}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, r := range collect(t, s2, 1) {
		if r[0] == "v1" {
			t.Fatal("deleted record resurrected after reopen")
		}
	}
	// v1 was written for i in {1, 4, 7}: 3 copies deleted, 7 remain.
	if s2.Len() != 7 {
		t.Errorf("Len after reopen = %d, want 7", s2.Len())
	}
}

func TestCompactShrinksAndPreserves(t *testing.T) {
	s, path := tempStore(t)
	defer s.Close()
	for i := 0; i < 50; i++ {
		s.Append(uint32(i%5), mkhash.Record{fmt.Sprintf("v%d", i)}) //nolint:errcheck
	}
	for i := 0; i < 25; i++ {
		if _, err := s.Delete(uint32(i%5), mkhash.Record{fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	liveBefore := map[string]bool{}
	for b := uint32(0); b < 5; b++ {
		for _, r := range collect(t, s, b) {
			liveBefore[fmt.Sprintf("%d/%s", b, r[0])] = true
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink: %d -> %d", before.Size(), after.Size())
	}
	if s.Len() != 25 {
		t.Errorf("Len after compact = %d, want 25", s.Len())
	}
	for b := uint32(0); b < 5; b++ {
		for _, r := range collect(t, s, b) {
			key := fmt.Sprintf("%d/%s", b, r[0])
			if !liveBefore[key] {
				t.Fatalf("record %s appeared from nowhere", key)
			}
			delete(liveBefore, key)
		}
	}
	if len(liveBefore) != 0 {
		t.Errorf("records lost in compaction: %v", liveBefore)
	}
	// The store remains usable after compaction.
	if err := s.Append(1, mkhash.Record{"post-compact"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete(1, mkhash.Record{"post-compact"}); err != nil {
		t.Fatal(err)
	}
}

func TestPathAndSync(t *testing.T) {
	s, path := tempStore(t)
	defer s.Close()
	if s.Path() != path {
		t.Errorf("Path = %q, want %q", s.Path(), path)
	}
	if err := s.Append(0, mkhash.Record{"x"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Errorf("Sync failed: %v", err)
	}
}

// Operations on a closed store surface errors rather than corrupting.
func TestOperationsAfterClose(t *testing.T) {
	s, _ := tempStore(t)
	s.Append(0, mkhash.Record{"x"}) //nolint:errcheck
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(0, mkhash.Record{"y"}); err == nil {
		t.Error("append after close succeeded")
	}
	if err := s.ScanInto(0, mempool.NewRecordBuilder(false), func(mkhash.Record) error { return nil }); err == nil {
		t.Error("scan after close succeeded")
	}
}

// Compacted stores reopen correctly.
func TestCompactThenReopen(t *testing.T) {
	s, path := tempStore(t)
	for i := 0; i < 20; i++ {
		s.Append(3, mkhash.Record{fmt.Sprintf("v%d", i)}) //nolint:errcheck
	}
	if _, err := s.Delete(3, mkhash.Record{"v7"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 19 {
		t.Errorf("Len = %d, want 19", s2.Len())
	}
}
