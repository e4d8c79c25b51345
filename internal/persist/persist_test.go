package persist

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"fxdist/internal/decluster"
	"fxdist/internal/mkhash"
)

func buildFile(t *testing.T, n int, opts ...mkhash.Option) *mkhash.File {
	t.Helper()
	f := mkhash.MustNew(mkhash.Schema{
		Fields: []string{"a", "b"},
		Depths: []int{3, 2},
	}, opts...)
	for i := 0; i < n; i++ {
		if err := f.Insert(mkhash.Record{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%9)}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func allRecords(t *testing.T, f *mkhash.File) []string {
	t.Helper()
	recs, err := f.Search(make(mkhash.PartialMatch, f.NumFields()))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r[0] + "|" + r[1]
	}
	sort.Strings(keys)
	return keys
}

func TestRoundTripWithAllocator(t *testing.T) {
	file := buildFile(t, 150)
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx := decluster.MustFX(fs)

	var buf bytes.Buffer
	if err := Save(&buf, file, fx); err != nil {
		t.Fatal(err)
	}
	restored, alloc, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if alloc == nil || alloc.Name() != fx.Name() {
		t.Fatalf("allocator not restored: %v", alloc)
	}
	a, b := allRecords(t, file), allRecords(t, restored)
	if len(a) != len(b) {
		t.Fatalf("restored %d records, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("record sets differ after round trip")
		}
	}
	// Same bucket placement after restore.
	fs.EachBucket(func(bk []int) {
		if len(file.Bucket(bk)) != len(restored.Bucket(bk)) {
			t.Fatalf("bucket %v occupancy differs", bk)
		}
	})
}

func TestRoundTripWithoutAllocator(t *testing.T) {
	file := buildFile(t, 20)
	var buf bytes.Buffer
	if err := Save(&buf, file, nil); err != nil {
		t.Fatal(err)
	}
	restored, alloc, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if alloc != nil {
		t.Error("allocator materialised from nothing")
	}
	if restored.Len() != 20 {
		t.Errorf("restored %d records", restored.Len())
	}
}

// Snapshots taken after Grow restore at the grown depths.
func TestRoundTripAfterGrow(t *testing.T) {
	file := buildFile(t, 100)
	if err := file.Grow(0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, file, nil); err != nil {
		t.Fatal(err)
	}
	restored, _, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, got := file.Depths(), restored.Depths()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("depths %v, want %v", got, want)
		}
	}
}

// Custom hash functions must be re-applied at load time.
func TestRoundTripCustomHash(t *testing.T) {
	custom := func(v string) uint64 { return uint64(len(v)) }
	file := buildFile(t, 50, mkhash.WithHash(0, custom))
	var buf bytes.Buffer
	if err := Save(&buf, file, nil); err != nil {
		t.Fatal(err)
	}
	restored, _, err := Load(&buf, mkhash.WithHash(0, custom))
	if err != nil {
		t.Fatal(err)
	}
	pm, _ := restored.Spec(map[string]string{"a": "a7"})
	recs, err := restored.Search(pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Errorf("search after custom-hash restore found %d records", len(recs))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, err := Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	file := buildFile(t, 1)
	if err := Save(&buf, file, nil); err != nil {
		t.Fatal(err)
	}
	// Re-encode with a bumped version by decoding and poking the struct.
	var snap snapshot
	if err := decodeInto(&buf, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Version = 99
	var buf2 bytes.Buffer
	if err := encodeFrom(&buf2, &snap); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(&buf2); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	file := buildFile(t, 30)
	fs, _ := file.FileSystem(4)
	md := decluster.NewModulo(fs)
	path := filepath.Join(t.TempDir(), "snap.fx")
	if err := SaveFile(path, file, md); err != nil {
		t.Fatal(err)
	}
	restored, alloc, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 30 || alloc.Name() != "Modulo" {
		t.Errorf("restored %d records, alloc %v", restored.Len(), alloc)
	}
	if _, _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}
