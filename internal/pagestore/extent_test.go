package pagestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
)

// countingReaderAt counts the reads a store issues.
type countingReaderAt struct {
	r     io.ReaderAt
	reads int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.r.ReadAt(p, off)
}

func frameSize(rec mkhash.Record) int { return frameHeaderSize + 1 + mkhash.EncodedSize(rec) }

// storeOf is a store over an in-memory log: one run of bucket holding a
// put frame per body, bodies unchecked.
func storeOf(bucket uint32, bodies ...[]byte) *Store {
	var log []byte
	for _, body := range bodies {
		frame := len(log)
		log = append(append(log, make([]byte, frameHeaderSize)...), kindPut)
		log = append(log, body...)
		binary.LittleEndian.PutUint32(log[frame+4:], bucket)
		binary.LittleEndian.PutUint32(log[frame+8:], uint32(1+len(body)))
	}
	return &Store{r: bytes.NewReader(log), index: map[uint32][]extent{bucket: {{0, uint32(len(log))}}}}
}

// A scan issues exactly one read per run: one for a bucket written as a
// run, however many records it holds, and one more for every single
// append that landed away from it.
func TestScanReadsOncePerRun(t *testing.T) {
	s, _ := tempStore(t)
	defer s.Close()
	var run []mkhash.Record
	for i := 0; i < 40; i++ {
		run = append(run, mkhash.Record{fmt.Sprintf("part-%d", i), "x"})
	}
	for bucket := uint32(0); bucket < 3; bucket++ {
		if err := s.AppendRun(bucket, run); err != nil {
			t.Fatal(err)
		}
	}
	// Bucket 2's first lands where its run ends and extends it; the other
	// three are away from their bucket's run and start one each.
	for i := 0; i < 4; i++ {
		if err := s.Append(uint32(2-i%3), mkhash.Record{"late", "x"}); err != nil {
			t.Fatal(err)
		}
	}
	counter := &countingReaderAt{r: s.r}
	s.r = counter
	late := "late"
	for bucket, want := range map[uint32]struct{ runs, scanned, hits int }{0: {2, 41, 1}, 1: {2, 41, 1}, 2: {2, 42, 2}, 9: {}} {
		if got := len(s.index[bucket]); got != want.runs {
			t.Fatalf("bucket %d holds %d runs, want %d", bucket, got, want.runs)
		}
		counter.reads = 0
		hits, scanned, err := matching(s, bucket, mkhash.PartialMatch{&late, nil})
		if err != nil {
			t.Fatal(err)
		}
		if counter.reads != want.runs || scanned != want.scanned || len(hits) != want.hits {
			t.Errorf("bucket %d: %d reads, %d scanned, %d hits, want %+v", bucket, counter.reads, scanned, len(hits), want)
		}
	}
}

// framesTaken counts the Frames slabs handed out and given back since
// before.
func framesTaken(before mempool.Stats) (gets, puts uint64) {
	after := mempool.Frames.Stats()
	return after.Gets + after.Misses + after.Oversize - before.Gets - before.Misses - before.Oversize,
		after.Puts + after.Drops - before.Puts - before.Drops
}

// A stored record with fewer fields than the query is a scan error (it
// was an index-out-of-range panic in engine.Matches); one with more is
// compared on the fields the query has. A scan that fails — on the short
// record after a hit was collected, or on a corrupt body — gives every
// Frames slab it took back and hands out no hit.
func TestScanMatchingArity(t *testing.T) {
	s, _ := tempStore(t)
	defer s.Close()
	if err := s.AppendRun(1, []mkhash.Record{{"a", "b", "c"}, {"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	a := "a"
	before := mempool.Frames.Stats()
	var found mkhash.Encoded
	if _, err := s.AppendMatching(1, mkhash.PartialMatch{&a, nil, nil}, &found); err == nil {
		t.Error("a two-field record answered a three-field query")
	}
	found.Release()
	// The run's slab and the slab holding the first record's body.
	if gets, puts := framesTaken(before); gets != 2 || puts != gets || !reflect.ValueOf(found).IsZero() {
		t.Errorf("short record: %d slabs taken, %d given back, %+v still held", gets, puts, found)
	}
	if got := collect(t, s, 1); len(got) != 2 {
		t.Errorf("unfiltered scan returned %v", got)
	}
	hits, scanned, err := matching(s, 1, mkhash.PartialMatch{&a})
	if err != nil || scanned != 2 || len(hits) != 2 {
		t.Errorf("one-field query: scanned %d, %d hits, %v", scanned, len(hits), err)
	}

	corrupt := storeOf(1, mkhash.AppendEncoded(nil, mkhash.Record{"a"}), []byte{1, 200, 1})
	before = mempool.Frames.Stats()
	called := 0
	err = corrupt.ScanInto(1, mempool.NewRecordBuilder(false), func(mkhash.Record) error { called++; return nil })
	if gets, puts := framesTaken(before); err == nil || called != 0 || gets != 2 || puts != gets {
		t.Errorf("corrupt body: %v, %d records handed out, %d slabs taken, %d given back", err, called, gets, puts)
	}
}

// parentFixtureOps replays what wrote testdata/parent-7fd9df8.log (with
// the per-record Append of commit 7fd9df8, before runs existed).
func parentFixtureOps(t *testing.T, s *Store) {
	t.Helper()
	for i := 0; i < 12; i++ {
		if err := s.Append(uint32(i%3), mkhash.Record{fmt.Sprintf("part-%02d", i), fmt.Sprintf("supplier-%d", i%4), ""}); err != nil {
			t.Fatal(err)
		}
	}
	var dups []mkhash.Record
	for i := 0; i < 4; i++ {
		dups = append(dups, mkhash.Record{"dup", fmt.Sprintf("s-%d", i%2), "x"})
	}
	if err := s.AppendRun(7, dups); err != nil { // the parent appended these one by one
		t.Fatal(err)
	}
	if n, err := s.Delete(1, mkhash.Record{"part-04", "supplier-0", ""}); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	if n, err := s.Delete(7, mkhash.Record{"dup", "s-1", "x"}); err != nil || n != 2 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	if err := s.Append(1, mkhash.Record{"part-99", "supplier-9", "after deletes"}); err != nil {
		t.Fatal(err)
	}
}

// The log format did not change. The same operations produce the
// parent's bytes (so the parent opens what this code writes), and the
// parent's log opens, scans, deletes, compacts and reopens here.
func TestParentLogFixture(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent-7fd9df8.log"))
	if err != nil {
		t.Fatal(err)
	}
	s, path := tempStore(t)
	parentFixtureOps(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, fixture) {
		t.Fatalf("the same operations wrote %d bytes that differ from the parent's %d", len(written), len(fixture))
	}

	check := func(s *Store, bucket1 int) {
		t.Helper()
		if s.Len() != 10+bucket1 || s.Buckets() != 4 {
			t.Fatalf("Len=%d Buckets=%d", s.Len(), s.Buckets())
		}
		if got := collect(t, s, 1); len(got) != bucket1 || got[0][0] != "part-01" || got[len(got)-1][0] != "part-99" {
			t.Fatalf("bucket 1 = %v", got)
		}
		want := []mkhash.Record{{"dup", "s-0", "x"}, {"dup", "s-0", "x"}}
		if got := collect(t, s, 7); !reflect.DeepEqual(got, want) {
			t.Fatalf("bucket 7 = %v", got)
		}
	}
	copyPath := filepath.Join(t.TempDir(), "parent.log")
	if err := os.WriteFile(copyPath, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(copyPath); err != nil {
		t.Fatal(err)
	}
	check(s, 4)
	// Bucket 7 was written back to back and lost frames 1 and 3.
	if got := s.index[7]; len(got) != 2 || got[0].size != got[1].size || got[1].off != got[0].off+2*int64(got[0].size) {
		t.Fatalf("bucket 7 runs = %+v", got)
	}
	if n, err := s.Delete(1, mkhash.Record{"part-07", "supplier-3", ""}); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check(s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(copyPath); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s, 3)
}

// logFrame is one frame of the model's log.
type logFrame struct {
	tombstone bool
	bucket    uint32
	rec       mkhash.Record
}

// replay derives what a log must hold: per bucket, the live records in
// scan order and the runs — maximal stretches of live put frames of the
// bucket that are adjacent in the file.
func replay(log []logFrame) (map[uint32][]mkhash.Record, map[uint32][]extent) {
	type placed struct {
		rec mkhash.Record
		ext extent
	}
	live := map[uint32][]placed{}
	var off int64
	for _, f := range log {
		n := frameSize(f.rec)
		if f.tombstone {
			kept := live[f.bucket][:0:0]
			for _, p := range live[f.bucket] {
				if !reflect.DeepEqual(p.rec, f.rec) {
					kept = append(kept, p)
				}
			}
			live[f.bucket] = kept
		} else {
			live[f.bucket] = append(live[f.bucket], placed{f.rec, extent{off, uint32(n)}})
		}
		off += int64(n)
	}
	recs, runs := map[uint32][]mkhash.Record{}, map[uint32][]extent{}
	for bucket, ps := range live {
		for _, p := range ps {
			recs[bucket] = append(recs[bucket], p.rec)
			if k := len(runs[bucket]) - 1; k >= 0 && runs[bucket][k].off+int64(runs[bucket][k].size) == p.ext.off {
				runs[bucket][k].size += p.ext.size
			} else {
				runs[bucket] = append(runs[bucket], p.ext)
			}
		}
	}
	return recs, runs
}

// Seeded model test of the extent index: random appends, runs, deletes,
// compactions, reopens and torn tails against a replayed log model. After
// every step each bucket scans to the model's records in order, Len and
// Buckets agree, and the index holds exactly the model's runs — adjacent
// frames of a bucket coalesce, a delete inside a run splits it, a reopen
// rebuilds the same runs, and a compaction leaves one run per bucket.
func TestExtentModel(t *testing.T) {
	randRec := func(rng *rand.Rand) mkhash.Record {
		return mkhash.Record{fmt.Sprintf("k%d", rng.Intn(5)), fmt.Sprintf("v%d", rng.Intn(2))}
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, path := tempStore(t)
		var log []logFrame
		reopen := func() {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			var err error
			if s, err = Open(path); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 250; step++ {
			bucket := uint32(rng.Intn(4))
			var op string
			switch k := rng.Intn(20); {
			case k < 7:
				op = "append"
				rec := randRec(rng)
				if err := s.Append(bucket, rec); err != nil {
					t.Fatal(err)
				}
				log = append(log, logFrame{false, bucket, rec})
			case k < 11:
				op = "appendRun"
				var recs []mkhash.Record
				for i := rng.Intn(5); i >= 0; i-- {
					recs = append(recs, randRec(rng))
					log = append(log, logFrame{false, bucket, recs[len(recs)-1]})
				}
				if err := s.AppendRun(bucket, recs); err != nil {
					t.Fatal(err)
				}
			case k < 16:
				op = "delete"
				rec := randRec(rng)
				recs, _ := replay(log)
				want := 0
				for _, r := range recs[bucket] {
					if reflect.DeepEqual(r, rec) {
						want++
					}
				}
				if n, err := s.Delete(bucket, rec); err != nil || n != want {
					t.Fatalf("seed %d step %d: delete = %d, %v, want %d", seed, step, n, err, want)
				}
				if want > 0 {
					log = append(log, logFrame{true, bucket, rec})
				}
			case k < 17:
				op = "compact"
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				// The compacted log holds each bucket's live records
				// as one run, buckets in an order only the store knows.
				recs, _ := replay(log)
				var order []uint32
				for b, runs := range s.index {
					if len(runs) != 1 {
						t.Fatalf("seed %d step %d: bucket %d has %d runs after compact", seed, step, b, len(runs))
					}
					order = append(order, b)
				}
				sort.Slice(order, func(i, j int) bool { return s.index[order[i]][0].off < s.index[order[j]][0].off })
				log = log[:0]
				for _, b := range order {
					for _, r := range recs[b] {
						log = append(log, logFrame{false, b, r})
					}
				}
			case k < 19:
				op = "reopen"
				reopen()
			default:
				op = "torn tail"
				if len(log) == 0 {
					continue
				}
				last := log[len(log)-1]
				log = log[:len(log)-1]
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				info, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(path, info.Size()-int64(1+rng.Intn(frameSize(last.rec)))); err != nil {
					t.Fatal(err)
				}
				if s, err = Open(path); err != nil {
					t.Fatal(err)
				}
			}
			recs, runs := replay(log)
			total := 0
			for b := uint32(0); b < 4; b++ {
				if got := collect(t, s, b); !reflect.DeepEqual(got, recs[b]) {
					t.Fatalf("seed %d step %d (%s): bucket %d scans to %v, model %v", seed, step, op, b, got, recs[b])
				}
				total += len(recs[b])
			}
			if s.Len() != total || s.Buckets() != len(recs) {
				t.Fatalf("seed %d step %d (%s): Len=%d Buckets=%d, model %d/%d", seed, step, op, s.Len(), s.Buckets(), total, len(recs))
			}
			if !reflect.DeepEqual(s.index, runs) {
				t.Fatalf("seed %d step %d (%s): index %v, model %v", seed, step, op, s.index, runs)
			}
		}
		reopen()
		if _, runs := replay(log); !reflect.DeepEqual(s.index, runs) {
			t.Fatalf("seed %d: index after final reopen %v, model %v", seed, s.index, runs)
		}
		s.Close()
	}
}

// A run larger than chunk is split on a frame boundary, the same way by
// a live append and by recovery — whose chunked reads meet frames that
// straddle a chunk edge and one larger than a chunk — and a frame larger
// than chunk is a run of its own.
func TestRunsCappedAtChunk(t *testing.T) {
	s, path := tempStore(t)
	big := mkhash.Record{string(make([]byte, 300<<10))}
	huge := mkhash.Record{string(make([]byte, chunk+100<<10))}
	if err := s.AppendRun(5, []mkhash.Record{big, big, big, big, big, huge, big}); err != nil {
		t.Fatal(err)
	}
	n, h := uint32(frameSize(big)), uint32(frameSize(huge))
	want := []extent{{0, 3 * n}, {3 * int64(n), 2 * n}, {5 * int64(n), h}, {5*int64(n) + int64(h), n}}
	for _, cut := range []int64{0, 10} {
		if !reflect.DeepEqual(s.index[5], want) {
			t.Fatalf("runs = %+v, want %+v", s.index[5], want)
		}
		if got := collect(t, s, 5); len(got) != len(want)+3 || len(got[5]) != 1 || got[5][0] != huge[0] {
			t.Fatalf("scanned %d records", len(got))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if cut > 0 { // tear the last frame off
			if err := os.Truncate(path, 5*int64(n)+int64(h)+int64(n)-cut); err != nil {
				t.Fatal(err)
			}
			want = want[:3]
		}
		var err error
		if s, err = Open(path); err != nil {
			t.Fatal(err)
		}
	}
	defer s.Close()
	if !reflect.DeepEqual(s.index[5], want) || s.Len() != 6 {
		t.Fatalf("after the torn tail: Len=%d runs=%+v, want %+v", s.Len(), s.index[5], want)
	}
}
