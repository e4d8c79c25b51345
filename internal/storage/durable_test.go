package storage

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/query"
	"fxdist/internal/retry"
)

func durableFixture(t *testing.T, n, m int) (*mkhash.File, decluster.GroupAllocator) {
	t.Helper()
	file := carFile(t, n)
	fs, err := file.FileSystem(m)
	if err != nil {
		t.Fatal(err)
	}
	return file, decluster.MustFX(fs)
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func sortedKeys(recs []mkhash.Record) []string {
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r[0] + "|" + r[1] + "|" + r[2]
	}
	sort.Strings(keys)
	return keys
}

func TestDurableCreateRetrieveMatchesSearch(t *testing.T) {
	file, fx := durableFixture(t, 400, 8)
	dir := t.TempDir()
	c, err := CreateDurable(dir, file, fx, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != file.Len() || c.M() != 8 {
		t.Fatalf("Len=%d M=%d", c.Len(), c.M())
	}
	for _, spec := range []map[string]string{
		{"make": "make3"},
		{"model": "model7", "year": "1987"},
		{},
	} {
		pm, err := file.Spec(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := file.Search(pm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Retrieve(pm)
		if err != nil {
			t.Fatal(err)
		}
		g, w := sortedKeys(got.Records), sortedKeys(want)
		if len(g) != len(w) {
			t.Fatalf("spec %v: durable %d records, search %d", spec, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("spec %v: record sets differ", spec)
			}
		}
	}
}

func TestDurableReopen(t *testing.T) {
	file, fx := durableFixture(t, 250, 4)
	dir := t.TempDir()
	c, err := CreateDurable(dir, file, fx, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	// Insert extra records after creation, sync, close.
	extra := mkhash.Record{"make99", "model99", "1999"}
	if err := c.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurable(dir, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 251 {
		t.Fatalf("reopened Len=%d, want 251", re.Len())
	}
	if re.Allocator().Name() != fx.Name() {
		t.Errorf("allocator %q, want %q", re.Allocator().Name(), fx.Name())
	}
	pm, _ := file.Spec(map[string]string{"make": "make99"})
	got, err := re.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 1 || got.Records[0][1] != "model99" {
		t.Errorf("post-reopen retrieve = %v", got.Records)
	}
}

// TestDurableReopensParentHashDirectory opens a directory that commit
// dabf288 wrote (carFile(120), 4 devices, hash/fnv's New64a): every
// record must still be found by the exact-match query that hashes to
// its bucket, so DefaultHash may not drift from the values on disk.
func TestDurableReopensParentHashDirectory(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "durable-dabf288")
	names, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(src, n.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, n.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := OpenDurable(dir, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	file := carFile(t, 120)
	if c.Len() != file.Len() {
		t.Fatalf("reopened Len=%d, want %d", c.Len(), file.Len())
	}
	file.EachBucket(func(_ []int, records []mkhash.Record) {
		for _, r := range records {
			pm, err := c.Spec(map[string]string{"make": r[0], "model": r[1], "year": r[2]})
			if err != nil {
				t.Fatal(err)
			}
			want, _ := file.Search(pm)
			got, err := c.Retrieve(pm)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Records) == 0 || len(got.Records) != len(want) {
				t.Fatalf("record %v: durable %d records, search %d", r, len(got.Records), len(want))
			}
		}
	})
}

func TestDurableSurvivesTornDeviceLog(t *testing.T) {
	file, fx := durableFixture(t, 300, 4)
	dir := t.TempDir()
	c, err := CreateDurable(dir, file, fx, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Len()
	c.Close()
	// Simulate a crash mid-append on device 2.
	path := devicePath(dir, 2)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < 10 {
		t.Skip("device 2 holds too little data to tear")
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() >= before || re.Len() < before-1 {
		t.Errorf("after torn log Len=%d, want %d-1", re.Len(), before)
	}
	// Queries still work.
	pm, _ := file.Spec(map[string]string{"year": "1985"})
	if _, err := re.Retrieve(pm); err != nil {
		t.Fatal(err)
	}
}

func TestCreateDurableValidation(t *testing.T) {
	file, fx := durableFixture(t, 10, 4)
	dir := t.TempDir()
	if _, err := CreateDurable(dir, file, fx, MainMemory); err != nil {
		t.Fatal(err)
	}
	// Second create in the same dir must refuse.
	if _, err := CreateDurable(dir, file, fx, MainMemory); err == nil {
		t.Error("create over existing cluster accepted")
	}
	wrong := decluster.MustFX(decluster.MustFileSystem([]int{4, 8}, 4))
	if _, err := CreateDurable(t.TempDir(), file, wrong, MainMemory); err == nil {
		t.Error("allocator arity mismatch accepted")
	}
	wrongSizes := decluster.MustFX(decluster.MustFileSystem([]int{4, 4, 2}, 4))
	if _, err := CreateDurable(t.TempDir(), file, wrongSizes, MainMemory); err == nil {
		t.Error("allocator size mismatch accepted")
	}
}

func TestOpenDurableErrors(t *testing.T) {
	if _, err := OpenDurable(t.TempDir(), MainMemory); err == nil {
		t.Error("open of empty dir succeeded")
	}
	// Metadata without an allocator spec is rejected.
	dir := t.TempDir()
	schemaOnly := mkhash.MustNew(mkhash.Schema{Fields: []string{"a"}, Depths: []int{2}})
	if err := persistSaveNoAlloc(dir, schemaOnly); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, MainMemory); err == nil {
		t.Error("metadata without allocator accepted")
	}
}

func TestDurableInsertValidation(t *testing.T) {
	file, fx := durableFixture(t, 10, 4)
	c, err := CreateDurable(t.TempDir(), file, fx, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert(mkhash.Record{"wrong", "arity"}); err == nil {
		t.Error("wrong-arity record accepted")
	}
	if _, err := c.Retrieve(make(mkhash.PartialMatch, 1)); err == nil {
		t.Error("wrong-arity query accepted")
	}
}

// Durable retrieval under load: many inserts across syncs, queried back.
func TestDurableBulkConsistency(t *testing.T) {
	file, fx := durableFixture(t, 0, 4)
	dir := t.TempDir()
	c, err := CreateDurable(dir, file, fx, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := c.Insert(mkhash.Record{
			fmt.Sprintf("make%d", i%7),
			fmt.Sprintf("model%d", i),
			fmt.Sprintf("%d", 1980+i%10),
		}); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			if err := c.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	pm, _ := file.Spec(map[string]string{"make": "make3"})
	got, err := c.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 500; i++ {
		if i%7 == 3 {
			want++
		}
	}
	if len(got.Records) != want {
		t.Errorf("bulk retrieve %d records, want %d", len(got.Records), want)
	}
	c.Close()
}

func TestDurableBulkInsert(t *testing.T) {
	file, fx := durableFixture(t, 0, 8)
	c, err := CreateDurable(t.TempDir(), file, fx, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var batch []mkhash.Record
	for i := 0; i < 1000; i++ {
		batch = append(batch, mkhash.Record{
			fmt.Sprintf("make%d", i%9),
			fmt.Sprintf("model%d", i),
			fmt.Sprintf("%d", 1980+i%6),
		})
	}
	if err := c.BulkInsert(batch); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d", c.Len())
	}
	pm, _ := file.Spec(map[string]string{"make": "make4"})
	res, err := c.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 1000; i++ {
		if i%9 == 4 {
			want++
		}
	}
	if len(res.Records) != want {
		t.Errorf("retrieved %d, want %d", len(res.Records), want)
	}
	// Bad record arity fails before any routing.
	if err := c.BulkInsert([]mkhash.Record{{"short"}}); err == nil {
		t.Error("wrong-arity batch accepted")
	}
}

func TestDurableDeleteAndCompact(t *testing.T) {
	file, fx := durableFixture(t, 0, 4)
	dir := t.TempDir()
	c, err := CreateDurable(dir, file, fx, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	target := mkhash.Record{"makeX", "modelX", "1999"}
	if err := c.Insert(target); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(target); err != nil { // duplicate
		t.Fatal(err)
	}
	if err := c.Insert(mkhash.Record{"makeY", "modelY", "1998"}); err != nil {
		t.Fatal(err)
	}
	n, err := c.Delete(target)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || c.Len() != 1 {
		t.Errorf("deleted %d, Len %d; want 2, 1", n, c.Len())
	}
	if _, err := c.Delete(mkhash.Record{"bad"}); err == nil {
		t.Error("wrong-arity delete accepted")
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Deletion and compaction survive reopen.
	re, err := OpenDurable(dir, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Errorf("Len after reopen = %d, want 1", re.Len())
	}
	pm, _ := file.Spec(map[string]string{"make": "makeY"})
	res, err := re.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Errorf("surviving record not found: %v", res.Records)
	}
}

// persistSaveNoAlloc writes cluster metadata without an allocator.
func persistSaveNoAlloc(dir string, schemaOnly *mkhash.File) error {
	return persistSaveFile(filepath.Join(dir, metaName), schemaOnly)
}

// TestDurableInsertRacesRetrieve hammers one durable cluster with
// concurrent Insert and RetrieveContext (plus the occasional Sync): the
// per-device lock makes that safe, which -race checks, and every answer
// must hold at least the records present before the hammering began and
// nothing that was never inserted.
func TestDurableInsertRacesRetrieve(t *testing.T) {
	file, fx := durableFixture(t, 200, 4)
	c, err := CreateDurable(t.TempDir(), file, fx, ParallelDisk)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pm, err := c.Spec(map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter, readers = 2, 150, 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := c.RetrieveContext(context.Background(), pm)
				if err != nil {
					t.Errorf("retrieve beside inserts: %v", err)
					return
				}
				if n := len(res.Records); n < 200 || n > 200+writers*perWriter {
					t.Errorf("retrieve saw %d records, want between 200 and %d", n, 200+writers*perWriter)
					return
				}
			}
		}()
	}
	var inserts sync.WaitGroup
	for w := 0; w < writers; w++ {
		inserts.Add(1)
		go func(w int) {
			defer inserts.Done()
			for i := 0; i < perWriter; i++ {
				rec := mkhash.Record{fmt.Sprintf("race-%d-%d", w, i), "racer", fmt.Sprintf("%d", 2000+i)}
				if err := c.Insert(rec); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if i%50 == 0 {
					if err := c.Sync(); err != nil {
						t.Errorf("sync: %v", err)
						return
					}
				}
			}
		}(w)
	}
	inserts.Wait()
	close(stop)
	wg.Wait()
	res, err := c.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if want := 200 + writers*perWriter; len(res.Records) != want {
		t.Fatalf("after the hammer: %d records, want %d", len(res.Records), want)
	}
}

// The durable scan's reason to exist: allocations follow the hits, not
// the records scanned. Two clusters answer the same query with the same
// five hits; the qualified buckets of the second hold ten times the
// non-matching records of the first.
func TestDurableScanAllocsDoNotGrowWithScanned(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts under -race, so allocation counts are not exact")
	}
	const m, hits = 4, 5
	retrieveAllocs := func(fillers int) (allocs float64, scanned int) {
		file := mkhash.MustNew(mkhash.Schema{Fields: []string{"make", "model", "year"}, Depths: []int{2, 3, 1}})
		for i := 0; i < hits+fillers; i++ {
			make := "target"
			if i >= hits {
				make = fmt.Sprintf("make%d", i%97)
			}
			if err := file.Insert(mkhash.Record{make, fmt.Sprintf("model%d", i%23), fmt.Sprintf("%d", 1980+i%10)}); err != nil {
				t.Fatal(err)
			}
		}
		fs, err := file.FileSystem(m)
		if err != nil {
			t.Fatal(err)
		}
		c, err := CreateDurable(t.TempDir(), file, decluster.MustFX(fs), MainMemory)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		pm, err := c.Spec(map[string]string{"make": "target"})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := c.Retrieve(pm)
			if err != nil || len(res.Records) != hits {
				t.Fatalf("%d records, %v", len(res.Records), err)
			}
			scanned = 0
			for _, n := range res.DeviceRecords {
				scanned += n
			}
		}
		warmPastKept(c, run)
		return testing.AllocsPerRun(100, run), scanned
	}
	few, fewScanned := retrieveAllocs(2000)
	many, manyScanned := retrieveAllocs(20000)
	t.Logf("%d scanned: %.0f allocs; %d scanned: %.0f allocs", fewScanned, few, manyScanned, many)
	if manyScanned < 9*fewScanned || fewScanned < 100 {
		t.Fatalf("fixture: scanned %d and %d records, want about 10x apart", fewScanned, manyScanned)
	}
	if many > few+3 {
		t.Errorf("allocations grew with the records scanned: %.0f for %d, %.0f for %d", few, fewScanned, many, manyScanned)
	}
	// The executor's own 4 (TestScanStateStaysOnStack) and the merge's
	// two exactly-sized chunks of the whole answer, however many hits and
	// whatever M.
	if bound := float64(4 + 2); many > bound {
		t.Errorf("%.0f allocations per retrieval, bound for %d devices and %d hits is %.0f", many, m, hits, bound)
	}
}

// warmPastKept runs a retrieval's shape past what the query log keeps
// besides its 1-in-16 sample. A kept run copies its record and its
// per-device detail, which an allocation count must not read as the
// retrieval's. The shape's first 8 runs are kept as its head; they run
// with every device locked for 20 ms, so they are also its 8 slowest and
// fill its flight slots (obs.FlightSlots): a later run is a flight only if
// it is slower than that, which a scan of these fixtures never is.
func warmPastKept(c *DurableCluster, run func()) {
	for i := 0; i < obs.FlightSlots; i++ {
		for dev := range c.locks {
			c.locks[dev].Lock()
		}
		time.AfterFunc(20*time.Millisecond, func() {
			for dev := range c.locks {
				c.locks[dev].Unlock()
			}
		})
		run()
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes
// one run of f, a retrieval from c, allocates after a warm-up run —
// averaged over the runs c's query log did not keep. A kept run (1 in 16
// once warmPastKept has run) also copies its record and per-device
// detail, and the process's trace retention may grow to hold its tree:
// the log's cost, not the answer's.
func bytesPerRun(c *DurableCluster, runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	var bytes, counted uint64
	for i := 0; i < runs; i++ {
		kept := c.eng.Instruments().LogStats().Kept
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if c.eng.Instruments().LogStats().Kept == kept {
			bytes, counted = bytes+after.TotalAlloc-before.TotalAlloc, counted+1
		}
	}
	return float64(bytes) / float64(counted)
}

// A durable answer is sized before it is built, once per query: a
// DurableCluster.Retrieve allocates what its Result holds — records,
// per-device counts and times, stages — and its hits' field headers (16
// bytes a field) and value bytes, each rounded once to a Go size class
// (at most a quarter, and a page past 32 KiB), however many devices the
// hits are spread over: not a pair of chunks per device, nor a guessed
// first chunk of 1 KiB and 128 fields, nor a doubling ladder past it.
func TestDurableAnswerIsExactlySized(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts under -race, so allocation counts are not exact")
	}
	const m = 4
	class := func(n int) int { return n + min(n/4+16, 8<<10) }
	for _, n := range []int{1, 6, 600} {
		file := mkhash.MustNew(mkhash.Schema{Fields: []string{"make", "model", "year"}, Depths: []int{2, 3, 1}})
		fs, err := file.FileSystem(m)
		if err != nil {
			t.Fatal(err)
		}
		fx := decluster.MustFX(fs)
		// The i-th target lands on device i mod M: hits on every device
		// once there are M of them.
		for i, j := 0, 0; i < n; j++ {
			target := mkhash.Record{"target", fmt.Sprintf("model-%010d", j), "19990101"}
			if coords, err := file.BucketOf(target); err != nil || fx.Device(coords) != i%m {
				continue
			}
			if err := file.Insert(target); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for i := 0; i < 400; i++ {
			if err := file.Insert(mkhash.Record{fmt.Sprintf("make%d", i%7), fmt.Sprintf("model%d", i%23), fmt.Sprintf("%d", 1980+i%10)}); err != nil {
				t.Fatal(err)
			}
		}
		c, err := CreateDurable(t.TempDir(), file, fx, MainMemory)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		pm, err := c.Spec(map[string]string{"make": "target"})
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		run := func() {
			if res, err = c.Retrieve(pm); err != nil || len(res.Records) != n {
				t.Fatalf("%d records, %v", len(res.Records), err)
			}
		}
		warmPastKept(c, run)
		got := bytesPerRun(c, 50, run)
		const valueBytes = len("target") + len("model-0123456789") + len("19990101")
		fields, values := 16*3*n, valueBytes*n
		stages := len(res.Stages) * int(unsafe.Sizeof(res.Stages[0]))
		held := class(24*n) + class(16*m) + class(8*m) + class(stages)
		if bound := held + class(fields) + class(values); got > float64(bound) {
			t.Errorf("%d hits: a retrieval allocates %.0f bytes; its result holds %d beside %d header and %d value bytes, bound %d", n, got, held, fields, values, bound)
		}
	}
}

// shortRecordCluster is a durable cluster over 400 cars where the device
// of make3's first hit holds, after the hits of that bucket, a record too
// short for a make query: its scan collects hits, then fails. It returns
// the cluster, the query, its bucket query and the failing device.
func shortRecordCluster(t *testing.T, opts ...Option) (*DurableCluster, mkhash.PartialMatch, query.Query, int) {
	t.Helper()
	file, fx := durableFixture(t, 400, 4)
	c, err := CreateDurable(t.TempDir(), file, fx, MainMemory, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	pm, err := c.Spec(map[string]string{"make": "make3"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := file.BucketQuery(pm)
	if err != nil {
		t.Fatal(err)
	}
	hit := mkhash.Record{"make3", "model3", "1983"} // carFile's record 3
	coords, err := file.BucketOf(hit)
	if err != nil {
		t.Fatal(err)
	}
	dev := fx.Device(coords)
	if err := c.stores[dev].Append(uint32(c.fs.Linear(coords)), hit[:2]); err != nil {
		t.Fatal(err)
	}
	return c, pm, q, dev
}

// framesTaken counts the Frames slabs handed out and given back since
// before.
func framesTaken(before mempool.Stats) (gets, puts uint64) {
	after := mempool.Frames.Stats()
	return after.Gets + after.Misses + after.Oversize - before.Gets - before.Misses - before.Oversize,
		after.Puts + after.Drops - before.Puts - before.Drops
}

// A durable scan that fails — on a stored record shorter than the query,
// after it has collected hits of the same bucket — answers nothing and
// gives back every Frames slab it took.
func TestDurableScanErrorGivesTheSlabBack(t *testing.T) {
	c, pm, q, dev := shortRecordCluster(t)
	before := mempool.Frames.Stats()
	ans, err := durDevice{c: c, dev: dev}.Scan(context.Background(), q, pm)
	gets, puts := framesTaken(before)
	if found, _, _ := ans.Found.Size(); err == nil || found != 0 || ans.Buckets != 0 {
		t.Errorf("scan over a short record: %d hits, %d buckets, %v; want an error and nothing else", found, ans.Buckets, err)
	}
	// At least the bucket's run and the slab its hit was collected into.
	if gets < 2 || puts != gets {
		t.Errorf("the failed scan took %d Frames slabs and gave %d back", gets, puts)
	}
}

// A retrieval one device of which fails gives back every Frames slab the
// other devices collected their hits into: failing outright, the executor
// discards their answers; degraded (retry.Config.Partial, what the root's
// WithPartialResults sets), it merges them without the failed device's.
func TestFailedRetrievalGivesEverySlabBack(t *testing.T) {
	for _, partial := range []bool{false, true} {
		var opts []Option
		if partial {
			opts = append(opts, WithRetry(retry.Config{MaxAttempts: 1, Partial: true}))
		}
		c, pm, _, dev := shortRecordCluster(t, opts...)
		before := mempool.Frames.Stats()
		res, err := c.Retrieve(pm)
		gets, puts := framesTaken(before)
		var pe *engine.PartialError
		if degraded := errors.As(err, &pe); err == nil || degraded != partial {
			t.Fatalf("partial=%t: %v, want a failure that degrades only under Partial", partial, err)
		}
		if partial && (len(res.Records) == 0 || pe.Failed[dev] == nil) {
			t.Fatalf("degraded result: %d records, failed %v; want the others' hits without device %d", len(res.Records), pe.Failed, dev)
		}
		// Every device's run reads, and the slabs the others collected into.
		if gets < 4 || puts != gets {
			t.Errorf("partial=%t: the failed retrieval took %d Frames slabs and gave %d back", partial, gets, puts)
		}
	}
}

// BenchmarkDurableWideRetrieve times one durable query whose hits are
// spread over all 8 devices, beside 4 000 non-matching records, and
// reports its stages per query: fanout (the wait for the slowest device),
// device.scan (the devices' scan times summed) and merge, where every
// device's encoded hits are materialised, one after another.
func BenchmarkDurableWideRetrieve(b *testing.B) {
	for _, hits := range []int{60, 600} {
		b.Run(fmt.Sprintf("hits=%d", hits), func(b *testing.B) {
			file := mkhash.MustNew(mkhash.Schema{Fields: []string{"make", "model", "year"}, Depths: []int{2, 3, 1}})
			for i := 0; i < hits+4000; i++ {
				r := mkhash.Record{"target", fmt.Sprintf("model-%06d", i), fmt.Sprintf("%d", 1980+i%10)}
				if i >= hits {
					r = mkhash.Record{fmt.Sprintf("make%d", i%7), fmt.Sprintf("model%d", i%23), r[2]}
				}
				if err := file.Insert(r); err != nil {
					b.Fatal(err)
				}
			}
			fs, err := file.FileSystem(8)
			if err != nil {
				b.Fatal(err)
			}
			c, err := CreateDurable(b.TempDir(), file, decluster.MustFX(fs), MainMemory)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			pm, err := c.Spec(map[string]string{"make": "target"})
			if err != nil {
				b.Fatal(err)
			}
			stages := map[string]time.Duration{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Retrieve(pm)
				if err != nil || len(res.Records) != hits {
					b.Fatalf("%d records, %v", len(res.Records), err)
				}
				for _, s := range res.Stages {
					stages[s.Stage] += s.Wall
				}
			}
			for _, stage := range []string{obs.StageFanout, obs.StageDeviceScan, obs.StageMerge} {
				b.ReportMetric(float64(stages[stage].Microseconds())/float64(b.N), stage+"_us/op")
			}
		})
	}
}
