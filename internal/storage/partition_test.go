package storage

import (
	"context"
	"strings"
	"testing"

	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
)

// Split is the one allocator-vs-file check and the one partition builder:
// a mismatched allocator is refused, and every non-empty bucket lands on
// the device the allocator names, exactly once.
func TestSplitValidation(t *testing.T) {
	file := carFile(t, 300)
	wrongArity := decluster.MustFileSystem([]int{4, 8}, 4)
	if _, err := Split(file, decluster.MustFX(wrongArity)); err == nil {
		t.Error("arity mismatch accepted")
	}
	wrongSize := decluster.MustFileSystem([]int{4, 4, 2}, 4)
	if _, err := Split(file, decluster.MustFX(wrongSize)); err == nil {
		t.Error("size mismatch accepted")
	}

	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx := decluster.MustFX(fs)
	parts, err := Split(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != fs.M {
		t.Fatalf("%d partitions for %d devices", len(parts), fs.M)
	}
	held := 0
	for dev, part := range parts {
		if err := part.Admit(fx, dev); err != nil {
			t.Errorf("device %d's own partition refused: %v", dev, err)
		}
		held += len(part)
	}
	nonEmpty := 0
	file.EachBucket(func(coords []int, records []mkhash.Record) {
		nonEmpty++
		if got := parts[fx.Device(coords)][fs.Linear(coords)]; len(got) != len(records) {
			t.Errorf("bucket %v: owner holds %d records, file %d", coords, len(got), len(records))
		}
	})
	if held != nonEmpty {
		t.Errorf("partitions hold %d buckets, file has %d non-empty", held, nonEmpty)
	}
}

// Admit is the one check on a bucket arriving from outside: in grid,
// owned by the device, every record of the file's arity.
func TestPartitionAdmit(t *testing.T) {
	fs := decluster.MustFileSystem([]int{4, 8, 2}, 4)
	fx := decluster.MustFX(fs)
	own := -1
	fs.EachBucket(func(b []int) {
		if own < 0 && fx.Device(b) == 1 {
			own = fs.Linear(b)
		}
	})
	for _, tc := range []struct {
		name string
		part Partition
		dev  int
		want string // substring of the error; "" admits
	}{
		{"empty", Partition{}, 1, ""},
		{"owned", Partition{own: {{"a", "b", "c"}}}, 1, ""},
		{"owned, no records", Partition{own: nil}, 1, ""},
		{"negative index", Partition{-1: nil}, 1, "outside grid"},
		{"past the grid", Partition{fs.NumBuckets(): nil}, 1, "outside grid"},
		{"foreign", Partition{own: nil}, 2, "belongs to device 1, not 2"},
		{"short record", Partition{own: {{"a", "b", "c"}, {"only-one-field"}}}, 1, "1 fields, file has 3"},
		{"long record", Partition{own: {{"a", "b", "c", "d"}}}, 1, "4 fields, file has 3"},
	} {
		err := tc.part.Admit(fx, tc.dev)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// The shape of the shared device-local code was decided by allocation:
// Partition.Scan takes the answer by pointer, the adapters pull their
// buckets from the inverse-mapper walk, and the walk, its scratch array
// and the answer all stay on the scan's stack — bare or inside a
// retrieval, a memDevice scan allocates nothing. What is left on the
// others is not the walk: replDevice's bucket scratch escapes through the
// placement's allocator interface (1), and durDevice's record builder
// makes one exactly-sized header chunk and one byte chunk for all the
// hits it materialises (2). Cluster.Retrieve is the executor's own 4
// whatever M is — the result's records, counts, device times and stages —
// since the call, its done token and its spec are pooled (6 before; 11
// before the call carried its span, record, stages and context). A
// generalisation that makes the scan state escape — a func-typed scanner,
// a store interface, a callback handed the scratch — adds objects per
// device per query and fails here first; memory_point reads it per device
// per query.
func TestScanStateStaysOnStack(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts under -race, so allocation counts are not exact")
	}
	file := carFile(t, 400)
	mem := newCluster(t, file, 4)
	_, repl := newReplicated(t, 400, 4, Chained)
	durFile, durFX := durableFixture(t, 400, 4)
	dur, err := CreateDurable(t.TempDir(), durFile, durFX, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	pm, err := file.Spec(map[string]string{"make": "make3"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := file.BucketQuery(pm)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	scan := func(d engine.Device) func() {
		return func() {
			ans, err := d.Scan(ctx, q, pm)
			if err != nil || ans.Buckets == 0 || len(ans.Hits) == 0 {
				t.Fatalf("scan: %d buckets, %d hits, %v", ans.Buckets, len(ans.Hits), err)
			}
			hits.Put(ans.Hits)
		}
	}
	retrieve := func(c interface {
		Retrieve(mkhash.PartialMatch) (Result, error)
	}) func() {
		return func() {
			if res, err := c.Retrieve(pm); err != nil || len(res.Records) == 0 {
				t.Fatalf("retrieve: %d records, %v", len(res.Records), err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		run  func()
		want float64
	}{
		{"memDevice.Scan", scan(memDevice{c: mem, dev: 1}), 0},
		{"replDevice.Scan", scan(replDevice{c: repl, dev: 1}), 1},
		{"durDevice.Scan", scan(durDevice{c: dur, dev: 1}), 2},
		{"Cluster.Retrieve", retrieve(mem), 4},
		{"ReplicatedCluster.Retrieve", retrieve(repl), 8},
	} {
		// Warm the hit pool and the plan cache, and pass the shape's 8
		// head-kept queries: each copies its record, so counting them
		// reads ≈ 7.0 where a retrieval costs 6 (1 in 16 is still kept).
		for i := 0; i < 16; i++ {
			tc.run()
		}
		if got := testing.AllocsPerRun(200, tc.run); got > tc.want {
			t.Errorf("%s: %.0f allocations per run, want at most %.0f", tc.name, got, tc.want)
		}
	}
}

// TestRetrieveAllocsDoNotGrowWithM: a device task — queued by value,
// walking the inverse mapper in stack scratch, appending to a pooled hit
// frame — costs the executor nothing, so a retrieval allocates the same
// at M = 4 and M = 8 (the query is active on every device of both).
func TestRetrieveAllocsDoNotGrowWithM(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts under -race, so allocation counts are not exact")
	}
	file := carFile(t, 400)
	pm, err := file.Spec(map[string]string{"make": "make3"})
	if err != nil {
		t.Fatal(err)
	}
	var allocs [2]float64
	for i, m := range []int{4, 8} {
		c := newCluster(t, file, m)
		run := func() {
			res, err := c.Retrieve(pm)
			if err != nil || len(res.Records) == 0 {
				t.Fatalf("M=%d retrieve: %d records, %v", m, len(res.Records), err)
			}
			for dev, b := range res.DeviceBuckets {
				if b == 0 {
					t.Fatalf("M=%d: device %d holds no bucket of the query", m, dev)
				}
			}
		}
		run()
		allocs[i] = testing.AllocsPerRun(200, run)
	}
	if d := allocs[1] - allocs[0]; d > 1 || d < -1 {
		t.Errorf("retrieve allocates %.0f at M=4 and %.0f at M=8, want equal within 1", allocs[0], allocs[1])
	}
}
