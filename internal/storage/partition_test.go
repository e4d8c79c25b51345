package storage

import (
	"context"
	"fmt"
	"slices"
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
		if err := Admit(part, fx, dev); err != nil {
			t.Errorf("device %d's own partition refused: %v", dev, err)
		}
		held += part.Buckets()
	}
	nonEmpty := 0
	file.EachBucket(func(coords []int, records []mkhash.Record) {
		nonEmpty++
		want := mkhash.DigestOf(records)
		if got := parts[fx.Device(coords)].Digest(uint32(fs.Linear(coords))); got != want {
			t.Errorf("bucket %v: owner holds %+v, file %+v", coords, got, want)
		}
	})
	if held != nonEmpty {
		t.Errorf("partitions hold %d buckets, file has %d non-empty", held, nonEmpty)
	}
}

// AdmitBucket is the one check on a bucket arriving from outside: in
// grid and below 2^32, owned by the device; Admit applies it to every
// bucket of a partition of the file's arity.
func TestPartitionAdmit(t *testing.T) {
	fs := decluster.MustFileSystem([]int{4, 8, 2}, 4)
	fx := decluster.MustFX(fs)
	own := -1
	fs.EachBucket(func(b []int) {
		if own < 0 && fx.Device(b) == 1 {
			own = fs.Linear(b)
		}
	})
	// A grid past 2^32 buckets (mkhash.MaxGridBits) addresses none of its
	// buckets from 2^32 on, even ones its allocator gives the device.
	wideFS := decluster.MustFileSystem([]int{1 << 20, 1 << 20}, 4)
	wide := decluster.NewModulo(wideFS)
	wideOwner := func(idx int) int { return wide.Device(wideFS.Coords(idx, nil)) }
	for _, tc := range []struct {
		name  string
		alloc decluster.GroupAllocator
		idx   int
		dev   int
		want  string // substring of the error; "" admits
	}{
		{"owned", fx, own, 1, ""},
		{"negative index", fx, -1, 1, "outside grid"},
		{"past the grid", fx, fs.NumBuckets(), 1, "outside grid"},
		{"foreign", fx, own, 2, "belongs to device 1, not 2"},
		{"below 2^32", wide, 1<<32 - 1, wideOwner(1<<32 - 1), ""},
		{"2^32", wide, 1 << 32, wideOwner(1 << 32), "outside grid"},
	} {
		err := AdmitBucket(tc.alloc, tc.dev, tc.idx)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	part := mkhash.NewTable(3)
	if err := Admit(part, fx, 1); err != nil {
		t.Errorf("empty partition refused: %v", err)
	}
	if err := part.Put(uint32(own), []mkhash.Record{{"a", "b", "c"}, {"d", "e", "f"}}); err != nil {
		t.Fatal(err)
	}
	if err := Admit(part, fx, 1); err != nil {
		t.Errorf("owned bucket refused: %v", err)
	}
	if err := Admit(part, fx, 2); err == nil || !strings.Contains(err.Error(), "belongs to device 1, not 2") {
		t.Errorf("foreign partition: err = %v", err)
	}
	for _, r := range []mkhash.Record{{"a", "b", "c", "only-one-field"}, {"a", "b"}} {
		if err := part.Put(uint32(own), []mkhash.Record{r}); err == nil || !strings.Contains(err.Error(), "table has 3") {
			t.Errorf("record of %d fields: err = %v", len(r), err)
		}
	}
	if err := Admit(mkhash.NewTable(2), fx, 1); err == nil || !strings.Contains(err.Error(), "not the file's 3") {
		t.Errorf("partition of 2 fields for a file of 3: err = %v", err)
	}
}

// The shape of the shared device-local code was decided by allocation:
// held.scan takes the answer by pointer, the query's ids resolve into
// stack scratch, the adapters pull their
// buckets from the inverse-mapper walk, and the walk, its scratch array
// and the answer all stay on the scan's stack — bare or inside a
// retrieval, a memDevice scan allocates nothing, and nor does a durDevice
// scan, which only collects its hits still encoded (2 before the merge
// built them). What is left on replDevice is not the walk: its bucket
// scratch escapes through the placement's allocator interface (1).
// Cluster.Retrieve is the executor's own 4 whatever M is — the result's
// records, counts, device times and stages — since the call, its done
// token and its spec are pooled (6 before; 11 before the call carried its
// span, record, stages and context). DurableCluster.Retrieve adds the
// one exactly-sized header chunk and one byte chunk the merge builds
// every device's hits into (4 + 2 per active device before). A
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
	dur, err := CreateDurable(t.TempDir(), durFile, durFX)
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
			found, _, _ := ans.Found.Size()
			if err != nil || ans.Buckets == 0 || len(ans.Hits)+found == 0 {
				t.Fatalf("scan: %d buckets, %d hits, %v", ans.Buckets, len(ans.Hits)+found, err)
			}
			hits.Put(ans.Hits)
			ans.Found.Release()
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
		{"durDevice.Scan", scan(durDevice{c: dur, dev: 1}), 0},
		{"Cluster.Retrieve", retrieve(mem), 4},
		{"ReplicatedCluster.Retrieve", retrieve(repl), 8},
		{"DurableCluster.Retrieve", retrieve(dur), 4 + 2},
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
// frame or collecting into a pooled slab — costs the executor nothing,
// and the merge builds every durable device's hits through one
// reservation, so a retrieval allocates the same at M = 4 and M = 8 on
// the memory and the durable backend (the query has hits on every device
// of each; a durable retrieval cost 2 more per device when each device
// built its own).
func TestRetrieveAllocsDoNotGrowWithM(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts under -race, so allocation counts are not exact")
	}
	for _, durable := range []bool{false, true} {
		var allocs [2]float64
		for i, m := range []int{4, 8} {
			file, fx := durableFixture(t, 400, m)
			pm, err := file.Spec(map[string]string{"make": "make3"})
			if err != nil {
				t.Fatal(err)
			}
			var c interface {
				Retrieve(mkhash.PartialMatch) (Result, error)
			} = newCluster(t, file, m)
			if durable {
				dur, err := CreateDurable(t.TempDir(), file, fx)
				if err != nil {
					t.Fatal(err)
				}
				defer dur.Close()
				c = dur
			}
			run := func() {
				if res, err := c.Retrieve(pm); err != nil || len(res.Records) == 0 {
					t.Fatalf("durable=%t M=%d retrieve: %d records, %v", durable, m, len(res.Records), err)
				}
			}
			res, _ := c.Retrieve(pm)
			held := make([]bool, m)
			for _, r := range res.Records {
				coords, err := file.BucketOf(r)
				if err != nil {
					t.Fatal(err)
				}
				held[fx.Device(coords)] = true
			}
			for dev, h := range held {
				if !h {
					t.Fatalf("durable=%t M=%d: device %d holds no hit of the query", durable, m, dev)
				}
			}
			allocs[i] = testing.AllocsPerRun(200, run)
		}
		if d := allocs[1] - allocs[0]; d > 1 || d < -1 {
			t.Errorf("durable=%t: retrieve allocates %.0f at M=4 and %.0f at M=8, want equal within 1", durable, allocs[0], allocs[1])
		}
	}
}

// TestClusterKeepsItsSnapshot: a memory or replicated cluster serves the
// slabs its file had when it was built. A Delete on the file, or the
// placement of an Insert, gives its bucket a new slab, so while the file
// changes under it, and after, the cluster answers with exactly the
// records it was built with.
func TestClusterKeepsItsSnapshot(t *testing.T) {
	for _, kind := range []string{"memory", "replicated"} {
		for _, mutation := range []string{"delete", "insert"} {
			t.Run(kind+"/"+mutation, func(t *testing.T) {
				file := mkhash.MustNew(mkhash.Schema{Fields: []string{"a", "b"}, Depths: []int{0, 0}})
				var want []string
				for i := range 17 {
					r := mkhash.Record{fmt.Sprint("r", i), "v"}
					want = append(want, strings.Join(r, "\x00"))
					if err := file.Insert(r); err != nil {
						t.Fatal(err)
					}
				}
				slices.Sort(want)
				fs, err := file.FileSystem(2)
				if err != nil {
					t.Fatal(err)
				}
				var c interface {
					Retrieve(mkhash.PartialMatch) (Result, error)
				}
				if kind == "memory" {
					c, err = NewCluster(file, decluster.MustFX(fs))
				} else {
					c, err = NewReplicated(file, decluster.MustFX(fs), Chained)
				}
				if err != nil {
					t.Fatal(err)
				}
				check := func() {
					res, err := c.Retrieve(make(mkhash.PartialMatch, 2))
					if err != nil {
						t.Error(err)
						return
					}
					got := make([]string, len(res.Records))
					for i, r := range res.Records {
						got[i] = strings.Join(r, "\x00")
					}
					slices.Sort(got)
					if !slices.Equal(got, want) {
						t.Errorf("cluster answers %q, built with %q", got, want)
					}
					res.Release()
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					for range 20 {
						check()
					}
				}()
				if mutation == "delete" {
					if n, err := file.Delete(mkhash.Record{"r3", "v"}); n != 1 || err != nil {
						t.Errorf("Delete = %d, %v", n, err)
					}
				} else if err := file.Insert(mkhash.Record{"r17", "v"}); err != nil {
					t.Error(err)
				}
				<-done
				check()
			})
		}
	}
}
