package storage

import (
	"slices"
	"sort"
	"testing"

	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
)

func newReplicated(t *testing.T, n, m int, mode ReplicaMode) (*mkhash.File, *ReplicatedCluster) {
	t.Helper()
	file := carFile(t, n)
	fs, err := file.FileSystem(m)
	if err != nil {
		t.Fatal(err)
	}
	fx := decluster.MustFX(fs)
	c, err := NewReplicated(file, fx, mode)
	if err != nil {
		t.Fatal(err)
	}
	return file, c
}

func keysOf(recs []mkhash.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r[0] + "|" + r[1] + "|" + r[2]
	}
	sort.Strings(out)
	return out
}

func TestReplicatedValidation(t *testing.T) {
	file := carFile(t, 10)
	wrong := decluster.MustFX(decluster.MustFileSystem([]int{4, 8}, 4))
	if _, err := NewReplicated(file, wrong, Chained); err == nil {
		t.Error("arity mismatch accepted")
	}
	wrongSize := decluster.MustFX(decluster.MustFileSystem([]int{4, 4, 2}, 4))
	if _, err := NewReplicated(file, wrongSize, Chained); err == nil {
		t.Error("size mismatch accepted")
	}
}

// Retrieval must match the reference search when healthy and under every
// single-device failure, for both failover modes.
func TestReplicatedRetrieveUnderFailures(t *testing.T) {
	for _, mode := range []ReplicaMode{Chained, Naive} {
		file, c := newReplicated(t, 400, 8, mode)
		specs := []map[string]string{
			{"make": "make2"},
			{"year": "1983"},
			{},
		}
		check := func(label string) {
			t.Helper()
			for _, s := range specs {
				pm, err := file.Spec(s)
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
				g, w := keysOf(got.Records), keysOf(want)
				if len(g) != len(w) {
					t.Fatalf("%s mode %v spec %v: %d records, want %d", label, mode, s, len(g), len(w))
				}
				for i := range g {
					if g[i] != w[i] {
						t.Fatalf("%s mode %v spec %v: record sets differ", label, mode, s)
					}
				}
			}
		}
		check("healthy")
		for dev := 0; dev < c.M(); dev++ {
			if err := c.Fail(dev); err != nil {
				t.Fatal(err)
			}
			if !c.Failed(dev) {
				t.Fatal("Failed() wrong")
			}
			check("failed")
			if err := c.Restore(dev); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A failed device must never appear in the per-device counts.
func TestReplicatedFailedDeviceIdle(t *testing.T) {
	file, c := newReplicated(t, 300, 8, Chained)
	pm, _ := file.Spec(map[string]string{})
	healthy, err := c.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(4); err != nil {
		t.Fatal(err)
	}
	res, err := c.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceBuckets[4] != 0 || res.DeviceRecords[4] != 0 {
		t.Errorf("failed device did work: buckets=%d records=%d",
			res.DeviceBuckets[4], res.DeviceRecords[4])
	}
	// Its share is served by the devices downstream of it on the ring
	// (chained declustering spreads it): every bucket is still accessed
	// once and every record comes back.
	got, want := 0, 0
	for dev := range res.DeviceBuckets {
		got, want = got+res.DeviceBuckets[dev], want+healthy.DeviceBuckets[dev]
	}
	if got != want {
		t.Errorf("%d buckets accessed, want %d as with no failure", got, want)
	}
	if len(res.Records) != file.Len() {
		t.Errorf("%d records, want %d", len(res.Records), file.Len())
	}
}

// A replicated device answers for two owners and answers zero when failed,
// so it does not declare one (engine.Owner) and the executor asks all of
// them: a fully specified query whose bucket the failed device owns is
// counted on that device alone by the plan, and is answered by its ring
// successor. Were replDevice pruned like the single-owner devices, the
// successor would not be asked and the record would be lost.
func TestReplicatedExactQueryOnFailedDevice(t *testing.T) {
	file, c := newReplicated(t, 300, 8, Chained)
	if _, declares := engine.Device(replDevice{c: c}).(engine.Owner); declares {
		t.Fatal("replDevice declares a single owner")
	}
	const failed = 4
	var pm mkhash.PartialMatch
	file.EachBucket(func(coords []int, records []mkhash.Record) {
		if pm == nil && c.Allocator().Device(coords) == failed {
			r := slices.Clone(records[0])
			pm = mkhash.PartialMatch{&r[0], &r[1], &r[2]}
		}
	})
	if pm == nil {
		t.Fatalf("no record on device %d", failed)
	}
	want, err := file.Search(pm)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(failed); err != nil {
		t.Fatal(err)
	}
	res, err := c.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(res.Records); len(got) == 0 || len(got) != len(want) {
		t.Fatalf("exact query on the failed device: %d records, search %d", len(got), len(want))
	}
	if res.DeviceBuckets[failed] != 0 || res.DeviceBuckets[(failed+1)%8] != 1 {
		t.Errorf("device buckets %v, want the bucket served by device %d", res.DeviceBuckets, (failed+1)%8)
	}
}

// Chained failover spreads the orphaned work better than naive: its
// post-failure largest response size on the whole-file query must be
// strictly smaller.
func TestReplicatedChainedSpreadsLoad(t *testing.T) {
	file, chained := newReplicated(t, 2000, 8, Chained)
	_, naive := newReplicated(t, 2000, 8, Naive)
	if err := chained.Fail(3); err != nil {
		t.Fatal(err)
	}
	if err := naive.Fail(3); err != nil {
		t.Fatal(err)
	}
	pm, _ := file.Spec(map[string]string{})
	cRes, err := chained.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	nRes, err := naive.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if cRes.LargestResponseSize >= nRes.LargestResponseSize {
		t.Errorf("chained largest %d not below naive %d",
			cRes.LargestResponseSize, nRes.LargestResponseSize)
	}
	if len(cRes.Records) != len(nRes.Records) {
		t.Errorf("record counts differ: %d vs %d", len(cRes.Records), len(nRes.Records))
	}
}
