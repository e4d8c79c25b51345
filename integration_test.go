package fxdist_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"fxdist"
)

// The four retrieval backends — in-memory simulated cluster, disk-backed
// durable cluster, replicated cluster (all devices healthy), and
// TCP-distributed coordinator over a replicated loopback deployment —
// must all agree with the single-device reference search on the same
// file, allocator and query mix, and must report identical per-device
// bucket counts: they all retrieve through the shared engine executor
// and derive their bucket sets from the same inverse mapping.
func TestRetrievalPathsAgree(t *testing.T) {
	// The differential sweep runs once per declustering method: the
	// backends must agree regardless of which allocator partitions the
	// file, including the latin-square DHW baseline.
	t.Run("fx", func(t *testing.T) {
		retrievalPathsAgree(t, func(fs fxdist.FileSystem) (fxdist.GroupAllocator, error) {
			return fxdist.NewFX(fs)
		})
	})
	t.Run("dhw", func(t *testing.T) {
		retrievalPathsAgree(t, func(fs fxdist.FileSystem) (fxdist.GroupAllocator, error) {
			return fxdist.NewDHW(fs), nil
		})
	})
}

func retrievalPathsAgree(t *testing.T, newAlloc func(fxdist.FileSystem) (fxdist.GroupAllocator, error)) {
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "part", Cardinality: 400},
		{Name: "supplier", Cardinality: 60},
		{Name: "warehouse", Cardinality: 12},
	}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{4, 3, 2}))
	if err != nil {
		t.Fatal(err)
	}
	records, err := fxdist.GenerateRecords(spec, 2000, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := file.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := file.FileSystem(8)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := newAlloc(fs)
	if err != nil {
		t.Fatal(err)
	}

	mem, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	dur, err := fxdist.Open(fxdist.Config{Dir: t.TempDir(), File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	repl, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx},
		fxdist.WithReplication(fxdist.ChainedFailover))
	if err != nil {
		t.Fatal(err)
	}
	addrs, stop, err := fxdist.DeployReplicatedLocal(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	net, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	pms, err := fxdist.GeneratePartialMatches(spec, 25, 0.45, 22)
	if err != nil {
		t.Fatal(err)
	}
	key := func(r fxdist.Record) string { return r[0] + "|" + r[1] + "|" + r[2] }
	keysOf := func(recs []fxdist.Record) []string {
		out := make([]string, len(recs))
		for i, r := range recs {
			out[i] = key(r)
		}
		sort.Strings(out)
		return out
	}

	for qi, pm := range pms {
		want, err := file.Search(pm)
		if err != nil {
			t.Fatal(err)
		}
		wantKeys := keysOf(want)

		memRes, err := mem.Retrieve(pm)
		if err != nil {
			t.Fatal(err)
		}
		durRes, err := dur.Retrieve(pm)
		if err != nil {
			t.Fatal(err)
		}
		replRes, err := repl.Retrieve(pm)
		if err != nil {
			t.Fatal(err)
		}
		netRes, err := net.Retrieve(pm)
		if err != nil {
			t.Fatal(err)
		}

		for name, got := range map[string][]fxdist.Record{
			"memory":      memRes.Records,
			"durable":     durRes.Records,
			"replicated":  replRes.Records,
			"distributed": netRes.Records,
		} {
			gotKeys := keysOf(got)
			if len(gotKeys) != len(wantKeys) {
				t.Fatalf("query %d via %s: %d records, want %d", qi, name, len(gotKeys), len(wantKeys))
			}
			for i := range wantKeys {
				if gotKeys[i] != wantKeys[i] {
					t.Fatalf("query %d via %s: record sets differ", qi, name)
				}
			}
		}
		for d := 0; d < 8; d++ {
			if memRes.DeviceBuckets[d] != durRes.DeviceBuckets[d] ||
				memRes.DeviceBuckets[d] != replRes.DeviceBuckets[d] ||
				memRes.DeviceBuckets[d] != netRes.DeviceBuckets[d] {
				t.Fatalf("query %d device %d: bucket counts diverge (%d/%d/%d/%d)",
					qi, d, memRes.DeviceBuckets[d], durRes.DeviceBuckets[d],
					replRes.DeviceBuckets[d], netRes.DeviceBuckets[d])
			}
		}
	}

	// The batch API must agree with one-at-a-time retrieval on every
	// backend that exposes it.
	ctx := context.Background()
	batch, err := mem.RetrieveBatch(ctx, pms)
	if err != nil {
		t.Fatal(err)
	}
	netBatch, err := net.RetrieveBatch(ctx, pms)
	if err != nil {
		t.Fatal(err)
	}
	for qi, pm := range pms {
		want, err := file.Search(pm)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[qi].Records) != len(want) || len(netBatch[qi].Records) != len(want) {
			t.Fatalf("batch query %d: %d/%d records, want %d",
				qi, len(batch[qi].Records), len(netBatch[qi].Records), len(want))
		}
	}
}

// Snapshot + durable cluster round trip: a snapshot taken from a live
// file restores into a durable cluster that answers identically.
func TestSnapshotToDurablePipeline(t *testing.T) {
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "a", Cardinality: 100},
		{Name: "b", Cardinality: 40},
	}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	records, err := fxdist.GenerateRecords(spec, 800, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := file.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	fs, _ := file.FileSystem(4)
	fx, _ := fxdist.NewFX(fs)

	path := t.TempDir() + "/file.snap"
	if err := fxdist.SaveSnapshotFile(path, file, fx); err != nil {
		t.Fatal(err)
	}
	restored, alloc, err := fxdist.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := fxdist.Open(fxdist.Config{Dir: t.TempDir(), File: restored, Allocator: alloc})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()

	pm, err := file.Spec(map[string]string{"b": "b-7"})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := file.Search(pm)
	got, err := dur.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want) {
		t.Errorf("pipeline returned %d records, want %d", len(got.Records), len(want))
	}
}

// TestAbsentValueMatchesNothing: a spec value no record holds, hashed to
// the cell of one a record does hold, matches no record on any of the
// four backends, yet qualifies the same buckets and scans the same
// records as the present value — the plan, DeviceRecords and the
// /debug/optimality row move exactly as they do for the present value.
func TestAbsentValueMatchesNothing(t *testing.T) {
	file, _ := poolDiffSetup(t)
	fs, err := file.FileSystem(8)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	all, err := file.Search(make(fxdist.PartialMatch, 3))
	if err != nil || len(all) == 0 {
		t.Fatalf("file holds %d records, %v", len(all), err)
	}
	present, err := file.Spec(map[string]string{"b": all[0][1]})
	if err != nil {
		t.Fatal(err)
	}
	pq, _ := file.BucketQuery(present)
	var absent fxdist.PartialMatch
	for i := 0; absent == nil; i++ {
		pm, _ := file.Spec(map[string]string{"b": fmt.Sprint("absent-", i)})
		if q, _ := file.BucketQuery(pm); slices.Equal(q.Spec, pq.Spec) {
			absent = pm
		}
	}
	if recs, _ := file.Search(absent); len(recs) != 0 {
		t.Fatalf("the absent value is held by %d records", len(recs))
	}
	addrs, stop, err := fxdist.DeployLocal(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var first fxdist.RetrieveResult // the first backend's answer to the absent value
	for name, cfg := range map[string]struct {
		cfg  fxdist.Config
		opts []fxdist.Option
	}{
		"memory":     {cfg: fxdist.Config{File: file, Allocator: fx}},
		"replicated": {cfg: fxdist.Config{File: file, Allocator: fx}, opts: []fxdist.Option{fxdist.WithReplication(fxdist.ChainedFailover)}},
		"durable":    {cfg: fxdist.Config{Dir: t.TempDir(), File: file, Allocator: fx}},
		"netdist":    {cfg: fxdist.Config{File: file, Addrs: addrs}},
	} {
		t.Run(name, func(t *testing.T) {
			c, err := fxdist.Open(cfg.cfg, cfg.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			row := func() fxdist.ShapeAudit {
				for _, s := range c.OptimalityReport().Shapes {
					if s.Shape == pq.Shape() {
						return s
					}
				}
				t.Fatalf("no audit row for shape %s", pq.Shape())
				return fxdist.ShapeAudit{}
			}
			want, err := c.Retrieve(present)
			if err != nil || len(want.Records) == 0 {
				t.Fatalf("present value: %d records, %v", len(want.Records), err)
			}
			before := row()
			got, err := c.Retrieve(absent)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Records) != 0 {
				t.Errorf("the absent value matches %q", got.Records)
			}
			if !slices.Equal(got.DeviceBuckets, want.DeviceBuckets) || !slices.Equal(got.DeviceRecords, want.DeviceRecords) ||
				got.LargestResponseSize != want.LargestResponseSize {
				t.Errorf("absent value: buckets %v records %v; present value: buckets %v records %v",
					got.DeviceBuckets, got.DeviceRecords, want.DeviceBuckets, want.DeviceRecords)
			}
			if first.DeviceRecords == nil {
				first = got
			} else if !slices.Equal(got.DeviceBuckets, first.DeviceBuckets) || !slices.Equal(got.DeviceRecords, first.DeviceRecords) {
				t.Errorf("absent value: buckets %v records %v, another backend %v and %v",
					got.DeviceBuckets, got.DeviceRecords, first.DeviceBuckets, first.DeviceRecords)
			}
			after := row()
			after.Queries--
			after.Good, after.Bad, after.BurnRate = before.Good, before.Bad, before.BurnRate
			if !reflect.DeepEqual(after, before) {
				t.Errorf("audit row after the absent value %+v, after the present one %+v", after, before)
			}
		})
	}
}
