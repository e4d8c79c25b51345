package fxdist_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"fxdist"
)

// planCacheFile builds a loaded file with an FX allocator for the
// plan-cache tests.
func planCacheFile(t *testing.T, m int) (*fxdist.File, fxdist.GroupAllocator, fxdist.RecordSpec) {
	t.Helper()
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "part", Cardinality: 300},
		{Name: "supplier", Cardinality: 50},
		{Name: "warehouse", Cardinality: 10},
	}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{4, 3, 2}))
	if err != nil {
		t.Fatal(err)
	}
	records, err := fxdist.GenerateRecords(spec, 1500, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := file.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := file.FileSystem(m)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	return file, fx, spec
}

// TestPrunedFanOutMatchesBroadcastAcrossBackends is the pruning property
// at the facade: over every shape of the differential fixture and 26
// value bindings of each (208 queries, some naming values no record has),
// each backend kind answers byte for byte what its twin with the plan
// cache disabled answers — the twin's plans carry no counts, so it asks
// every device, the old broadcast — down to the per-device buckets,
// scanned records and simulated times, which also sum to |R(q)|. On the
// backends whose devices declare their owner, that is the answer of fewer
// requests; the replicated one asks everyone either way.
func TestPrunedFanOutMatchesBroadcastAcrossBackends(t *testing.T) {
	file, fx, spec := planCacheFile(t, 8)
	records, err := fxdist.GenerateRecords(spec, 64, 77)
	if err != nil {
		t.Fatal(err)
	}
	addrs, stop, err := fxdist.DeployLocal(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	sizes := fx.FileSystem().Sizes

	for _, k := range []struct {
		name string
		cfg  func() fxdist.Config
		opts []fxdist.Option
	}{
		{"memory", func() fxdist.Config { return fxdist.Config{File: file, Allocator: fx} }, nil},
		{"durable", func() fxdist.Config { return fxdist.Config{Dir: t.TempDir(), File: file, Allocator: fx} }, nil},
		{"replicated", func() fxdist.Config { return fxdist.Config{File: file, Allocator: fx} },
			[]fxdist.Option{fxdist.WithReplication(fxdist.ChainedFailover)}},
		{"netdist", func() fxdist.Config { return fxdist.Config{File: file, Addrs: addrs} }, nil},
	} {
		pruned, err := fxdist.Open(k.cfg(), k.opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer pruned.Close()
		broadcast, err := fxdist.Open(k.cfg(), append(k.opts, fxdist.WithPlanCacheSize(-1))...)
		if err != nil {
			t.Fatal(err)
		}
		defer broadcast.Close()
		if broadcast.PlanCache().Enabled {
			t.Fatalf("%s: WithPlanCacheSize(-1) left the cache enabled: the twin is no oracle", k.name)
		}
		for mask := 0; mask < 1<<len(sizes); mask++ {
			rq := 1
			for i, f := range sizes {
				if mask&(1<<i) != 0 {
					rq *= f
				}
			}
			for trial := 0; trial < 26; trial++ {
				pm := make(fxdist.PartialMatch, len(sizes))
				for i := range pm {
					if mask&(1<<i) == 0 {
						v := records[(trial*7+i)%len(records)][i]
						if trial%13 == 12 {
							v = "no-such-value"
						}
						pm[i] = &v
					}
				}
				a, err := pruned.Retrieve(pm)
				if err != nil {
					t.Fatalf("%s shape %03b trial %d: %v", k.name, mask, trial, err)
				}
				b, err := broadcast.Retrieve(pm)
				if err != nil {
					t.Fatalf("%s shape %03b trial %d, all devices: %v", k.name, mask, trial, err)
				}
				a.TraceID, b.TraceID, a.Stages, b.Stages = 0, 0, nil, nil
				if !reflect.DeepEqual(a.Records, b.Records) || !reflect.DeepEqual(a.DeviceBuckets, b.DeviceBuckets) ||
					!reflect.DeepEqual(a.DeviceRecords, b.DeviceRecords) || !reflect.DeepEqual(a.DeviceTime, b.DeviceTime) ||
					a.Response != b.Response || a.TotalWork != b.TotalWork || a.LargestResponseSize != b.LargestResponseSize {
					t.Fatalf("%s shape %03b trial %d: pruned answer differs from the all-devices one:\n%+v\n%+v", k.name, mask, trial, a, b)
				}
				total := 0
				for _, n := range a.DeviceBuckets {
					total += n
				}
				if total != rq {
					t.Fatalf("%s shape %03b trial %d: device buckets sum to %d, |R(q)| = %d", k.name, mask, trial, total, rq)
				}
			}
		}
	}
}

// TestPlanCacheInvalidationOnAllocatorRebuild proves a rebuilt allocator
// never reuses stale plans: after a snapshot round trip the restored
// allocator has a new cache identity, so the same shape compiles fresh
// and still answers correctly.
func TestPlanCacheInvalidationOnAllocatorRebuild(t *testing.T) {
	file, fx, _ := planCacheFile(t, 4)
	pm, err := file.Spec(map[string]string{"supplier": "supplier-3"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := file.Search(pm)
	if err != nil {
		t.Fatal(err)
	}

	c1, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c1.Retrieve(pm); err != nil {
			t.Fatal(err)
		}
	}
	s1 := c1.PlanCache()
	if s1.Misses != 1 || s1.Hits != 2 || len(s1.Plans) != 1 {
		t.Fatalf("first cluster cache: %+v, want 1 miss / 2 hits / 1 plan", s1)
	}

	path := t.TempDir() + "/file.snap"
	if err := fxdist.SaveSnapshotFile(path, file, fx); err != nil {
		t.Fatal(err)
	}
	restored, alloc2, err := fxdist.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := fxdist.Open(fxdist.Config{File: restored, Allocator: alloc2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want) {
		t.Fatalf("rebuilt allocator returned %d records, want %d", len(got.Records), len(want))
	}
	s2 := c2.PlanCache()
	if s2.Misses != 1 || s2.Hits != 0 || len(s2.Plans) != 1 {
		t.Fatalf("rebuilt cluster cache: %+v, want a fresh compile (1 miss / 0 hits)", s2)
	}
	if s1.Plans[0].Owner == s2.Plans[0].Owner {
		t.Errorf("rebuilt allocator kept cache identity %d; plans could alias across rebuilds",
			s2.Plans[0].Owner)
	}
}

// TestPlanCacheHitRateIntegration drives a repeated-shape workload and
// asserts the cache absorbs it: >90%% hit rate on the cluster's own
// snapshot, matching counters on the /metrics scrape, and a well-formed
// /debug/plancache report. CI uploads that JSON as a build artifact when
// PLANCACHE_JSON names a destination.
func TestPlanCacheHitRateIntegration(t *testing.T) {
	srv := httptest.NewServer(fxdist.MetricsHandler())
	defer srv.Close()

	file, fx, spec := planCacheFile(t, 8)
	c, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	before := scrapeMetrics(t, srv.URL+"/metrics")

	// 8 distinct queries cycled 25 rounds: every shape compiles once and
	// hits thereafter.
	pms, err := fxdist.GeneratePartialMatches(spec, 8, 0.5, 33)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 25
	for i := 0; i < rounds; i++ {
		for _, pm := range pms {
			if _, err := c.Retrieve(pm); err != nil {
				t.Fatal(err)
			}
		}
	}

	stats := c.PlanCache()
	if total := stats.Hits + stats.Misses; total != rounds*uint64(len(pms)) {
		t.Fatalf("cache saw %d lookups, want %d", total, rounds*len(pms))
	}
	if stats.HitRate <= 0.9 {
		t.Fatalf("hit rate %.3f (hits=%d misses=%d), want > 0.9",
			stats.HitRate, stats.Hits, stats.Misses)
	}

	after := scrapeMetrics(t, srv.URL+"/metrics")
	hitKey := `fxdist_plancache_hit_total{cache="memory"}`
	missKey := `fxdist_plancache_miss_total{cache="memory"}`
	if d := after[hitKey] - before[hitKey]; d != float64(stats.Hits) {
		t.Errorf("%s advanced by %g, cluster counted %d hits", hitKey, d, stats.Hits)
	}
	if d := after[missKey] - before[missKey]; d != float64(stats.Misses) {
		t.Errorf("%s advanced by %g, cluster counted %d misses", missKey, d, stats.Misses)
	}

	resp, err := http.Get(srv.URL + "/debug/plancache")
	if err != nil {
		t.Fatalf("GET /debug/plancache: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("read /debug/plancache: status %d, %v", resp.StatusCode, err)
	}
	var report []fxdist.PlanCacheStats
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("/debug/plancache is not plan-cache JSON: %v\n%s", err, raw)
	}
	var found bool
	for _, snap := range report {
		if snap.Backend == "memory" && snap.Hits == stats.Hits && snap.Misses == stats.Misses {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("/debug/plancache lists no memory cache matching hits=%d misses=%d:\n%s",
			stats.Hits, stats.Misses, raw)
	}
	if path := os.Getenv("PLANCACHE_JSON"); path != "" {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatalf("write PLANCACHE_JSON: %v", err)
		}
		t.Logf("plan cache report written to %s", path)
	}
}
