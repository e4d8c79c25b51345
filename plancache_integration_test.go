package fxdist_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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

// TestPrunedFanOutMatchesSearchAcrossBackends is the pruning property at
// the facade: over every shape of the fixture and 26 value bindings of
// each (208 queries, some naming values no record has), each backend
// kind answers what references computed without the engine say: the
// records of File.Search (as a multiset), the per-device buckets of the
// allocator's load vector (Loads), which sum to |R(q)|, and the largest
// of them as LargestResponseSize. On the backends whose devices declare
// their owner that is the answer of only the devices holding a
// qualified bucket; the replicated one asks everyone.
func TestPrunedFanOutMatchesSearchAcrossBackends(t *testing.T) {
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
		cfg  fxdist.Config
		opts []fxdist.Option
	}{
		{"memory", fxdist.Config{File: file, Allocator: fx}, nil},
		{"durable", fxdist.Config{Dir: t.TempDir(), File: file, Allocator: fx}, nil},
		{"replicated", fxdist.Config{File: file, Allocator: fx},
			[]fxdist.Option{fxdist.WithReplication(fxdist.ChainedFailover)}},
		{"netdist", fxdist.Config{File: file, Addrs: addrs}, nil},
	} {
		c, err := fxdist.Open(k.cfg, k.opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
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
				res, err := c.Retrieve(pm)
				if err != nil {
					t.Fatalf("%s shape %03b trial %d: %v", k.name, mask, trial, err)
				}
				want, err := file.Search(pm)
				if err != nil {
					t.Fatal(err)
				}
				q, err := file.BucketQuery(pm)
				if err != nil {
					t.Fatal(err)
				}
				loads := fxdist.Loads(fx, q)
				if got, want := sortedRecords(res.Records), sortedRecords(want); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s shape %03b trial %d: records %v, File.Search %v", k.name, mask, trial, got, want)
				}
				total, largest := 0, 0
				for _, n := range loads {
					total += n
					largest = max(largest, n)
				}
				if !reflect.DeepEqual(res.DeviceBuckets, loads) || total != rq || res.LargestResponseSize != largest {
					t.Fatalf("%s shape %03b trial %d: device buckets %v (largest %d), loads %v sum to %d, |R(q)| = %d",
						k.name, mask, trial, res.DeviceBuckets, res.LargestResponseSize, loads, total, rq)
				}
			}
		}
	}
}

// TestPlanCacheInvalidationOnAllocatorRebuild proves a rebuilt allocator
// never reuses stale plans: after a snapshot round trip the restored
// allocator comes with a new cluster and so a new cache, the same shape
// compiles fresh and still answers correctly.
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
	defer c1.Close()
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
	defer c2.Close()
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
}

// TestPlanCacheHitRateIntegration drives a repeated-shape workload and
// asserts the cache absorbs it: >90%% hit rate on the cluster's own
// snapshot, matching counters on the /metrics scrape, and a well-formed
// /debug/plancache report.
func TestPlanCacheHitRateIntegration(t *testing.T) {
	file, fx, spec := planCacheFile(t, 8)
	c, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(c.DebugHandler())
	defer srv.Close()
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
}

// TestPlanCacheEvictsAtItsCapacity drives all 512 shapes of a 9-field
// schema through one memory cluster: the cache compiles each once, holds
// its capacity of 256 and evicts the other 256, and every answer is
// File.Search's.
func TestPlanCacheEvictsAtItsCapacity(t *testing.T) {
	const n = 9
	spec := fxdist.RecordSpec{Fields: make([]fxdist.FieldSpec, n)}
	depths := make([]int, n)
	for i := range spec.Fields {
		spec.Fields[i] = fxdist.FieldSpec{Name: fmt.Sprintf("f%d", i), Cardinality: 4}
		depths[i] = 1
	}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, depths))
	if err != nil {
		t.Fatal(err)
	}
	records, err := fxdist.GenerateRecords(spec, 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := file.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// Over two devices FX is strict optimal on every shape of this grid,
	// so no query is kept for a bound violation.
	fs, err := file.FileSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for mask := 0; mask < 1<<n; mask++ {
		r := records[mask%len(records)]
		pm := make(fxdist.PartialMatch, n)
		for i := range pm {
			if mask&(1<<i) == 0 {
				v := r[i]
				pm[i] = &v
			}
		}
		res, err := c.Retrieve(pm)
		if err != nil {
			t.Fatal(err)
		}
		want, err := file.Search(pm)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sortedRecords(res.Records), sortedRecords(want); !reflect.DeepEqual(got, want) {
			t.Fatalf("shape %09b: records %v, File.Search %v", mask, got, want)
		}
	}
	s := c.PlanCache()
	if s.Capacity != 256 || s.Entries != 256 || s.Evictions != 256 || s.Misses != 512 || s.Hits != 0 {
		t.Errorf("after 512 shapes: capacity %d, entries %d, evictions %d, misses %d, hits %d; want 256, 256, 256, 512, 0",
			s.Capacity, s.Entries, s.Evictions, s.Misses, s.Hits)
	}
}

// TestCloseReleasesThePlanCache opens, queries and closes memory and
// replicated clusters over and over: afterwards the fxdist_plancache_size
// gauges read what they read before, and the closed clusters are gone
// from the process's set of open ones (their queries leave
// QueryLogStatsFor).
func TestCloseReleasesThePlanCache(t *testing.T) {
	srv := httptest.NewServer(fxdist.MetricsHandler())
	defer srv.Close()
	file, fx, _ := planCacheFile(t, 4)
	pm, err := file.Spec(map[string]string{"supplier": "supplier-3"})
	if err != nil {
		t.Fatal(err)
	}
	sizes := func() [2]float64 {
		m := scrapeMetrics(t, srv.URL+"/metrics")
		return [2]float64{m[`fxdist_plancache_size{cache="memory"}`], m[`fxdist_plancache_size{cache="replicated"}`]}
	}
	seen := func() [2]uint64 {
		return [2]uint64{fxdist.QueryLogStatsFor(fxdist.KindMemory).Seen, fxdist.QueryLogStatsFor(fxdist.KindReplicated).Seen}
	}
	seen0, sizes0 := seen(), sizes()
	for i := 0; i < 25; i++ {
		for _, opts := range [][]fxdist.Option{nil, {fxdist.WithReplication(fxdist.ChainedFailover)}} {
			c, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Retrieve(pm); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := seen(); got != seen0 {
		t.Errorf("open memory and replicated clusters saw %v queries after 50 closed ones, %v before", got, seen0)
	}
	if got := sizes(); got != sizes0 {
		t.Errorf("fxdist_plancache_size{memory, replicated} = %v after 50 closed clusters, %v before", got, sizes0)
	}
}
