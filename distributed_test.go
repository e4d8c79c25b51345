package fxdist_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fxdist"
	"fxdist/client"
	"fxdist/internal/analysis"
	"fxdist/internal/gate"
	"fxdist/internal/rebalance"
)

func buildTestFile(t *testing.T) *fxdist.File {
	t.Helper()
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "a", Cardinality: 60},
		{Name: "b", Cardinality: 15},
	}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{3, 2}))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := fxdist.GenerateRecords(spec, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := file.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return file
}

func TestPublicDistributedRetrieval(t *testing.T) {
	file := buildTestFile(t)
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	addrs, stop, err := fxdist.DeployLocal(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	coord, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	pm, err := file.Spec(map[string]string{"b": "b-3"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := file.Search(pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want) {
		t.Errorf("distributed %d records, local %d", len(got.Records), len(want))
	}

	// The servers describe the allocator; one given to Open is checked
	// against theirs, not believed.
	same, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx, Addrs: addrs})
	if err != nil {
		t.Fatalf("open with the deployed allocator: %v", err)
	}
	same.Close()
	if c, err := fxdist.Open(fxdist.Config{File: file, Allocator: fxdist.NewModulo(fs), Addrs: addrs}); err == nil {
		c.Close()
		t.Error("open with an allocator the servers do not serve under succeeded")
	} else if !strings.Contains(err.Error(), "declusters under") {
		t.Errorf("allocator mismatch: %v", err)
	}
}

// TestPublicReplicatedFailover: a cluster opened over a replicated
// fleet fails over, decided once at Open from what the servers hold, on
// every road into the executor — single retrievals, RetrieveBatch, and
// the gate's fx.retrieve — with one of the four servers dead. A cluster
// over a plain fleet with one server dead fails on the same roads,
// naming the device.
func TestPublicReplicatedFailover(t *testing.T) {
	file := buildTestFile(t)
	fs, _ := file.FileSystem(4)
	fx, _ := fxdist.NewFX(fs)
	servers, addrs, parts, spec, stop := chaosServers(t, file, fx)
	defer stop()
	coord, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs}, fxdist.WithDialTimeout(5e9))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	plainServers := make([]*fxdist.DeviceServer, len(parts))
	plainAddrs := make([]string, len(parts))
	for dev, part := range parts {
		if plainServers[dev], err = fxdist.NewDeviceServer(dev, spec, part); err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		plainAddrs[dev] = l.Addr().String()
		go plainServers[dev].Serve(l) //nolint:errcheck // ends when Close closes l
		defer plainServers[dev].Close()
	}
	plain, err := fxdist.Open(fxdist.Config{File: file, Addrs: plainAddrs}, fxdist.WithDialTimeout(5e9))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	queries := []map[string]string{{"b": "b-5"}, {"b": "b-3"}, {"a": "a-7"}, {}}
	pms := make([]fxdist.PartialMatch, len(queries))
	wants := make([][]string, len(queries))
	for i, q := range queries {
		pms[i], _ = file.Spec(q)
		recs, _ := file.Search(pms[i])
		wants[i] = sortedRecords(recs)
	}
	check := func(stage string) {
		t.Helper()
		got, err := coord.Retrieve(pms[0])
		if err != nil {
			t.Fatalf("%s: retrieve: %v", stage, err)
		}
		if g := sortedRecords(got.Records); !equalStrings(g, wants[0]) {
			t.Errorf("%s: retrieve %d records, want %d", stage, len(g), len(wants[0]))
		}
		batch, err := coord.RetrieveBatch(context.Background(), pms)
		if err != nil {
			t.Errorf("%s: batch: %v", stage, err)
			return
		}
		for i, res := range batch {
			if g := sortedRecords(res.Records); !equalStrings(g, wants[i]) {
				t.Errorf("%s: batch query %d (%v): %d records, want %d", stage, i, queries[i], len(g), len(wants[i]))
			}
		}
	}
	check("healthy")

	// Kill device 2's server in both fleets.
	servers[2].Close()
	plainServers[2].Close()
	check("one server dead")
	if spans := coord.RecentTraces(1); len(spans) != 1 || spans[0].Name != "netdist.retrieve-failover" {
		t.Errorf("retrieval spans %+v, want one netdist.retrieve-failover", spans)
	}
	var derr *fxdist.DeviceError
	if _, err := plain.Retrieve(pms[0]); !errors.As(err, &derr) || derr.Device != 2 {
		t.Errorf("plain fleet: err = %v, want a DeviceError naming device 2", err)
	}
	if spans := plain.RecentTraces(1); len(spans) != 1 || spans[0].Name != "netdist.retrieve" {
		t.Errorf("plain fleet spans %+v, want one netdist.retrieve", spans)
	}
	if _, err := plain.RetrieveBatch(context.Background(), pms); !errors.As(err, &derr) || derr.Device != 2 {
		t.Errorf("plain fleet batch: err = %v, want a DeviceError naming device 2", err)
	}

	// The serving tier sends every query through a RetrieveBatch of
	// one, so it rides the same policy chain.
	g, err := gate.New(gate.Config{Cluster: coord, File: file, Allocator: fx,
		Tenants: []gate.TenantConfig{{Name: "t", APIKey: "k"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srv := httptest.NewServer(g)
	defer srv.Close()
	cl := client.New(srv.URL, client.WithAPIKey("k"))
	defer cl.Close()
	for i, q := range queries {
		res, err := cl.Retrieve(context.Background(), q)
		if err != nil {
			t.Fatalf("fx.retrieve %v behind the gate with one server dead: %v", q, err)
		}
		if len(res.Records) != len(wants[i]) {
			t.Errorf("fx.retrieve %v: %d records, want %d", q, len(res.Records), len(wants[i]))
		}
	}
	if rep := g.Report(); rep.Batches == 0 {
		t.Errorf("gate report %+v: fx.retrieve did not go through RetrieveBatch", rep)
	}
}

func TestPublicAllocatorSpecRoundTrip(t *testing.T) {
	fs, _ := fxdist.NewFileSystem([]int{4, 8}, 8)
	fx, _ := fxdist.NewFX(fs)
	spec, err := fxdist.DescribeAllocator(fx)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := fxdist.BuildAllocator(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Name() != fx.Name() {
		t.Errorf("rebuilt %q, want %q", rebuilt.Name(), fx.Name())
	}
}

func TestPublicSnapshotRoundTrip(t *testing.T) {
	file := buildTestFile(t)
	fs, _ := file.FileSystem(4)
	fx, _ := fxdist.NewFX(fs)
	var buf bytes.Buffer
	if err := fxdist.SaveSnapshot(&buf, file, fx); err != nil {
		t.Fatal(err)
	}
	restored, alloc, err := fxdist.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != file.Len() || alloc == nil {
		t.Errorf("restored %d records, alloc %v", restored.Len(), alloc)
	}
}

func TestPublicQueueSimulation(t *testing.T) {
	fs, _ := fxdist.NewFileSystem([]int{4, 4}, 16)
	fx, _ := fxdist.NewFX(fs)
	queries := []fxdist.Query{fxdist.AllQuery(2), fxdist.AllQuery(2)}
	jobs, err := analysis.FromQueries(fx, queries, analysis.UniformArrivals(2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := analysis.Run(jobs, analysis.ParallelDisk)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MeanResponse <= 0 || stats.Makespan <= 0 {
		t.Errorf("stats = %+v", stats)
	}
	if len(analysis.PoissonArrivals(5, time.Second, 1)) != 5 {
		t.Error("PoissonArrivals length wrong")
	}
}

func TestPublicGrowthPlanning(t *testing.T) {
	plans, err := rebalance.GrowthSeries([]int{4, 8}, 8, 0, 2,
		func(fs fxdist.FileSystem) (fxdist.GroupAllocator, error) {
			return fxdist.NewBasicFX(fs)
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("plans = %d", len(plans))
	}
	for _, p := range plans {
		if p.MoveFraction() > 0.5 {
			t.Errorf("Basic FX move fraction %.2f > 0.5", p.MoveFraction())
		}
	}
}

func TestPublicSearchAndWitness(t *testing.T) {
	fs, _ := fxdist.NewFileSystem([]int{2, 2, 2, 2}, 16)
	res, err := analysis.SearchBestPlan(fs)
	if err != nil {
		t.Fatal(err)
	}
	if res.OptimalPct == 100 {
		t.Error("L=4 all-small system cannot be perfect optimal")
	}
	bfx, _ := fxdist.NewBasicFX(fs)
	if _, ok := fxdist.FindWitness(bfx); !ok {
		t.Error("no witness for Basic FX on all-small system")
	}
	gres, err := analysis.SearchGDM(fs, 2, 10, 32)
	if err != nil {
		t.Fatal(err)
	}
	if gres.Evaluated != 10 {
		t.Errorf("evaluated %d", gres.Evaluated)
	}
	p, err := analysis.WeightedOptimality(4, 0.5, func(s []int) bool { return len(s) <= 1 })
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || p >= 1 {
		t.Errorf("weighted probability %v", p)
	}
}
