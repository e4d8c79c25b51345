package fxdist_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"

	"fxdist"
)

// hotpathRun is what one backend's workload leaves: its results, and its
// cluster's cost and flight reports, programmatic and as the rows of the
// /debug/hotpath and /debug/flight documents its DebugHandler serves.
type hotpathRun struct {
	results []fxdist.RetrieveResult
	cost    fxdist.BackendCost
	flights fxdist.BackendFlights
	rows    map[string][]json.RawMessage // by path
}

// hotpathWorkload drives the same query mix through one backend: every
// value of field b specified (shape "*s"), cycling through the values.
func hotpathWorkload(t *testing.T, file *fxdist.File, c *fxdist.Cluster, queries int) hotpathRun {
	t.Helper()
	out := make([]fxdist.RetrieveResult, 0, queries)
	for i := 0; i < queries; i++ {
		pm, err := file.Spec(map[string]string{"b": fmt.Sprintf("b-%d", i%15)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Retrieve(pm)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	run := hotpathRun{results: out, cost: c.CostReport(), flights: c.FlightReport(), rows: map[string][]json.RawMessage{}}
	debug := c.DebugHandler()
	for _, path := range []string{"/debug/hotpath", "/debug/flight"} {
		w := httptest.NewRecorder()
		debug.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		var rows []json.RawMessage
		if err := json.Unmarshal(w.Body.Bytes(), &rows); w.Code != 200 || err != nil || len(rows) != 1 {
			t.Fatalf("GET %s: status %d, %d rows (%v), want the cluster's one", path, w.Code, len(rows), err)
		}
		run.rows[path] = rows
	}
	return run
}

// TestHotpathStageSums drives the same workload through all four
// retrieval backends and asserts the tentpole property of the cost
// profiler: the four top-level stages (plan, fanout, merge, audit)
// partition each query, so their wall-time sum stays within 20% of the
// measured whole-query latency (StageCoverage in [0.8, 1.2]) on every
// backend, and every retrieval carries its own stage breakdown in
// Result.Stages. CI uploads the /debug/hotpath and /debug/flight
// documents as build artifacts when HOTPATH_JSON / FLIGHT_JSON name
// destinations.
func TestHotpathStageSums(t *testing.T) {
	file := buildTestFile(t)
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}

	// runtime/metrics counts a small object when its span leaves the P's
	// cache, so a stage's object count moves only once a size class's span
	// fills inside it. A memory retrieval's merge allocates three small
	// objects: 300 queries fill the 64 B class's 128-object span more than
	// twice over; a few dozen may fill none and read zero objects.
	const queries = 300
	backends := map[string]func(t *testing.T) hotpathRun{
		"memory": func(t *testing.T) hotpathRun {
			c, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
			if err != nil {
				t.Fatal(err)
			}
			return hotpathWorkload(t, file, c, queries)
		},
		"durable": func(t *testing.T) hotpathRun {
			c, err := fxdist.Open(fxdist.Config{Dir: t.TempDir(), File: file, Allocator: fx},
				fxdist.WithCostModel(fxdist.ParallelDisk))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			return hotpathWorkload(t, file, c, queries)
		},
		"replicated": func(t *testing.T) hotpathRun {
			c, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx},
				fxdist.WithReplication(fxdist.ChainedFailover))
			if err != nil {
				t.Fatal(err)
			}
			return hotpathWorkload(t, file, c, queries)
		},
		"netdist": func(t *testing.T) hotpathRun {
			addrs, stop, err := fxdist.DeployLocal(file, fx)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			c, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			return hotpathWorkload(t, file, c, queries)
		},
	}
	runs := make(map[string]hotpathRun, len(backends))
	for backend, run := range backends {
		runs[backend] = run(t)
		for i, res := range runs[backend].results {
			if len(res.Stages) == 0 {
				t.Fatalf("%s query %d returned no stage breakdown", backend, i)
			}
		}
	}

	byBackend := make(map[string]fxdist.BackendCost, len(runs))
	for _, run := range runs {
		byBackend[run.cost.Backend] = run.cost
	}
	for backend := range backends {
		b, ok := byBackend[backend]
		if !ok {
			t.Errorf("no cost profile for backend %s", backend)
			continue
		}
		var shape *fxdist.ShapeCost
		for i := range b.Shapes {
			if b.Shapes[i].Shape == "*s" {
				shape = &b.Shapes[i]
			}
		}
		if shape == nil {
			t.Errorf("%s profiled no *s shape: %+v", backend, b.Shapes)
			continue
		}
		if shape.Queries != queries {
			t.Errorf("%s/*s profiled %d queries, want %d", backend, shape.Queries, queries)
		}
		// The tentpole invariant: top-level stages explain the measured
		// latency to within 20%.
		if shape.StageCoverage < 0.8 || shape.StageCoverage > 1.2 {
			t.Errorf("%s/*s stage coverage %.3f outside [0.8, 1.2]: stage sums do not match whole-query latency",
				backend, shape.StageCoverage)
		}
		got := make(map[string]fxdist.StageCost, len(shape.Stages))
		for _, st := range shape.Stages {
			got[st.Stage] = st
		}
		for _, want := range []string{fxdist.StagePlan, fxdist.StageFanout, fxdist.StageMerge, fxdist.StageAudit, fxdist.StageDeviceScan} {
			st, ok := got[want]
			if !ok {
				t.Errorf("%s/*s missing stage %s", backend, want)
				continue
			}
			if st.Count != queries {
				t.Errorf("%s/*s stage %s counted %d samples, want %d", backend, want, st.Count, queries)
			}
		}
		// Alloc attribution must be live: a retrieval allocates, and the
		// breakdown says where.
		var objects float64
		for _, st := range shape.Stages {
			objects += st.MeanObjects
		}
		if objects == 0 {
			t.Errorf("%s/*s reports zero allocations across all stages", backend)
		}
		// Recycle attribution must be live too: with pooling on (the
		// default) part of each stage's demand is served from slabs,
		// and the breakdown must say so or the profiler overstates how
		// allocation-free the hot path is.
		var recycled float64
		for _, st := range shape.Stages {
			recycled += st.MeanRecycledBytes
		}
		if recycled == 0 {
			t.Errorf("%s/*s reports zero pool-recycled bytes across all stages", backend)
		}
		// The coordinator additionally attributes the wire.
		if backend == "netdist" {
			for _, want := range []string{fxdist.StageNetDispatch, fxdist.StageNetWait, fxdist.StageNetDecode} {
				st, ok := got[want]
				if !ok {
					t.Errorf("netdist/*s missing wire stage %s", want)
					continue
				}
				// One sample per device request: queries × 4 devices.
				if st.Count != queries*4 {
					t.Errorf("netdist/*s wire stage %s counted %d samples, want %d", want, st.Count, queries*4)
				}
			}
			if got[fxdist.StageNetDispatch].MeanBytes == 0 || got[fxdist.StageNetDecode].MeanBytes == 0 {
				t.Error("netdist wire stages report zero wire bytes")
			}
		}
	}

	// The flight recorder retained the slowest queries of the workload.
	flightBackends := make(map[string]bool, len(runs))
	for _, run := range runs {
		b := run.flights
		flightBackends[b.Backend] = true
		for _, s := range b.Shapes {
			if len(s.Records) == 0 || len(s.Records) > 8 {
				t.Errorf("%s/%s retained %d flight records, want 1..8", b.Backend, s.Shape, len(s.Records))
			}
			for i, r := range s.Records {
				if i > 0 && r.Elapsed > s.Records[i-1].Elapsed {
					t.Errorf("%s/%s flight records not slowest-first", b.Backend, s.Shape)
				}
				if len(r.Stages) == 0 || len(r.Devices) == 0 {
					t.Errorf("%s/%s flight record lacks stages or devices: %+v", b.Backend, s.Shape, r)
				}
			}
		}
	}
	for backend := range backends {
		if !flightBackends[backend] {
			t.Errorf("no flight records for backend %s", backend)
		}
	}

	// Each cluster served its own rows of both documents; CI uploads them
	// gathered into one, a row per backend, as artifacts.
	names := make([]string, 0, len(runs))
	for backend := range runs {
		names = append(names, backend)
	}
	sort.Strings(names)
	for _, ep := range []struct{ path, env string }{
		{"/debug/hotpath", "HOTPATH_JSON"},
		{"/debug/flight", "FLIGHT_JSON"},
	} {
		var rows []json.RawMessage
		for _, backend := range names {
			rows = append(rows, runs[backend].rows[ep.path]...)
		}
		raw, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if path := os.Getenv(ep.env); path != "" {
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatalf("write %s: %v", ep.env, err)
			}
			t.Logf("%s written to %s", ep.path, path)
		}
	}
}

// TestFlightRecorderSlowDevice injects latency into one device and
// asserts the flight recorder's evidence points at it: the retained
// records' per-device timings show the chaos-injected device dominating
// the critical path.
func TestFlightRecorderSlowDevice(t *testing.T) {
	file := buildTestFile(t)
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	const slow = 0
	c, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx},
		fxdist.WithFaultInjector(fxdist.NewFaultInjector(fxdist.KindMemory, 1988, map[int]fxdist.FaultSchedule{
			slow: {Latency: 5 * time.Millisecond},
		})))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		pm, err := file.Spec(map[string]string{"b": fmt.Sprintf("b-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Retrieve(pm); err != nil {
			t.Fatal(err)
		}
	}

	rep := c.FlightReport()
	if len(rep.Shapes) == 0 {
		t.Fatal("no flight records after slow-device workload")
	}
	for _, s := range rep.Shapes {
		for _, r := range s.Records {
			if r.Elapsed < 5*time.Millisecond {
				t.Errorf("%s record elapsed %v < injected 5ms", s.Shape, r.Elapsed)
			}
			var slowest fxdist.FlightDevice
			for _, d := range r.Devices {
				if d.Scan > slowest.Scan {
					slowest = d
				}
			}
			if slowest.Device != slow {
				t.Errorf("%s record blames device %d (scan %v), want injected device %d: %+v",
					s.Shape, slowest.Device, slowest.Scan, slow, r.Devices)
			}
			if slowest.Scan < r.Elapsed/2 {
				t.Errorf("%s record: slow device scan %v is not dominant in elapsed %v",
					s.Shape, slowest.Scan, r.Elapsed)
			}
		}
	}
}
