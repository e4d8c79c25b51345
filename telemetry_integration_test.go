package fxdist_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fxdist"
	"fxdist/internal/gate"
	"fxdist/internal/obs"
)

// buildTelemetryFile returns a file whose Modulo allocation provably
// violates the strict bound: sizes [2,2,4] on M=4 devices means a query
// specifying only the third field qualifies the 4 buckets {(i,j,z)},
// whose Modulo devices (i+j+z) mod 4 are {z, z+1, z+1, z+2} — one
// device gets 2 buckets against bound ceil(4/4)=1, for every z.
func buildTelemetryFile(t *testing.T) (*fxdist.File, *fxdist.Modulo) {
	t.Helper()
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "x", Cardinality: 8},
		{Name: "y", Cardinality: 8},
		{Name: "z", Cardinality: 16},
	}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{1, 1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := fxdist.GenerateRecords(spec, 96, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := file.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	return file, fxdist.NewModulo(fs)
}

// TestFleetViewCountsEachNodeOnce: a DeployLocal fleet, M = 4 servers
// in one process, serves 5 retrievals and one stats pull. Each server
// ships its own registry and the coordinator folds its own in once, as
// one more node, so the fleet view counts every retrieval once: the
// coordinator's 5, the servers' own request counters for Summary.Queries,
// and the cluster's plan cache for the hit rate.
func TestFleetViewCountsEachNodeOnce(t *testing.T) {
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
	c, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const m, retrievals = 4, 5
	everything := make(fxdist.PartialMatch, 2) // every device answers every retrieval
	for i := 0; i < retrievals; i++ {
		if _, err := c.Retrieve(everything); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Coordinator().PullStats(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := c.Coordinator().Federator().Report()
	merged := map[string]float64{}
	for _, ms := range rep.Merged {
		if len(ms.Labels) == 0 && ms.Histogram == nil {
			merged[ms.Name] = ms.Value
		}
	}
	if n := merged["fxdist_netdist_coordinator_retrieves_total"]; n != retrievals {
		t.Errorf("merged coordinator retrieves = %g, want %d", n, retrievals)
	}
	if n := merged["fxdist_netdist_server_requests_total"]; n != m*retrievals || rep.Summary.Queries != m*retrievals {
		t.Errorf("Summary.Queries = %d and the servers' request counters sum to %g, want %d each",
			rep.Summary.Queries, n, m*retrievals)
	}
	if got, want := rep.Summary.PlanCacheHitRate, c.PlanCache().HitRate; got != want {
		t.Errorf("Summary.PlanCacheHitRate = %g, the cluster's plan cache %g", got, want)
	}
	if len(rep.Nodes) != m+1 || rep.Nodes[0].Node != "coordinator" || !rep.Nodes[0].Alive || rep.Nodes[0].Flagged {
		t.Errorf("fleet nodes %+v, want the coordinator alive and unflagged beside %d devices", rep.Nodes, m)
	}
}

// waitFleet polls the node rows of the fleet on url's /debug/cluster
// until ok accepts them, or fails the test after 2 s with the rows it
// last saw.
func waitFleet(t *testing.T, url, what string, ok func([]obs.NodeRow) bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(url + "/debug/cluster?format=json")
		if err != nil {
			t.Fatal(err)
		}
		var fleets map[string]fxdist.FleetReport
		err = json.NewDecoder(resp.Body).Decode(&fleets)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode /debug/cluster: %v", err)
		}
		rows := fleets[fxdist.KindNetdist].Nodes
		if ok(rows) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: /debug/cluster rows after 2s: %+v", what, rows)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStatsPullTendsTheRescaledEpoch grows a stats-pulling cluster
// 4 -> 8: the new epoch's coordinator is dialed with the cluster's
// options, so it tends its own eight devices and /debug/cluster, which
// reads the serving coordinator, keeps a fresh fleet view after the
// cutover.
func TestStatsPullTendsTheRescaledEpoch(t *testing.T) {
	file := buildTestFile(t)
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	addrs, stopOld, err := fxdist.DeployLocal(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stopOld()
	spec, err := fxdist.DescribeAllocator(fx)
	if err != nil {
		t.Fatal(err)
	}
	newSpec, err := spec.Rescaled(8)
	if err != nil {
		t.Fatal(err)
	}
	taddrs, stopTargets := deployRescaleTargets(t, newSpec, 4)
	defer stopTargets()

	cl, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs}, fxdist.WithStatsPull(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := httptest.NewServer(cl.DebugHandler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resc, err := cl.Rescale(ctx, fxdist.RescaleConfig{
		Addrs:        append(append([]string(nil), addrs...), taddrs...),
		DisableGuard: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := resc.Wait(); err != nil {
		t.Fatalf("rescale: %v", err)
	}
	cutover := time.Now()
	waitFleet(t, srv.URL, "after the 4 -> 8 cutover", func(rows []obs.NodeRow) bool {
		if len(rows) != 9 {
			return false
		}
		for _, r := range rows {
			if !r.Alive || !r.LastPull.After(cutover) {
				return false
			}
		}
		return true
	})
}

// TestStatsPullRedialsARestartedServer restarts device 2's server on its
// own address with no retrieval in between: the stats pull is the
// health probe, so it redials the dead connection and the fleet row
// reads alive again.
func TestStatsPullRedialsARestartedServer(t *testing.T) {
	file := buildTestFile(t)
	fs, _ := file.FileSystem(4)
	fx, _ := fxdist.NewFX(fs)
	servers, addrs, parts, spec, stop := chaosServers(t, file, fx)
	defer stop()

	cl, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs}, fxdist.WithStatsPull(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := httptest.NewServer(cl.DebugHandler())
	defer srv.Close()
	device2 := func(alive bool) func([]obs.NodeRow) bool {
		return func(rows []obs.NodeRow) bool {
			for _, r := range rows {
				if r.Node == "device-2" {
					return r.Alive == alive
				}
			}
			return false
		}
	}

	servers[2].Close()
	waitFleet(t, srv.URL, "device-2 dead", device2(false))
	restartServer(t, servers, addrs, parts, spec, 2)
	waitFleet(t, srv.URL, "device-2 alive after its restart", device2(true))
}

// TestClusterTelemetryPlane runs the telemetry plane end to end on a
// real multi-node cluster with an injected fault: per-node registries
// federated over the wire into one /debug/cluster view whose per-shape
// counts must equal the sum of the per-node counters, the faulted node
// flagged, and a bound-violating Modulo query always kept in the wide-
// event log — with its full trace tree recoverable through the latency
// histogram's exemplar, and still recoverable after more unremarkable
// kept queries than the retention buffer holds trees.
func TestClusterTelemetryPlane(t *testing.T) {
	file, alloc := buildTelemetryFile(t)
	allocSpec, err := fxdist.DescribeAllocator(alloc)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := fxdist.PartitionFile(file, alloc)
	if err != nil {
		t.Fatal(err)
	}

	// One server per device, each with its own registry — its counters
	// reach the fleet view only by the stats pull over the wire, and the
	// test reads them through the server's own handler.
	const m = 4
	addrs := make([]string, m)
	servers := make([]*fxdist.DeviceServer, m)
	for dev := 0; dev < m; dev++ {
		srv, err := fxdist.NewDeviceServer(dev, allocSpec, parts[dev])
		if err != nil {
			t.Fatal(err)
		}
		servers[dev] = srv
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[dev] = l.Addr().String()
		go srv.Serve(l) //nolint:errcheck // closed at test end
		defer srv.Close()
	}

	inj := fxdist.NewFaultInjector("telemetry-itest", 1, map[int]fxdist.FaultSchedule{})
	cl, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs}, fxdist.WithFaultInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	coord, ev := cl.Coordinator(), cl.Coordinator().Instruments()
	ctx := context.Background()

	// Baseline pull so the fault below shows up as error *growth*.
	if err := coord.PullStats(ctx); err != nil {
		t.Fatalf("baseline stats pull: %v", err)
	}

	// Healthy traffic: 5 queries of shape s**.
	pmX, err := file.Spec(map[string]string{"x": "x-1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := coord.RetrieveContext(ctx, pmX); err != nil {
			t.Fatalf("healthy query %d: %v", i, err)
		}
	}

	// Chaos: partition device 2 at the coordinator seam and keep
	// querying. The retrievals fail (no retry/failover configured), the
	// coordinator's per-device error counters grow.
	inj.Set(2, fxdist.FaultSchedule{Partition: true})
	pmY, err := file.Spec(map[string]string{"y": "y-2"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := coord.RetrieveContext(ctx, pmY); err == nil {
			t.Fatalf("query %d against partitioned device 2 unexpectedly succeeded", i)
		}
	}

	// The pull itself bypasses the injector (an overloaded or faulted
	// node's telemetry is exactly what the fleet view needs), so it
	// succeeds — the node is flagged by coordinator-observed error
	// growth instead.
	if err := coord.PullStats(ctx); err != nil {
		t.Fatalf("stats pull during fault: %v", err)
	}
	rep := coord.Federator().Report()
	for _, n := range rep.Nodes {
		if n.Node == "device-2" {
			if !n.Flagged {
				t.Errorf("device-2 not flagged after injected faults: %+v", n)
			}
		} else if n.Flagged {
			t.Errorf("%s flagged without faults: %q", n.Node, n.FlagReason)
		}
		if !n.Alive {
			t.Errorf("%s reported dead; stats pulls bypass the injector", n.Node)
		}
	}

	// The fleet view is served on the cluster's /debug/cluster exactly as
	// fxtop consumes it: fetch it over HTTP and decode through the facade
	// type.
	srv := httptest.NewServer(cl.DebugHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/cluster?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var fleets map[string]fxdist.FleetReport
	err = json.NewDecoder(resp.Body).Decode(&fleets)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /debug/cluster: %v", err)
	}
	cluster, ok := fleets[fxdist.KindNetdist]
	if !ok || len(fleets) != 1 {
		t.Fatalf("/debug/cluster holds %d fleets, want the cluster's one under %q", len(fleets), fxdist.KindNetdist)
	}
	flagged := false
	for _, n := range cluster.Nodes {
		flagged = flagged || (n.Node == "device-2" && n.Flagged)
	}
	if !flagged {
		t.Error("/debug/cluster does not flag device-2")
	}

	// Heal the partition and run the bound-violating query last, so its
	// exemplar owns its latency bucket.
	inj.Clear(2)
	pmZ, err := file.Spec(map[string]string{"z": "z-3"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.RetrieveContext(ctx, pmZ)
	if err != nil {
		t.Fatalf("bound-violating query: %v", err)
	}
	// One serving span per device that was asked, on the servers' own
	// rings, joined to the query by trace id: the devices holding a
	// qualified bucket, which a bound-violating query leaves fewer than m.
	active := 0
	for _, b := range res.DeviceBuckets {
		if b > 0 {
			active++
		}
	}
	served := serverSpans(t, servers, res.TraceID)
	if len(served) != active || active >= m {
		t.Errorf("%d serving spans of trace %d, want one per active device (%d of %d)", len(served), res.TraceID, active, m)
	}
	for _, sp := range served {
		if sp.Name != "netdist.serve" || sp.Parent != res.TraceID {
			t.Errorf("serving span %s under parent %d, want netdist.serve under the root %d", sp.Name, sp.Parent, res.TraceID)
		}
	}

	// Final pull, then the federation invariant: the merged per-shape
	// counts must equal the sum of the per-node counters, scraped from
	// each server's own /metrics.
	if err := coord.PullStats(ctx); err != nil {
		t.Fatalf("final stats pull: %v", err)
	}
	rep = coord.Federator().Report()
	perNode := make(map[string]uint64)
	var perNodeTotal uint64
	for dev, srv := range servers {
		h := httptest.NewServer(srv.DebugHandler())
		scraped := scrapeMetrics(t, h.URL+"/metrics")
		h.Close()
		prefix := fmt.Sprintf(`fxdist_netdist_server_shape_requests_total{device="%d",shape="`, dev)
		for series, v := range scraped {
			shape, ok := strings.CutPrefix(series, prefix)
			if !ok {
				continue
			}
			perNode[strings.TrimSuffix(shape, `"}`)] += uint64(v)
			perNodeTotal += uint64(v)
		}
	}
	if len(perNode) == 0 {
		t.Fatal("no per-node shape counters recorded")
	}
	if len(rep.Summary.QueriesByShape) != len(perNode) {
		t.Errorf("merged shapes %v, per-node shapes %v", rep.Summary.QueriesByShape, perNode)
	}
	for shape, want := range perNode {
		if got := rep.Summary.QueriesByShape[shape]; got != want {
			t.Errorf("shape %s: merged count %d, per-node sum %d", shape, got, want)
		}
	}
	if rep.Summary.Queries != perNodeTotal {
		t.Errorf("merged total %d, per-node sum %d", rep.Summary.Queries, perNodeTotal)
	}

	// The bound-violating query must be in the event log, kept for the
	// bound reason — whatever beat its shape's sampler was on...
	findBound := func() *obs.Event {
		recent := ev.Events(1024)
		for i := range recent {
			if recent[i].TraceID == res.TraceID {
				return &recent[i]
			}
		}
		return nil
	}
	bound := findBound()
	if bound == nil {
		t.Fatal("bound-violating query not kept in the event log")
	}
	keep := fmt.Sprintf("%v", bound.Keep)
	if !containsString(bound.Keep, obs.KeepBound) {
		t.Errorf("bound event kept for %s, want %q", keep, obs.KeepBound)
	}
	if bound.Bound != 1 || bound.MaxDeviceBuckets < 2 {
		t.Errorf("bound event: bound=%d max=%d, want bound 1 violated", bound.Bound, bound.MaxDeviceBuckets)
	}
	if bound.TraceID == 0 || bound.TraceID != res.TraceID {
		t.Errorf("bound event trace id %d, result trace id %d", bound.TraceID, res.TraceID)
	}
	// Exemplar loop: latency bucket → trace ID → retained tree.
	tid := bound.TraceID
	var exemplarHit bool
	for _, p := range cl.Metrics().Snapshot() {
		if p.Name != "fxdist_netdist_coordinator_retrieve_seconds" || p.Histogram == nil {
			continue
		}
		for _, ex := range p.Histogram.Exemplars {
			if ex != nil && ex.TraceID == tid {
				exemplarHit = true
			}
		}
	}
	if !exemplarHit {
		t.Error("no latency histogram exemplar points at the bound-violating trace")
	}
	resp, err = http.Get(srv.URL + "/metrics?exemplars=1")
	if err != nil {
		t.Fatal(err)
	}
	exposition, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(exposition), fmt.Sprintf(`# {trace_id="%d"}`, tid)) {
		t.Error("the cluster's /metrics?exemplars=1 does not link a bucket to the bound-violating trace")
	}

	// ...and it survives sampling: push more unremarkable kept queries
	// through than the retention buffer holds trees (each displaces a
	// head/sample tree, never an always-keep one) and the event and its
	// tree are both still there.
	kept0 := ev.LogStats().Kept
	for ev.LogStats().Kept-kept0 < 2*obs.RetainedTraces {
		if _, err := coord.RetrieveContext(ctx, pmX); err != nil {
			t.Fatalf("healthy query after the violation: %v", err)
		}
	}
	if findBound() == nil {
		t.Errorf("bound-violating event displaced by %d later kept events", 2*obs.RetainedTraces)
	}
	rt, ok := cl.RetainedTraceByID(tid)
	if !ok {
		t.Fatalf("trace %d not retained after %d later kept queries", tid, 2*obs.RetainedTraces)
	}
	if rt.Reason != obs.KeepBound {
		t.Errorf("trace %d retained for %q, want %q", tid, rt.Reason, obs.KeepBound)
	}
	// The kept tree is the cluster's own span, one reply event per active
	// device; the servers' spans joined above by trace id stay theirs.
	if rt.Root.TraceID != tid || len(rt.Root.Events) != active || len(rt.Root.Children) != 0 {
		t.Errorf("retained tree: root trace id %d with %d reply events and %d children, want %d with one per active device (%d) and none",
			rt.Root.TraceID, len(rt.Root.Events), len(rt.Root.Children), tid, active)
	}

	// A query is counted once per shape: over this mixed traffic, failed
	// queries included, /debug/events' seen is /debug/optimality's
	// queries for every shape, and the seen counter on /metrics is their
	// total.
	getJSON := func(path string, doc any) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(doc); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	var events map[string]struct {
		Stats fxdist.QueryLogStats `json:"stats"`
	}
	var audits []fxdist.BackendAudit
	getJSON("/debug/events?format=json&n=1", &events)
	getJSON("/debug/optimality?format=json", &audits)
	seen := map[string]uint64{}
	for _, sh := range events[fxdist.KindNetdist].Stats.Shapes {
		seen[sh.Shape] = sh.Seen
	}
	var total uint64
	if len(audits) != 1 || len(audits[0].Shapes) != 3 || len(seen) != 3 {
		t.Fatalf("audit %+v and event stats %v, want the three shapes served in each", audits, seen)
	}
	for _, row := range audits[0].Shapes {
		if seen[row.Shape] != row.Queries || row.Queries == 0 {
			t.Errorf("shape %s: /debug/events seen %d, /debug/optimality queries %d", row.Shape, seen[row.Shape], row.Queries)
		}
		total += row.Queries
	}
	scraped := scrapeMetrics(t, srv.URL+"/metrics")
	series := scraped[`fxdist_events_seen_total{backend="netdist"}`]
	if uint64(series) != total || events[fxdist.KindNetdist].Stats.Seen != total {
		t.Errorf("fxdist_events_seen_total %g and stats seen %d, want the audited total %d", series, events[fxdist.KindNetdist].Stats.Seen, total)
	}
	for _, row := range audits[0].Shapes {
		if got := scraped[`fxdist_audit_queries_total{backend="netdist",shape="`+row.Shape+`"}`]; uint64(got) != row.Queries {
			t.Errorf("shape %s: fxdist_audit_queries_total %g, /debug/optimality queries %d", row.Shape, got, row.Queries)
		}
	}
}

// TestKeptEventHasRetainedTrace is the joining property of the one keep
// decision: over mixed-shape traffic on the shipped policy, every one of
// the newest kept events resolves to its retained trace tree by trace ID,
// and every tree the cluster retains belongs to a kept event. The
// cluster's tracer is its own, so all of its 64 slots are this test's.
func TestKeptEventHasRetainedTrace(t *testing.T) {
	file := buildTestFile(t)
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := fxdist.Open(fxdist.Config{File: file, Allocator: alloc})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// 4 shapes (every subset of the 2 fields), 1 280 retrievals: 8 heads
	// and then 19 or 20 samples per shape, none of them always-keep.
	const retrievals = 1280
	stats0 := fxdist.QueryLogStatsFor(cluster.Kind())
	for i := 0; i < retrievals; i++ {
		q := map[string]string{}
		for bit, name := range []string{"a", "b"} {
			if i&(1<<bit) != 0 {
				q[name] = fmt.Sprintf("%s-%d", name, (i>>2)%15)
			}
		}
		pm, err := file.Spec(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cluster.Retrieve(pm); err != nil {
			t.Fatalf("retrieval %d: %v", i, err)
		}
	}
	stats := fxdist.QueryLogStatsFor(cluster.Kind())
	kept := int(stats.Kept - stats0.Kept)
	if stats.Seen-stats0.Seen != retrievals || kept < obs.RetainedTraces {
		t.Fatalf("log saw %d of %d retrievals and kept %d, want at least %d kept", stats.Seen-stats0.Seen, retrievals, kept, obs.RetainedTraces)
	}

	events := cluster.QueryEvents(kept)
	mine := make(map[uint64]bool, len(events))
	for i, ev := range events {
		mine[ev.TraceID] = true
		if i >= obs.RetainedTraces {
			continue
		}
		rt, ok := cluster.RetainedTraceByID(ev.TraceID)
		if !ok {
			t.Errorf("kept event %d of the newest %d (trace %d, keep %v) has no retained trace", i, obs.RetainedTraces, ev.TraceID, ev.Keep)
		} else if rt.Reason != ev.Keep[0] {
			t.Errorf("trace %d retained for %q, its event kept for %v", ev.TraceID, rt.Reason, ev.Keep)
		}
	}
	retained := cluster.RetainedTraces(obs.RetainedTraces)
	if len(retained) != obs.RetainedTraces {
		t.Errorf("the cluster retains %d trees, want all %d slots filled", len(retained), obs.RetainedTraces)
	}
	for _, rt := range retained {
		if !mine[rt.TraceID] {
			t.Errorf("retained trace %d (%s) belongs to no kept event", rt.TraceID, rt.Reason)
		}
	}
}

func containsString(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// TestDebugEndpointsServeBothFormats walks the /debug/ index a memory
// cluster's handler serves, a gate's and a device server's, and scrapes
// every endpoint listed in both renderings: ?format=json must return 200 with a valid
// JSON document, ?format=text must return 200. Every kind mounts the
// same paths from the start: /debug/rescale and /debug/cluster are
// listed before any rescale or stats pull. This is the CI telemetry
// job's in-process half.
func TestDebugEndpointsServeBothFormats(t *testing.T) {
	file, alloc := buildTelemetryFile(t)
	c, err := fxdist.Open(fxdist.Config{File: file, Allocator: alloc})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, err := gate.New(gate.Config{Cluster: c, File: file, Tenants: []gate.TenantConfig{{Name: "t", APIKey: "k"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	spec, err := fxdist.DescribeAllocator(alloc)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := fxdist.PartitionFile(file, alloc)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := fxdist.NewDeviceServer(0, spec, parts[0])
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	client := http.Client{Timeout: 10 * time.Second}
	for name, h := range map[string]http.Handler{"cluster": c.DebugHandler(), "gate": g.DebugHandler(), "device": dev.DebugHandler()} {
		srv := httptest.NewServer(h)
		var index []struct{ Path string }
		resp, err := client.Get(srv.URL + "/debug/?format=json")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&index)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: /debug/ index: %v", name, err)
		}
		listed := map[string]bool{}
		for _, ep := range index {
			listed[ep.Path] = true
		}
		wants := []string{"/metrics", "/debug/traces", "/debug/pprof/", "/debug/mempool"}
		if name != "device" {
			wants = append(wants, "/debug/optimality", "/debug/plancache", "/debug/rescale", "/debug/cluster")
		}
		for _, want := range wants {
			if !listed[want] {
				t.Errorf("%s: index does not list %s", name, want)
			}
		}
		if listed["/debug/tenants"] != (name == "gate") {
			t.Errorf("%s: index lists /debug/tenants: %v", name, listed["/debug/tenants"])
		}
		for _, ep := range index {
			switch ep.Path {
			case "/debug/pprof/":
				// The pprof mux ignores format params; reachability is enough.
				resp, err := client.Get(srv.URL + ep.Path)
				if err != nil {
					t.Fatalf("GET %s: %v", ep.Path, err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: GET %s: %s", name, ep.Path, resp.Status)
				}
				continue
			case "/metrics":
				continue // Prometheus text only; linted separately below
			}
			for format, contentType := range map[string]string{
				"json": "application/json; charset=utf-8", "text": "text/plain; charset=utf-8", "bogus": "",
			} {
				url := srv.URL + ep.Path + "?format=" + format
				resp, err := client.Get(url)
				if err != nil {
					t.Fatalf("GET %s: %v", url, err)
				}
				if format == "bogus" {
					resp.Body.Close()
					if resp.StatusCode != http.StatusBadRequest {
						t.Errorf("%s: GET %s: %s, want 400", name, url, resp.Status)
					}
					continue
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					t.Errorf("%s: GET %s: %s", name, url, resp.Status)
					continue
				}
				if got := resp.Header.Get("Content-Type"); got != contentType {
					t.Errorf("%s: GET %s: Content-Type %q, want %q", name, url, got, contentType)
				}
				if format == "json" {
					var doc any
					if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
						t.Errorf("%s: GET %s: invalid JSON: %v", name, url, err)
					}
				}
				resp.Body.Close()
			}
		}
		srv.Close()
	}
}

// TestEventsFollowLeavesNoGoroutine follows /debug/events as an NDJSON
// stream, hangs up, and requires the process's goroutine count back at
// its baseline: a follower must leave nothing behind it.
func TestEventsFollowLeavesNoGoroutine(t *testing.T) {
	file, alloc := buildTelemetryFile(t)
	c, err := fxdist.Open(fxdist.Config{File: file, Allocator: alloc})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(c.DebugHandler())
	defer srv.Close()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := http.Client{Transport: transport}

	baseline := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/debug/events?format=ndjson&follow=1", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		resp.Body.Close()
	}
	transport.CloseIdleConnections()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > baseline {
		t.Errorf("%d goroutines after four followers hung up, %d before", n, baseline)
	}
}

// TestKeptEventOutlivesTheCallersResult: a kept event is immutable once
// committed, so writing the Result of a retrieval the head rule kept must
// not reach the event. The parent's kept copy still aliased the caller's
// DeviceBuckets and read [777 777 777 777] here; a kept event's
// per-device detail is its Devices.
func TestKeptEventOutlivesTheCallersResult(t *testing.T) {
	file, _ := buildTelemetryFile(t)
	grid, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(grid)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	pm, err := file.Spec(map[string]string{"z": "z-3"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(res.DeviceBuckets)
	for dev := range res.DeviceBuckets {
		res.DeviceBuckets[dev] = 777
	}
	events := cluster.QueryEvents(1)
	if len(events) != 1 || events[0].TraceID != res.TraceID {
		t.Fatalf("want the retrieval's kept event (trace %d), got %d events", res.TraceID, len(events))
	}
	ev := events[0]
	if slices.Contains(ev.DeviceBuckets, 777) {
		t.Errorf("the kept event reads the caller's writes: DeviceBuckets %v", ev.DeviceBuckets)
	}
	got := make([]int, len(ev.Devices))
	for dev, d := range ev.Devices {
		got[dev] = d.Buckets
	}
	if !slices.Equal(got, want) {
		t.Errorf("kept event's per-device buckets %v, the retrieval's %v", got, want)
	}
}

// TestTwoClustersKeepTheirInstrumentsApart opens two memory clusters in
// one process, A over a bound-violating Modulo allocation under a 1ns
// objective and B over FX, drives both while their handlers are scraped,
// and requires each cluster's reports to hold its own traffic alone. CI
// runs it under -race ten times over.
func TestTwoClustersKeepTheirInstrumentsApart(t *testing.T) {
	file, modulo := buildTelemetryFile(t)
	grid, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(grid)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fxdist.Open(fxdist.Config{File: file, Allocator: modulo}, fxdist.WithLatencySLO(time.Nanosecond, 0.99))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	pm, err := file.Spec(map[string]string{"z": "z-3"}) // shape **s: Modulo breaks its bound
	if err != nil {
		t.Fatal(err)
	}
	const shape, perCluster = "**s", 40

	handlers := map[*fxdist.Cluster]http.Handler{a: a.DebugHandler(), b: b.DebugHandler()}
	scrape := func(h http.Handler, path string) []byte {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Errorf("GET %s: %d %s", path, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	paths := []string{"/metrics", "/debug/optimality", "/debug/hotpath", "/debug/flight", "/debug/events",
		"/debug/plancache", "/debug/resilience", "/debug/rescale", "/debug/cluster", "/debug/traces?n=256"}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for _, c := range []*fxdist.Cluster{a, b} {
		wg.Add(2)
		go func(c *fxdist.Cluster) {
			defer wg.Done()
			for i := 0; i < perCluster; i++ {
				if _, err := c.Retrieve(pm); err != nil {
					t.Error(err)
				}
			}
		}(c)
		go func(h http.Handler) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
					scrape(h, paths[i%len(paths)])
				}
			}
		}(handlers[c])
	}
	until(t, "both clusters served their queries", func() bool {
		return b.OptimalityReport().Shapes != nil && a.OptimalityReport().Shapes != nil &&
			b.OptimalityReport().Shapes[0].Queries == perCluster && a.OptimalityReport().Shapes[0].Queries == perCluster
	})
	close(done)
	wg.Wait()

	// Each cluster's /metrics is its own: A's violations and A's
	// retrievals only, and B's retrievals only.
	name := map[*fxdist.Cluster]string{a: "A", b: "B"}
	for c, h := range handlers {
		series := map[string]float64{}
		for sc := bufio.NewScanner(bytes.NewReader(scrape(h, "/metrics"))); sc.Scan(); {
			if name, v, ok := strings.Cut(sc.Text(), " "); ok && !strings.HasPrefix(name, "#") {
				series[name], _ = strconv.ParseFloat(v, 64)
			}
		}
		violations := series[`fxdist_audit_violations_total{backend="memory",shape="**s"}`]
		if want := map[*fxdist.Cluster]float64{a: perCluster, b: 0}[c]; violations != want {
			t.Errorf("%s's /metrics: %g bound violations of **s, want %g", name[c], violations, want)
		}
		if n := series[`fxdist_storage_retrieves_total{cluster="memory"}`]; n != perCluster {
			t.Errorf("%s's /metrics: %g retrievals, want its own %d", name[c], n, perCluster)
		}
	}

	// B's reports hold B's traffic: one shape, its queries, no bound
	// violation and no objective.
	opt := b.OptimalityReport()
	if len(opt.Shapes) != 1 || opt.Shapes[0].Queries != perCluster || opt.Shapes[0].Violations != 0 || opt.Shapes[0].SLOTarget != 0 {
		t.Errorf("B's audit %+v, want its %d strict-optimal queries and no objective", opt.Shapes, perCluster)
	}
	if cost := b.CostReport(); len(cost.Shapes) != 1 || cost.Shapes[0].Queries != perCluster {
		t.Errorf("B's cost report %+v, want its %d queries", cost.Shapes, perCluster)
	}
	for _, sf := range b.FlightReport().Shapes {
		for _, r := range sf.Records {
			if r.BoundViolation || r.Slow {
				t.Errorf("B's flight recorder holds A's query: %+v", r)
			}
		}
	}
	for _, ev := range b.QueryEvents(1024) {
		if ev.BoundViolation || ev.Slow {
			t.Errorf("B's events hold A's query (trace %d)", ev.TraceID)
		}
	}
	if pc := b.PlanCache(); pc.Hits+pc.Misses != perCluster {
		t.Errorf("B's plan cache saw %d lookups, want %d", pc.Hits+pc.Misses, perCluster)
	}
	if r := b.Resilience(); len(r.Retry) != 0 || len(r.Injectors) != 0 {
		t.Errorf("B's resilience %+v, want none", r)
	}
	if burn := b.BurnRate(shape); burn != 0 {
		t.Errorf("B's burn rate %g, want 0", burn)
	}
	if burn := a.BurnRate(shape); burn < 1 {
		t.Errorf("A's burn rate %g under a 1ns objective, want the budget blown", burn)
	}
	a.SetLatencySLO(time.Hour, 0.5)
	if got := b.OptimalityReport().Shapes[0].SLOTarget; got != 0 {
		t.Errorf("SetLatencySLO on A set B's objective to %v", got)
	}
	a.SetLatencySLO(time.Nanosecond, 0.99)

	// Each handler's /debug/traces holds its own cluster's spans: no trace
	// ID of one appears in the other's document.
	traces := map[*fxdist.Cluster]map[uint64]bool{}
	for c, h := range handlers {
		var spans []fxdist.TraceSpan
		if err := json.Unmarshal(scrape(h, "/debug/traces?n=256"), &spans); err != nil {
			t.Fatal(err)
		}
		traces[c] = map[uint64]bool{}
		for _, sp := range spans {
			traces[c][sp.TraceID] = true
		}
		if len(traces[c]) == 0 {
			t.Errorf("%s's /debug/traces holds no span", name[c])
		}
	}
	for id := range traces[a] {
		if traces[b][id] {
			t.Errorf("trace %d is on both A's and B's /debug/traces", id)
		}
	}

	// Each handler's /debug/optimality lists its one cluster.
	for c, h := range handlers {
		var rows []fxdist.BackendAudit
		if err := json.Unmarshal(scrape(h, "/debug/optimality"), &rows); err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || len(rows[0].Shapes) != 1 || rows[0].Shapes[0].Queries != c.OptimalityReport().Shapes[0].Queries {
			t.Errorf("/debug/optimality lists %+v, want the cluster's one row", rows)
		}
	}

	// A gate over B sheds on B's burn alone: A's blown budget is not B's.
	g, err := gate.New(gate.Config{Cluster: b, File: file, BurnShedThreshold: 1,
		Tenants: []gate.TenantConfig{{Name: "b", APIKey: "k"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest(http.MethodPost, "/rpc",
			jsonBody(`{"jsonrpc":"2.0","id":1,"method":"fx.retrieve","params":{"query":{"z":"z-3"}}}`))
		req.Header.Set("Authorization", "Bearer k")
		w := httptest.NewRecorder()
		g.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("gate over B answered %d: %s", w.Code, w.Body)
		}
	}
	if sheds := g.Report().BurnSheds; sheds != 0 {
		t.Errorf("gate over B shed %d queries on A's burn", sheds)
	}
}

// TestPrometheusHelpTypeLint asserts every sample family in the
// /metrics exposition of a cluster, a gate (its cluster's registry and
// then its own) and a device server is preceded by its # HELP and
// # TYPE headers, each once — the lint half of the CI telemetry job.
func TestPrometheusHelpTypeLint(t *testing.T) {
	file, modulo := buildTelemetryFile(t)
	c, err := fxdist.Open(fxdist.Config{File: file, Allocator: modulo}, fxdist.WithLatencySLO(time.Millisecond, 0.99))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, err := gate.New(gate.Config{Cluster: c, File: file, Tenants: []gate.TenantConfig{{Name: "lint", APIKey: "k"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// Traffic through the gate, so every family has a series.
	req := httptest.NewRequest(http.MethodPost, "/rpc",
		jsonBody(`{"jsonrpc":"2.0","id":1,"method":"fx.retrieve","params":{"query":{"z":"z-3"}}}`))
	req.Header.Set("Authorization", "Bearer k")
	g.ServeHTTP(httptest.NewRecorder(), req)
	spec, err := fxdist.DescribeAllocator(modulo)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fxdist.NewDeviceServer(0, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]http.Handler{"cluster": c.DebugHandler(), "gate": g.DebugHandler(), "server": srv.DebugHandler()} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: GET /metrics: %d", name, w.Code)
		}
		for _, p := range lintPrometheus(t, w.Body) {
			t.Errorf("%s: %s", name, p)
		}
	}
}

func lintPrometheus(t *testing.T, r io.Reader) []string {
	t.Helper()
	var problems []string
	helped := map[string]bool{}
	typed := map[string]bool{}
	seen := map[string]bool{}
	var samples []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if name, ok := cutPrefixWord(line, "# HELP "); ok {
			helped[name] = true
			continue
		}
		if name, ok := cutPrefixWord(line, "# TYPE "); ok {
			if typed[name] {
				problems = append(problems, "metric "+name+" has two # TYPE lines")
			}
			typed[name] = true
			continue
		}
		if line[0] == '#' {
			continue
		}
		name := line
		for i := 0; i < len(name); i++ {
			if name[i] == '{' || name[i] == ' ' {
				name = name[:i]
				break
			}
		}
		// _bucket/_sum/_count samples belong to their histogram family.
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := name
			if len(name) > len(suf) && name[len(name)-len(suf):] == suf && typed[name[:len(name)-len(suf)]] {
				base = name[:len(name)-len(suf)]
			}
			if base != name {
				name = base
				break
			}
		}
		if !seen[name] {
			seen[name] = true
			samples = append(samples, name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("empty /metrics exposition")
	}
	for _, name := range samples {
		if !helped[name] {
			problems = append(problems, "metric "+name+" has no # HELP line")
		}
		if !typed[name] {
			problems = append(problems, "metric "+name+" has no # TYPE line")
		}
	}
	return problems
}

func cutPrefixWord(line, prefix string) (string, bool) {
	if len(line) < len(prefix) || line[:len(prefix)] != prefix {
		return "", false
	}
	rest := line[len(prefix):]
	for i := 0; i < len(rest); i++ {
		if rest[i] == ' ' {
			return rest[:i], true
		}
	}
	return rest, true
}
