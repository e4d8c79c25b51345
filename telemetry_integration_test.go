package fxdist_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"fxdist"
	"fxdist/internal/netdist"
	"fxdist/internal/obs"
	"fxdist/internal/resilience"
	"fxdist/internal/telemetry"
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

// TestClusterTelemetryPlane runs the telemetry plane end to end on a
// real multi-node cluster with an injected fault: per-node registries
// federated over the wire into one /debug/cluster view whose per-shape
// counts must equal the sum of the per-node counters, the faulted node
// flagged, and a bound-violating Modulo query always kept in the wide-
// event log — with its full trace tree recoverable through the latency
// histogram's exemplar, and still recoverable after more unremarkable
// kept queries than the retention buffer holds trees.
func TestClusterTelemetryPlane(t *testing.T) {
	ev := telemetry.For("netdist")

	file, alloc := buildTelemetryFile(t)
	allocSpec, err := fxdist.DescribeAllocator(alloc)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := fxdist.PartitionFile(file, alloc)
	if err != nil {
		t.Fatal(err)
	}

	// One server per device, each with its own private registry — the
	// only route its counters have into the test's assertions is the
	// stats pull over the wire.
	const m = 4
	addrs := make([]string, m)
	regs := make([]*obs.Registry, m)
	for dev := 0; dev < m; dev++ {
		srv, err := fxdist.NewDeviceServer(dev, allocSpec, parts[dev])
		if err != nil {
			t.Fatal(err)
		}
		regs[dev] = obs.NewRegistry()
		srv.UseRegistry(regs[dev])
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[dev] = l.Addr().String()
		go srv.Serve(l) //nolint:errcheck // closed at test end
		defer srv.Close()
	}

	inj := resilience.NewInjector("telemetry-itest", 1, map[int]resilience.Schedule{})
	coord, err := netdist.Dial(file, addrs,
		netdist.WithInjector(inj), netdist.WithFleetName("telemetry-itest"))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
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
	inj.Set(2, resilience.Schedule{Partition: true})
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

	// The fleet view is served on /debug/cluster exactly as fxtop
	// consumes it: fetch it over HTTP and decode through the facade type.
	httpAddr, stopMetrics, err := fxdist.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopMetrics()
	resp, err := http.Get("http://" + httpAddr + "/debug/cluster?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var fleets map[string]fxdist.FleetReport
	err = json.NewDecoder(resp.Body).Decode(&fleets)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /debug/cluster: %v", err)
	}
	cluster, ok := fleets["telemetry-itest"]
	if !ok {
		t.Fatalf("/debug/cluster missing fleet telemetry-itest (have %d fleets)", len(fleets))
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

	// Final pull, then the federation invariant: the merged per-shape
	// counts must equal the sum of the per-node counters, read straight
	// out of each server's private registry.
	if err := coord.PullStats(ctx); err != nil {
		t.Fatalf("final stats pull: %v", err)
	}
	rep = coord.Federator().Report()
	perNode := make(map[string]uint64)
	var perNodeTotal uint64
	for dev, reg := range regs {
		for _, p := range reg.Snapshot() {
			if p.Name != "fxdist_netdist_server_shape_requests_total" {
				continue
			}
			var shape string
			for _, l := range p.Labels {
				if l.Key == "shape" {
					shape = l.Value
				}
			}
			if shape == "" {
				t.Fatalf("device %d: shape counter without shape label", dev)
			}
			perNode[shape] += uint64(p.Value)
			perNodeTotal += uint64(p.Value)
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
	findBound := func() *telemetry.Event {
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
	for _, p := range obs.Default().Snapshot() {
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
	rt, ok := fxdist.RetainedTraceByID(tid)
	if !ok {
		t.Fatalf("trace %d not retained after %d later kept queries", tid, 2*obs.RetainedTraces)
	}
	if rt.Reason != obs.KeepBound {
		t.Errorf("trace %d retained for %q, want %q", tid, rt.Reason, obs.KeepBound)
	}
	// One serving span per device that was asked: the devices holding a
	// qualified bucket, which a bound-violating query leaves fewer than m.
	active := 0
	for _, b := range res.DeviceBuckets {
		if b > 0 {
			active++
		}
	}
	if rt.Root.TraceID != tid || len(rt.Root.Children) != active || active >= m {
		t.Errorf("retained tree: root trace id %d with %d children, want %d with one per active device (%d of %d)",
			rt.Root.TraceID, len(rt.Root.Children), tid, active, m)
	}
}

// TestKeptEventHasRetainedTrace is the joining property of the one keep
// decision: over mixed-shape traffic on the shipped policy, every one of
// the newest kept events resolves to its retained trace tree by trace ID,
// and every tree retained meanwhile belongs to a kept event. Always-keep
// trees left in the process-wide buffer by earlier tests are displaced
// only by newer always-keep trees, so they are counted out of the buffer
// first; this test's own traffic trips no always-keep rule.
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

	pinned := 0
	before := make(map[uint64]bool)
	for _, rt := range fxdist.RetainedTraces(obs.RetainedTraces) {
		before[rt.TraceID] = true
		if rt.Reason != obs.KeepHead && rt.Reason != obs.KeepSample {
			pinned++
		}
	}
	// How many trees earlier tests pin varies from run to run: 33-38 of
	// 64 on a two-core box. The join is checked on whatever room is left,
	// as long as there is a sample.
	room := obs.RetainedTraces - pinned
	if room < obs.RetainedTraces/8 {
		t.Fatalf("%d always-keep trees from earlier tests leave %d of %d slots", pinned, room, obs.RetainedTraces)
	}

	// 4 shapes (every subset of the 2 fields), 1 280 retrievals: 20
	// sampled per shape even when an earlier test used up the heads.
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

	events := fxdist.QueryEvents(cluster.Kind(), kept)
	mine := make(map[uint64]bool, len(events))
	for i, ev := range events {
		mine[ev.TraceID] = true
		if i >= room {
			continue
		}
		rt, ok := fxdist.RetainedTraceByID(ev.TraceID)
		if !ok {
			t.Errorf("kept event %d of the newest %d (trace %d, keep %v) has no retained trace", i, room, ev.TraceID, ev.Keep)
		} else if rt.Reason != ev.Keep[0] {
			t.Errorf("trace %d retained for %q, its event kept for %v", ev.TraceID, rt.Reason, ev.Keep)
		}
	}
	for _, rt := range fxdist.RetainedTraces(obs.RetainedTraces) {
		if !mine[rt.TraceID] && !before[rt.TraceID] {
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

// TestDebugEndpointsServeBothFormats walks the /debug/ index and
// scrapes every endpoint in both renderings: ?format=json must return
// 200 with a valid JSON document, ?format=text must return 200. This is
// the CI telemetry job's in-process half.
func TestDebugEndpointsServeBothFormats(t *testing.T) {
	addr, stop, err := fxdist.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	client := http.Client{Timeout: 10 * time.Second}
	for _, ep := range obs.DebugEndpoints() {
		if ep.Path == "/debug/pprof/" {
			// The pprof mux ignores format params; reachability is enough.
			resp, err := client.Get("http://" + addr + ep.Path)
			if err != nil {
				t.Fatalf("GET %s: %v", ep.Path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s: %s", ep.Path, resp.Status)
			}
			continue
		}
		if ep.Path == "/metrics" {
			continue // Prometheus text only; linted separately below
		}
		if ep.Path == "/debug/profiles/" {
			continue // parameterized download route: 404 without a capture name
		}
		for _, format := range []string{"json", "text"} {
			url := "http://" + addr + ep.Path + "?format=" + format
			resp, err := client.Get(url)
			if err != nil {
				t.Fatalf("GET %s: %v", url, err)
			}
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				t.Errorf("GET %s: %s", url, resp.Status)
				continue
			}
			if format == "json" {
				var doc any
				if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
					t.Errorf("GET %s: invalid JSON: %v", url, err)
				}
			}
			resp.Body.Close()
		}
	}
}

// TestPrometheusHelpTypeLint asserts every sample family in the
// /metrics exposition is preceded by its # HELP and # TYPE headers —
// the lint half of the CI telemetry job.
func TestPrometheusHelpTypeLint(t *testing.T) {
	// Touch a few instruments so the exposition is non-trivial.
	obs.Default().Counter("fxdist_lint_probe_total", "Lint probe.").Inc()
	addr, stop, err := fxdist.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	problems := lintPrometheus(t, resp.Body)
	for _, p := range problems {
		t.Error(p)
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
