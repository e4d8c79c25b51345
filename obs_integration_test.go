package fxdist_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"fxdist"
)

// scrapeMetrics GETs url and parses the Prometheus text exposition into
// a map keyed by the full series name (labels included).
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("scrape %s: status %d", url, resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	return out
}

// TestMetricsScrapeDuringDistributedRetrieve drives the full stack —
// durable cluster retrieve, replicated distributed retrieve, one server
// death — and asserts each cluster's own /metrics scrape reflects each
// of them, in absolute counts: per-device latency histograms, the live
// load-imbalance gauge, and the failover counter for the killed device.
func TestMetricsScrapeDuringDistributedRetrieve(t *testing.T) {
	file := buildTestFile(t)
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := file.Spec(map[string]string{"b": "b-3"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := file.Search(pm)
	if err != nil {
		t.Fatal(err)
	}

	// Durable cluster retrieve feeds the storage latency histogram and
	// the load-imbalance gauge.
	dc, err := fxdist.Open(fxdist.Config{Dir: t.TempDir(), File: file, Allocator: fx},
		fxdist.WithCostModel(fxdist.ParallelDisk))
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	if _, err := dc.Retrieve(pm); err != nil {
		t.Fatal(err)
	}
	durableSrv := httptest.NewServer(dc.DebugHandler())
	defer durableSrv.Close()
	durable := scrapeMetrics(t, durableSrv.URL+"/metrics")
	if v := durable[`fxdist_storage_load_imbalance_ratio{cluster="durable"}`]; v < 1 {
		t.Errorf("load-imbalance gauge = %g, want >= 1", v)
	}
	if n := durable[`fxdist_storage_retrieve_seconds_count{cluster="durable"}`]; n != 1 {
		t.Errorf("durable retrieve latency histogram counted %g retrievals, want 1", n)
	}
	if n := durable[`fxdist_pagestore_opens_total`]; n != 4 {
		t.Errorf("fxdist_pagestore_opens_total = %g, want one per device log (4)", n)
	}

	// Deploy replicated servers individually so one can be killed.
	spec, err := fxdist.DescribeAllocator(fx)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := fxdist.PartitionFile(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	const m = 4
	servers := make([]*fxdist.DeviceServer, m)
	addrs := make([]string, m)
	for dev := 0; dev < m; dev++ {
		prev := (dev + m - 1) % m
		s, err := fxdist.NewReplicatedDeviceServer(dev, spec, parts[dev], parts[prev])
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[dev] = s
		addrs[dev] = l.Addr().String()
		go s.Serve(l) //nolint:errcheck
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	coord, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs},
		fxdist.WithDialTimeout(5*time.Second), fxdist.WithFailover())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// A second handle without failover tells when the death is noticed.
	plain, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs},
		fxdist.WithDialTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	got, err := coord.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want) {
		t.Fatalf("healthy retrieve %d records, want %d", len(got.Records), len(want))
	}

	// The coordinator's trace id rode the wire to every device server, so
	// the query's spans stitch into one tree: coordinator root, one serve
	// child per device.
	if got.TraceID == 0 {
		t.Fatal("retrieve result carries no trace id")
	}
	var tree *fxdist.TraceTree
	trees := fxdist.RecentTraceTrees(256)
	for i := range trees {
		if trees[i].ID == got.TraceID {
			tree = &trees[i]
			break
		}
	}
	if tree == nil {
		t.Fatalf("no span tree for trace %d in recent traces", got.TraceID)
	}
	if tree.Name != "netdist.retrieve-failover" {
		t.Errorf("trace root = %q, want netdist.retrieve-failover", tree.Name)
	}
	if len(tree.Children) != m {
		t.Fatalf("trace %d has %d child spans, want one per device (%d): %+v",
			got.TraceID, len(tree.Children), m, tree.Children)
	}
	for _, c := range tree.Children {
		if c.Name != "netdist.serve" {
			t.Errorf("child span = %q, want netdist.serve", c.Name)
		}
		if c.TraceID != tree.ID || c.Parent != tree.ID {
			t.Errorf("child %d trace=%d parent=%d, want both %d", c.ID, c.TraceID, c.Parent, tree.ID)
		}
	}

	// Each device request's success is one event on either side of the
	// wire, rendered from its operands when the span is snapshotted — in
	// the text the spans have always carried, here and in a flight record.
	coordMsg := regexp.MustCompile(`^device \d \(127\.0\.0\.1:\d+\) req \d+: \d+ buckets, \d+ records in [0-9.]+(ns|µs|ms|s)$`)
	serveMsg := regexp.MustCompile(`^device \d req \d+: \d+ buckets, \d+ records$`)
	if len(tree.Events) != m {
		t.Errorf("root span has %d events, want one reply per device: %+v", len(tree.Events), tree.Events)
	}
	for _, ev := range tree.Events {
		if !coordMsg.MatchString(ev.Msg) {
			t.Errorf("coordinator event %q does not match %s", ev.Msg, coordMsg)
		}
	}
	for _, c := range tree.Children {
		if len(c.Events) != 1 || !serveMsg.MatchString(c.Events[0].Msg) {
			t.Errorf("serve span events %+v, want one matching %s", c.Events, serveMsg)
		}
	}
	flightEvents := 0
	for _, sh := range coord.FlightReport().Shapes {
		for _, r := range sh.Records {
			for _, ev := range r.Events {
				if !strings.HasPrefix(ev.Msg, "device ") {
					continue // an earlier test's failover or error annotation
				}
				flightEvents++
				if !coordMsg.MatchString(ev.Msg) {
					t.Errorf("flight event %q does not match %s", ev.Msg, coordMsg)
				}
			}
		}
	}
	if flightEvents == 0 {
		t.Error("no flight record carries a retrieval span's reply events")
	}

	coordSrv := httptest.NewServer(coord.DebugHandler())
	defer coordSrv.Close()
	before := scrapeMetrics(t, coordSrv.URL+"/metrics")
	for dev := 0; dev < m; dev++ {
		key := `fxdist_netdist_coordinator_device_request_seconds_count{device="` + strconv.Itoa(dev) + `"}`
		if before[key] == 0 {
			t.Errorf("per-device latency histogram empty: %s", key)
		}
	}
	failKey := `fxdist_netdist_coordinator_failovers_total{device="2"}`
	if n := before[failKey]; n != 0 {
		t.Errorf("%s = %g before any server died", failKey, n)
	}

	// Kill device 2's server and wait for the coordinator to notice.
	servers[2].Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := plain.Retrieve(pm); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("plain retrieve kept succeeding after server death")
		}
		time.Sleep(10 * time.Millisecond)
	}
	got, err = coord.Retrieve(pm)
	if err != nil {
		t.Fatalf("failover retrieve: %v", err)
	}
	if len(got.Records) != len(want) {
		t.Fatalf("failover retrieve %d records, want %d", len(got.Records), len(want))
	}

	after := scrapeMetrics(t, coordSrv.URL+"/metrics")
	if after[failKey] < 1 {
		t.Errorf("failover counter %s = %g after device 2 died, want >= 1", failKey, after[failKey])
	}
	if n := after[`fxdist_netdist_coordinator_retrieves_total`]; n != 2 {
		t.Errorf("coordinator retrieve counter = %g, want this cluster's 2 retrievals", n)
	}

	// The failover fan-out also leaves a trace span correlating the
	// coordinator's view of the query.
	spans := fxdist.RecentTraces(64)
	var sawFailover bool
	for _, sp := range spans {
		if sp.Name == "netdist.retrieve-failover" {
			sawFailover = true
			break
		}
	}
	if !sawFailover {
		t.Error("no netdist.retrieve-failover span in recent traces")
	}

	// The failover cluster's optimality audit is served on its handler.
	// CI uploads this JSON as a build artifact when AUDIT_JSON names a
	// destination.
	resp, err := http.Get(coordSrv.URL + "/debug/optimality")
	if err != nil {
		t.Fatalf("GET /debug/optimality: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read /debug/optimality: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET /debug/optimality: status %d", resp.StatusCode)
	}
	var audits []fxdist.BackendAudit
	if err := json.Unmarshal(raw, &audits); err != nil {
		t.Fatalf("/debug/optimality is not audit JSON: %v\n%s", err, raw)
	}
	var netdist *fxdist.BackendAudit
	for i := range audits {
		if audits[i].Backend == "netdist" {
			netdist = &audits[i]
		}
	}
	if netdist == nil || len(netdist.Shapes) == 0 {
		t.Fatalf("/debug/optimality has no netdist shapes: %s", raw)
	}
	var audited uint64
	for _, s := range netdist.Shapes {
		audited += s.Queries
	}
	if audited < 2 {
		t.Errorf("netdist audit saw %d queries, want >= 2 (healthy + failover)", audited)
	}
	if path := os.Getenv("AUDIT_JSON"); path != "" {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatalf("write AUDIT_JSON: %v", err)
		}
		t.Logf("optimality audit written to %s", path)
	}
}
