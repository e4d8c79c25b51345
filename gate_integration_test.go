package fxdist_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fxdist"
	"fxdist/client"
	"fxdist/internal/gate"
	"fxdist/internal/mempool"
)

// gateFields is the gate tests' relation: generated values read
// "<field>-<k>", k below the cardinality.
var gateFields = []fxdist.FieldSpec{
	{Name: "part", Cardinality: 200},
	{Name: "supplier", Cardinality: 40},
	{Name: "warehouse", Cardinality: 8},
}

// gateFile loads 1 200 records of gateFields and declusters them with FX
// over 8 devices.
func gateFile(t *testing.T) (*fxdist.File, fxdist.GroupAllocator) {
	t.Helper()
	spec := fxdist.RecordSpec{Fields: gateFields}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{4, 3, 2}))
	if err != nil {
		t.Fatal(err)
	}
	records, err := fxdist.GenerateRecords(spec, 1200, 7)
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
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	return file, fx
}

// gateFixture builds a loaded file, an FX allocator, a fresh in-memory
// cluster (empty plan cache) and a Gate over them, served via httptest
// with the observability surface mounted like cmd/fxgate mounts it.
// Released slabs are poisoned for the test: request and response bodies
// on both sides of the HTTP hop are pooled.
func gateFixture(t *testing.T, tenants []gate.TenantConfig, opts ...fxdist.Option) (*fxdist.Cluster, *gate.Gate, *httptest.Server) {
	t.Helper()
	was := mempool.SetPoison(true)
	t.Cleanup(func() { mempool.SetPoison(was) })
	file, fx := gateFile(t)
	cluster, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	g, err := gate.New(gate.Config{
		Cluster:   cluster,
		File:      file,
		Allocator: fx,
		Tenants:   tenants,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	mux := http.NewServeMux()
	mux.Handle("/rpc", g)
	mux.Handle("/debug/", g.DebugHandler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return cluster, g, srv
}

// until polls cond; nothing below reads a clock to decide an outcome.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
	}
}

// TestGateMultiTenantBurst is the gate's multi-tenant acceptance test.
// One query of tenant alpha is held inside the cluster (a fault injector
// hangs its scan of device 0 until its context is cancelled), and a
// burst of 31 same-shape queries from two tenants runs beside it. The
// gate must (a) compile the shape's plan exactly once, (b) answer the
// whole burst while the held query still hangs, one dispatch per query,
// (c) return byte-identical records to every caller, the held one failing
// alone when it is cancelled, and (d) expose per-tenant audit rows at
// /debug/tenants. Runs under -race in CI.
func TestGateMultiTenantBurst(t *testing.T) {
	const (
		perTenant = 16
		n         = 2*perTenant - 1 // the burst; alpha's 16th query is the held one
	)
	tenants := []gate.TenantConfig{
		{Name: "alpha", APIKey: "key-alpha"},
		{Name: "beta", APIKey: "key-beta"},
	}
	inj := fxdist.NewFaultInjector("gate-burst", 1, nil)
	cluster, g, srv := gateFixture(t, tenants, fxdist.WithFaultInjector(inj))

	alpha := client.New(srv.URL+"/rpc", client.WithAPIKey("key-alpha"))
	beta := client.New(srv.URL+"/rpc", client.WithAPIKey("key-beta"))
	defer alpha.Close()
	defer beta.Close()

	query := map[string]string{"supplier": "supplier-3"}

	// The held query: in flight, hanging in device 0.
	inj.Set(0, fxdist.FaultSchedule{Hang: true})
	heldCtx, cancelHeld := context.WithCancel(context.Background())
	heldErr := make(chan error, 1)
	go func() {
		_, err := alpha.Retrieve(heldCtx, query)
		heldErr <- err
	}()
	until(t, "held query hanging in device 0", func() bool {
		for _, d := range inj.Report().Devices {
			if d.Device == 0 && d.Delayed == 1 {
				return true
			}
		}
		return false
	})
	inj.Clear(0) // the held query already took the schedule; the burst runs free

	results := make([]*client.RetrieveResult, n)
	errs := make([]error, n)
	var done sync.WaitGroup
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			c := alpha
			if i >= perTenant-1 {
				c = beta
			}
			results[i], errs[i] = c.Retrieve(context.Background(), query)
		}(i)
	}
	done.Wait() // (b) nobody waits for the held query
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if rep := g.Report(); rep.Batches != n+1 {
		t.Fatalf("batches = %d with the held query in flight, want one per query (%d)", rep.Batches, n+1)
	}
	cancelHeld()
	if err := <-heldErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled held query: %v", err)
	}
	// Every handler has returned (the held one's notices its cancellation
	// on its own time), so every audit row is final.
	until(t, "no request in flight", func() bool {
		for _, row := range g.Report().Tenants {
			if row.InFlight != 0 {
				return false
			}
		}
		return true
	})

	// (a) one plan-cache compilation across both tenants.
	if pc := cluster.PlanCache(); pc.Misses != 1 {
		t.Fatalf("plan cache misses = %d, want exactly 1 (shape compiled once across tenants)", pc.Misses)
	}

	// (c) byte-identical per-tenant results ...
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[i].Records, results[0].Records) {
			t.Fatalf("request %d records diverge from request 0", i)
		}
		if !reflect.DeepEqual(results[i].DeviceBuckets, results[0].DeviceBuckets) {
			t.Fatalf("request %d device buckets diverge", i)
		}
	}
	// ... and identical to a retrieval straight from the cluster.
	pm, err := cluster.Spec(query)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := cluster.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Records) != len(results[0].Records) {
		t.Fatalf("gate result has %d records, direct retrieval %d",
			len(results[0].Records), len(direct.Records))
	}

	// (d) per-tenant audit rows on /debug/tenants.
	res, err := http.Get(srv.URL + "/debug/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/debug/tenants status %d", res.StatusCode)
	}
	var doc gate.Report
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Tenants) != 2 {
		t.Fatalf("tenant rows = %d, want 2", len(doc.Tenants))
	}
	for _, row := range doc.Tenants {
		// alpha's 16th is the held query: it failed, as cancelled.
		failed := uint64(0)
		if row.Name == "alpha" {
			failed = 1
		}
		if row.Requests != perTenant || row.Errors != failed {
			t.Fatalf("tenant %s requests = %d errors = %d, want %d and %d", row.Name, row.Requests, row.Errors, perTenant, failed)
		}
		if len(row.Shapes) != 1 || row.Shapes[0].Shape != "*s*" {
			t.Fatalf("tenant %s shape rows = %+v, want one *s* row", row.Name, row.Shapes)
		}
		if row.Shapes[0].Queries != perTenant {
			t.Fatalf("tenant %s shape queries = %d, want %d", row.Name, row.Shapes[0].Queries, perTenant)
		}
	}

	// The engine's wide events carry the tenant dimension for both. Which
	// of the burst's were kept depends on the shape's process-wide sample
	// counter, so the check does not: alpha's cancelled query is kept as
	// an error, and of any 16 consecutive queries of a shape (the sampler's
	// 1-in-16) one is kept — beta sends 16, one after the other.
	for i := 0; i < 16; i++ {
		if _, err := beta.Retrieve(context.Background(), query); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, ev := range cluster.QueryEvents(512) {
		if ev.Tenant != "" {
			seen[ev.Tenant] = true
		}
	}
	if !seen["alpha"] || !seen["beta"] {
		t.Fatalf("wide events missing tenant attribution: %v", seen)
	}
}

// TestGateQuotaIsolation pins the admission story: a rate-limited
// tenant hitting its budget gets 429 with a Retry-After hint while a
// second tenant on the same gate stays unaffected.
func TestGateQuotaIsolation(t *testing.T) {
	tenants := []gate.TenantConfig{
		{Name: "small", APIKey: "key-small", RatePerSec: 0.01, Burst: 1},
		{Name: "big", APIKey: "key-big"},
	}
	_, _, srv := gateFixture(t, tenants)

	small := client.New(srv.URL+"/rpc", client.WithAPIKey("key-small"))
	big := client.New(srv.URL+"/rpc", client.WithAPIKey("key-big"))
	defer small.Close()
	defer big.Close()

	ctx := context.Background()
	query := map[string]string{"warehouse": "warehouse-1"}
	if _, err := small.Retrieve(ctx, query); err != nil {
		t.Fatalf("first request within burst should pass: %v", err)
	}
	_, err := small.Retrieve(ctx, query)
	var fe *fxdist.Error
	if !errors.As(err, &fe) {
		t.Fatalf("want *fxdist.Error, got %T: %v", err, err)
	}
	if fe.Code != fxdist.ErrCodeRateLimited {
		t.Fatalf("code = %s, want %s", fe.Code, fxdist.ErrCodeRateLimited)
	}
	if fe.RetryAfter <= 0 {
		t.Fatal("rate-limited rejection carries no Retry-After hint")
	}

	// The rejection also rides the HTTP layer: 429 plus Retry-After.
	body := `{"jsonrpc":"2.0","id":9,"method":"fx.retrieve","params":{"query":{"warehouse":"warehouse-1"}}}`
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/rpc", jsonBody(body))
	req.Header.Set("Authorization", "Bearer key-small")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP status = %d, want 429", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}

	// The other tenant is untouched.
	for i := 0; i < 3; i++ {
		if _, err := big.Retrieve(ctx, query); err != nil {
			t.Fatalf("unaffected tenant rejected: %v", err)
		}
	}

	// Unknown keys stay out entirely.
	nobody := client.New(srv.URL+"/rpc", client.WithAPIKey("wrong"))
	defer nobody.Close()
	_, err = nobody.Retrieve(ctx, query)
	if !errors.As(err, &fe) || fe.Code != fxdist.ErrCodeUnauthorized {
		t.Fatalf("want unauthorized, got %v", err)
	}
}

// TestGateMethodSurface walks the non-retrieve methods end to end:
// fx.explain (shape, |R(q)|, bound, exact loads, plan-cache residency)
// and fx.health, plus unknown-method classification.
func TestGateMethodSurface(t *testing.T) {
	tenants := []gate.TenantConfig{{Name: "solo", APIKey: "key-solo"}}
	cluster, _, srv := gateFixture(t, tenants)

	c := client.New(srv.URL+"/rpc", client.WithAPIKey("key-solo"))
	defer c.Close()
	ctx := context.Background()

	query := map[string]string{"supplier": "supplier-5"}
	ex, err := c.Explain(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Shape != "*s*" {
		t.Fatalf("shape = %q, want *s*", ex.Shape)
	}
	if ex.M != cluster.M() || ex.RQ <= 0 || ex.Bound != (ex.RQ+ex.M-1)/ex.M {
		t.Fatalf("explain invariants broken: %+v", ex)
	}
	if len(ex.DeviceLoads) != ex.M {
		t.Fatalf("device loads = %v, want %d entries", ex.DeviceLoads, ex.M)
	}
	if ex.PlanCached {
		t.Fatal("plan reported cached before any retrieval")
	}
	if _, err := c.Retrieve(ctx, query); err != nil {
		t.Fatal(err)
	}
	ex, err = c.Explain(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.PlanCached {
		t.Fatal("plan not reported cached after retrieval")
	}

	// Every shape of the fixture: fx.explain's |R(q)| and bound are the
	// retrieval's own — the plan the cluster compiled for the shape — and
	// its loads are the buckets the devices then report.
	values := map[string]string{"part": "part-1", "supplier": "supplier-5", "warehouse": "warehouse-1"}
	for mask := 0; mask < 1<<len(gateFields); mask++ {
		shaped := map[string]string{}
		for i, f := range gateFields {
			if mask&(1<<i) == 0 {
				shaped[f.Name] = values[f.Name]
			}
		}
		ex, err := c.Explain(ctx, shaped)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Retrieve(ctx, shaped)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ex.DeviceLoads, res.DeviceBuckets) {
			t.Fatalf("%s: explain loads %v, retrieval's device buckets %v", ex.Shape, ex.DeviceLoads, res.DeviceBuckets)
		}
		found := false
		for _, plan := range cluster.PlanCache().Plans {
			if plan.Shape == ex.Shape {
				found = true
				if ex.RQ != plan.RQ || ex.Bound != plan.Bound {
					t.Fatalf("%s: explain r_q %d bound %d, the retrieval's plan %d / %d", ex.Shape, ex.RQ, ex.Bound, plan.RQ, plan.Bound)
				}
			}
		}
		if !found {
			t.Fatalf("%s: no plan resident after a retrieval of the shape", ex.Shape)
		}
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Backend != cluster.Kind() || h.M != cluster.M() {
		t.Fatalf("health = %+v", h)
	}
	if h.APIVersion != client.APIVersion {
		t.Fatalf("api version = %q, want %q", h.APIVersion, client.APIVersion)
	}

	// Batch method: mixed valid and invalid queries demux per item.
	batch, err := c.RetrieveBatch(ctx, []map[string]string{
		{"supplier": "supplier-5"},
		{"no_such_field": "x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Items) != 2 {
		t.Fatalf("items = %d, want 2", len(batch.Items))
	}
	if batch.Items[0].Result == nil || batch.Items[0].Error != nil {
		t.Fatalf("item 0 should succeed: %+v", batch.Items[0])
	}
	if batch.Items[1].Error == nil ||
		batch.Items[1].Error.Err().Code != fxdist.ErrCodeInvalidQuery {
		t.Fatalf("item 1 should fail invalid_query: %+v", batch.Items[1])
	}

	// Batch params that do not parse are refused as invalid_query (they
	// are decoded once, ahead of admission, to price the frame).
	var fe *fxdist.Error
	err = rawCall(srv.URL+"/rpc", "key-solo", client.MethodRetrieveBatch, map[string]any{"queries": 5}, nil)
	if !errors.As(err, &fe) || fe.Code != fxdist.ErrCodeInvalidQuery || !strings.Contains(fe.Message, "malformed params") {
		t.Fatalf("malformed batch params: %v, want invalid_query", err)
	}

	// Unknown method comes back as the taxonomy's unknown_method.
	var out json.RawMessage
	err = rawCall(srv.URL+"/rpc", "key-solo", "fx.nope", nil, &out)
	if !errors.As(err, &fe) || fe.Code != fxdist.ErrCodeUnknownMethod {
		t.Fatalf("want unknown_method, got %v", err)
	}
}

// rawCall drives one JSON-RPC frame outside the typed client.
func rawCall(endpoint, key, method string, params any, out any) error {
	var raw json.RawMessage
	if params != nil {
		b, err := json.Marshal(params)
		if err != nil {
			return err
		}
		raw = b
	}
	frame, err := json.Marshal(client.Request{JSONRPC: "2.0", ID: json.RawMessage("1"), Method: method, Params: raw})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, endpoint, jsonBody(string(frame)))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	var rpc client.Response
	if err := json.NewDecoder(res.Body).Decode(&rpc); err != nil {
		return err
	}
	if rpc.Error != nil {
		return rpc.Error.Err()
	}
	if out != nil {
		return json.Unmarshal(rpc.Result, out)
	}
	return nil
}

func jsonBody(s string) io.Reader { return strings.NewReader(s) }

// poolPuts reads one pool's accepted Puts off the /debug/mempool report.
func poolPuts(name string) uint64 {
	for _, p := range mempool.Report() {
		if p.Name == name {
			return p.Puts
		}
	}
	return 0
}

// TestGateGivesBackWhatTheClusterLent drives a gate over the distributed
// backend, where every record of an answer aliases a pooled wire frame
// until the gate releases it, with released frames poisoned: a release
// one statement early — before the encoded bytes are written — or a
// record read after it turns an answer into 0xDB and fails the digest
// against File.Search. The pool counters pin the other direction: every
// frame and header slab a device lent is given back.
func TestGateGivesBackWhatTheClusterLent(t *testing.T) {
	defer mempool.SetPoison(mempool.SetPoison(true))
	file, fx := gateFile(t)
	addrs, stop, err := fxdist.DeployLocal(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cluster, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	g, err := gate.New(gate.Config{Cluster: cluster, File: file, Allocator: fx,
		Tenants: []gate.TenantConfig{{Name: "t", APIKey: "k"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srv := httptest.NewServer(g)
	defer srv.Close()
	cl := client.New(srv.URL, client.WithAPIKey("k"))
	defer cl.Close()

	// 200 different scans, one field specified each, and what File.Search
	// says of them: the digest, and how many devices hold a match.
	queries := make([]map[string]string, 200)
	wants := make([]uint64, len(queries))
	lent := make([]uint64, len(queries))
	for i := range queries {
		f := gateFields[i%3]
		queries[i] = map[string]string{f.Name: fmt.Sprintf("%s-%d", f.Name, i%f.Cardinality)}
		pm, err := file.Spec(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		recs, err := file.Search(pm)
		if err != nil {
			t.Fatal(err)
		}
		devs := map[int]bool{}
		for _, r := range recs {
			coords, err := file.BucketOf(r)
			if err != nil {
				t.Fatal(err)
			}
			devs[fx.Device(coords)] = true
		}
		wants[i], lent[i] = recordsDigest(recs), uint64(len(devs))
	}

	frames, fields := poolPuts("frames"), poolPuts("netdist.fields")
	var wantLent uint64
	for i, q := range queries {
		res, err := cl.Retrieve(context.Background(), q)
		if err != nil {
			t.Fatalf("fx.retrieve %v: %v", q, err)
		}
		if recordsDigest(res.Records) != wants[i] {
			t.Fatalf("fx.retrieve %v: %d records that are not File.Search's", q, len(res.Records))
		}
		wantLent += lent[i]
	}
	if wantLent == 0 {
		t.Fatal("no query matched a record")
	}
	// The handler gives back after the client has its answer: wait for it.
	// Every device with a match lent one header slab and one frame; the
	// frame pool also sees each hop's own buffers, so it only has a floor.
	until(t, "every lent header slab given back", func() bool { return poolPuts("netdist.fields")-fields >= wantLent })
	if got := poolPuts("netdist.fields") - fields; got != wantLent {
		t.Fatalf("%d header slabs given back, the devices lent %d", got, wantLent)
	}
	if got := poolPuts("frames") - frames; got < wantLent {
		t.Fatalf("%d frames put back over %d lent", got, wantLent)
	}

	batch, err := cl.RetrieveBatch(context.Background(), queries[:24])
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range batch.Items {
		if item.Error != nil || recordsDigest(item.Result.Records) != wants[i] {
			t.Fatalf("fx.retrieveBatch item %d (%v): error %v, or not File.Search's records", i, queries[i], item.Error)
		}
	}

	var envelope []client.Request
	for i, q := range queries[:24] {
		params, err := json.Marshal(client.RetrieveParams{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		envelope = append(envelope, client.Request{JSONRPC: "2.0", ID: json.RawMessage(fmt.Sprint(i)), Method: client.MethodRetrieve, Params: params})
	}
	body, err := json.Marshal(envelope)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL, jsonBody(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer k")
	hres, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var answers []client.Response
	if err := json.NewDecoder(hres.Body).Decode(&answers); err != nil || len(answers) != len(envelope) {
		t.Fatalf("batch envelope: %d answers, %v", len(answers), err)
	}
	for i, a := range answers {
		var res client.RetrieveResult
		if a.Error != nil {
			t.Fatalf("envelope frame %d: %v", i, a.Error)
		}
		if err := json.Unmarshal(a.Result, &res); err != nil || recordsDigest(res.Records) != wants[i] {
			t.Fatalf("envelope frame %d (%v): %v, or not File.Search's records", i, queries[i], err)
		}
	}
}

// TestGateGivesBackADegradedAnswer drives a gate over the distributed
// backend with partial results on and device 0 partitioned. A query with
// buckets on device 0 degrades: its error is the answer the caller sees,
// and its result still holds what the surviving devices lent. The gate
// must give that back too, on fx.retrieve and on fx.retrieveBatch: every
// header slab a surviving device lent comes home, and its frame with it.
func TestGateGivesBackADegradedAnswer(t *testing.T) {
	file, fx := gateFile(t)
	addrs, stop, err := fxdist.DeployLocal(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	in := fxdist.NewFaultInjector("gate-degraded", 1, map[int]fxdist.FaultSchedule{0: {Partition: true}})
	cluster, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs},
		fxdist.WithRetryBudget(2, time.Millisecond, time.Millisecond), fxdist.WithPartialResults(), fxdist.WithFaultInjector(in))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	g, err := gate.New(gate.Config{Cluster: cluster, File: file, Allocator: fx,
		Tenants: []gate.TenantConfig{{Name: "t", APIKey: "k"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srv := httptest.NewServer(g)
	defer srv.Close()
	cl := client.New(srv.URL, client.WithAPIKey("k"))
	defer cl.Close()

	// 4 queries, one field specified each, and how many devices other
	// than device 0 hold a match: each lends one header slab and frame.
	queries := make([]map[string]string, 4)
	var wantLent uint64
	for i := range queries {
		f := gateFields[i%3]
		queries[i] = map[string]string{f.Name: fmt.Sprintf("%s-%d", f.Name, i%f.Cardinality)}
		pm, err := file.Spec(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		recs, err := file.Search(pm)
		if err != nil {
			t.Fatal(err)
		}
		devs := map[int]bool{}
		for _, r := range recs {
			coords, err := file.BucketOf(r)
			if err != nil {
				t.Fatal(err)
			}
			if dev := fx.Device(coords); dev != 0 {
				devs[dev] = true
			}
		}
		wantLent += uint64(len(devs))
	}

	frames, fields := poolPuts("frames"), poolPuts("netdist.fields")
	degraded := 0
	for _, q := range queries {
		if _, err := cl.Retrieve(context.Background(), q); err != nil {
			degraded++
		}
	}
	batch, err := cl.RetrieveBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range batch.Items {
		if item.Error != nil {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("no query touched device 0: nothing degraded")
	}
	wantLent *= 2 // once through fx.retrieve, once through fx.retrieveBatch
	until(t, "every lent header slab given back", func() bool { return poolPuts("netdist.fields")-fields >= wantLent })
	if got := poolPuts("netdist.fields") - fields; got != wantLent {
		t.Fatalf("%d header slabs given back, the surviving devices lent %d", got, wantLent)
	}
	if got := poolPuts("frames") - frames; got < wantLent {
		t.Fatalf("%d frames put back over %d lent", got, wantLent)
	}
}
