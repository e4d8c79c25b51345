package gate

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fxdist"
	"fxdist/client"
)

// None of these tests reads a clock to decide what happened: a query is
// held inside the cluster by a fault injector that hangs device 0 until
// the holder's context is cancelled, and every "has it happened yet" is
// a poll of a counter the injector publishes.

// heldGate is a gate (tenants "solo" and "duo") over a small loaded
// cluster — in memory, or served by local device servers over the wire —
// with an idle fault injector at its device seam.
type heldGate struct {
	*Gate
	file *fxdist.File
	inj  *fxdist.FaultInjector
}

// retrieve and retrieveBatch serve each call in memory of its own, as
// ServeHTTP does a batch envelope's frames after the first.
func (h *heldGate) retrieve(ctx context.Context, t *tenant, pm fxdist.PartialMatch) (fxdist.RetrieveResult, error) {
	return h.Gate.retrieve(ctx, t, pm, new(request))
}

func (h *heldGate) retrieveBatch(ctx context.Context, t *tenant, pms []fxdist.PartialMatch) ([]fxdist.RetrieveResult, []error) {
	return h.Gate.retrieveBatch(ctx, t, pms, new(request))
}

func newHeldGate(t *testing.T) *heldGate { return heldGateOver(t, 400, false) }

// heldGateOver is newHeldGate over n records, on the wire if wire is set.
func heldGateOver(t *testing.T, n int, wire bool) *heldGate {
	t.Helper()
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "part", Cardinality: 40}, {Name: "supplier", Cardinality: 8}, {Name: "note", Cardinality: 4}}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{3, 2, 1}))
	if err != nil {
		t.Fatal(err)
	}
	records, err := fxdist.GenerateRecords(spec, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := file.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fxdist.Config{File: file, Allocator: fx}
	if wire {
		addrs, stop, err := fxdist.DeployLocal(file, fx)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(stop)
		cfg = fxdist.Config{File: file, Addrs: addrs}
	}
	inj := fxdist.NewFaultInjector("gate-hold", 1, nil)
	cluster, err := fxdist.Open(cfg, fxdist.WithFaultInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	g, err := New(Config{Cluster: cluster, File: file, Allocator: fx,
		Tenants: []TenantConfig{{Name: "solo", APIKey: "k"}, {Name: "duo", APIKey: "k2"}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return &heldGate{g, file, inj}
}

func (h *heldGate) tenant(name string) *tenant { return h.tenants.byName[name] }

// query compiles a map-form query that leaves part unspecified, so its
// buckets lie on every device — device 0 included.
func (h *heldGate) query(t *testing.T, q map[string]string) fxdist.PartialMatch {
	t.Helper()
	if _, named := q["part"]; named {
		t.Fatalf("query %v names part: it may miss device 0 and cannot be held", q)
	}
	pm, err := h.file.Spec(q)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

// want is the reference answer: the file's own search, as sorted lines.
func (h *heldGate) want(t *testing.T, pm fxdist.PartialMatch) []string {
	t.Helper()
	recs, err := h.file.Search(pm)
	if err != nil {
		t.Fatal(err)
	}
	return lines(recs)
}

func lines[R ~[]string](recs []R) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(out)
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
	}
}

func (h *heldGate) hung() uint64 {
	for _, d := range h.inj.Report().Devices {
		if d.Device == 0 {
			return d.Delayed
		}
	}
	return 0
}

// hold parks a query of pm inside the cluster — its scan of device 0
// hangs — and returns once it is there. release cancels it, and it must
// fail as cancelled.
func (h *heldGate) hold(t *testing.T, pm fxdist.PartialMatch) (release func()) {
	t.Helper()
	before := h.hung()
	h.inj.Set(0, fxdist.FaultSchedule{Hang: true})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := h.retrieve(ctx, h.tenant("solo"), pm)
		done <- err
	}()
	waitFor(t, "query hanging in device 0", func() bool { return h.hung() > before })
	h.inj.Clear(0) // the held query already took the schedule; everyone after it runs free
	return func() {
		t.Helper()
		cancel()
		if err := <-done; !failedAs(err, fxdist.ErrCodeCanceled, "") {
			t.Errorf("released query: %v, want canceled", err)
		}
	}
}

// failedAs reports whether err classifies to code with msg in its text.
func failedAs(err error, code fxdist.ErrorCode, msg string) bool {
	fe := fxdist.Classify(err)
	return fe != nil && fe.Code == code && strings.Contains(fe.Message, msg)
}

// TestGateLoneCaller: a query is one dispatch of its own, at once.
func TestGateLoneCaller(t *testing.T) {
	h := newHeldGate(t)
	srv := httptest.NewServer(h.Gate)
	defer srv.Close()
	c := client.New(srv.URL, client.WithAPIKey("k"))
	defer c.Close()
	res, err := c.Retrieve(context.Background(), map[string]string{"supplier": "supplier-3"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lines(res.Records), h.want(t, h.query(t, map[string]string{"supplier": "supplier-3"})); !slices.Equal(got, want) {
		t.Fatalf("%d records, File.Search has %d", len(got), len(want))
	}
	if rep := h.Report(); rep.Batches != 1 || rep.DirectBatches != 0 {
		t.Fatalf("report = %+v, want 1 dispatch, none of it an explicit batch", rep)
	}
}

// TestGateCancelledWaiter: a caller that gives up fails alone. Its query
// hangs in device 0 until it is cancelled; same-shape neighbours of
// both tenants, sent meanwhile, are answered while it still hangs, each
// with its own query's records and in a dispatch of its own.
func TestGateCancelledWaiter(t *testing.T) {
	h := newHeldGate(t)
	release := h.hold(t, h.query(t, map[string]string{"supplier": "supplier-0"}))
	tenants := []string{"solo", "duo", "duo"}
	res := make([]fxdist.RetrieveResult, len(tenants))
	errs := make([]error, len(tenants))
	pms := make([]fxdist.PartialMatch, len(tenants))
	var wg sync.WaitGroup
	for i, name := range tenants {
		pms[i] = h.query(t, map[string]string{"supplier": fmt.Sprint("supplier-", i+1)})
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = h.retrieve(context.Background(), h.tenant(name), pms[i])
		}()
	}
	wg.Wait() // the held query is still hanging: nobody waited for it
	for i := range tenants {
		if errs[i] != nil {
			t.Fatalf("neighbour %d of a held query: %v", i, errs[i])
		}
		if got, want := lines(res[i].Records), h.want(t, pms[i]); !slices.Equal(got, want) {
			t.Fatalf("neighbour %d got %d records, its own query has %d", i, len(got), len(want))
		}
	}
	release()
	if rep := h.Report(); rep.Batches != 1+uint64(len(tenants)) {
		t.Fatalf("%d dispatches, want one per query (%d)", rep.Batches, 1+len(tenants))
	}
}

// TestGateCloseRefusesNewRetrievals: after Close every retrieval —
// fx.retrieve and fx.retrieveBatch, and over HTTP a 429 — is refused as
// overloaded, "gate shutting down", while one dispatched before Close
// completes with its own answer.
func TestGateCloseRefusesNewRetrievals(t *testing.T) {
	h := newHeldGate(t)
	pm := h.query(t, map[string]string{"supplier": "supplier-5"})
	// In flight at Close: slowed in device 0, not hung. On a box slower
	// than the delay it may finish before Close; every check still holds.
	hung := h.hung()
	h.inj.Set(0, fxdist.FaultSchedule{Latency: 150 * time.Millisecond})
	var inFlight fxdist.RetrieveResult
	var inFlightErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		inFlight, inFlightErr = h.retrieve(context.Background(), h.tenant("duo"), pm)
	}()
	waitFor(t, "query inside device 0", func() bool { return h.hung() > hung })
	h.inj.Clear(0)

	h.Close()

	if _, err := h.retrieve(context.Background(), h.tenant("solo"), pm); !failedAs(err, fxdist.ErrCodeOverloaded, "gate shutting down") {
		t.Fatalf("fx.retrieve after Close: %v", err)
	}
	if _, errs := h.retrieveBatch(context.Background(), h.tenant("solo"), []fxdist.PartialMatch{pm, pm}); len(errs) != 2 ||
		!failedAs(errs[0], fxdist.ErrCodeOverloaded, "gate shutting down") || !failedAs(errs[1], fxdist.ErrCodeOverloaded, "gate shutting down") {
		t.Fatalf("fx.retrieveBatch after Close: %v", errs)
	}
	req := httptest.NewRequest(http.MethodPost, "/rpc", strings.NewReader(
		`{"jsonrpc":"2.0","id":1,"method":"fx.retrieve","params":{"query":{"supplier":"supplier-5"}}}`))
	req.Header.Set("Authorization", "Bearer k")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests || !strings.Contains(rec.Body.String(), "gate shutting down") {
		t.Fatalf("HTTP after Close: %d %s", rec.Code, rec.Body)
	}
	if n := h.tenant("solo").series.rejected[burn].value(); n != 0 {
		t.Fatalf("a refusal after Close counted as %d burn rejections", n)
	}

	<-done
	if inFlightErr != nil || !slices.Equal(lines(inFlight.Records), h.want(t, pm)) {
		t.Fatalf("retrieval in flight at Close: err %v, %d records", inFlightErr, len(inFlight.Records))
	}
	if rep := h.Report(); rep.Batches != 1 {
		t.Fatalf("%d dispatches, want only the one made before Close", rep.Batches)
	}
}

// TestGateDemuxProperty: whatever the tenant, the queries, their shapes
// and their order, every query of an explicit fx.retrieveBatch gets its
// own outcome: File.Search's records or, with device 0 partitioned, an
// error exactly when its buckets reach device 0 — splitBatchError puts
// each failure on its own query. A batch is one dispatch, and its
// tenant's error count grows by its failures. Seeded.
func TestGateDemuxProperty(t *testing.T) {
	h := newHeldGate(t)
	rng := rand.New(rand.NewSource(17))
	random := func() fxdist.PartialMatch {
		q := map[string]string{}
		for _, f := range []struct {
			name string
			card int
		}{{"part", 40}, {"supplier", 8}, {"note", 4}} {
			if rng.Intn(2) == 0 {
				q[f.name] = fmt.Sprintf("%s-%d", f.name, rng.Intn(f.card))
			}
		}
		pm, err := h.file.Spec(q)
		if err != nil {
			t.Fatal(err)
		}
		return pm
	}
	onDevice0 := func(pm fxdist.PartialMatch) bool {
		q, err := h.file.BucketQuery(pm)
		if err != nil {
			t.Fatal(err)
		}
		return fxdist.Loads(h.cfg.Allocator, q)[0] > 0
	}
	tenants := []string{"solo", "duo"}
	var failed, survived int
	for round := 0; round < 24; round++ {
		partitioned := round%2 == 1
		if partitioned {
			h.inj.Set(0, fxdist.FaultSchedule{Partition: true})
		} else {
			h.inj.Clear(0)
		}
		pms := make([]fxdist.PartialMatch, 1+rng.Intn(12))
		for i := range pms {
			pms[i] = random()
		}
		tn := h.tenant(tenants[rng.Intn(2)])
		before, tenantErrs := h.Report(), tn.errors
		res, errs := h.retrieveBatch(context.Background(), tn, pms)
		fails := 0
		for i, pm := range pms {
			if partitioned && onDevice0(pm) {
				if errs[i] == nil {
					t.Fatalf("round %d query %d (%s) reaches the partitioned device 0 and did not fail", round, i, shapeOf(pm))
				}
				fails++
				continue
			}
			if errs[i] != nil {
				t.Fatalf("round %d query %d (%s): %v — another query's failure", round, i, shapeOf(pm), errs[i])
			}
			if got, want := lines(res[i].Records), h.want(t, pm); !slices.Equal(got, want) {
				t.Fatalf("round %d query %d (%s): %d records, its own query has %d — someone else's answer",
					round, i, shapeOf(pm), len(got), len(want))
			}
			if partitioned {
				survived++
			}
		}
		failed += fails
		after := h.Report()
		if after.Batches-before.Batches != 1 || after.DirectBatches-before.DirectBatches != 1 {
			t.Fatalf("round %d: %d dispatches, %d explicit batches, want 1 and 1", round,
				after.Batches-before.Batches, after.DirectBatches-before.DirectBatches)
		}
		if got := tn.errors - tenantErrs; got != uint64(fails) {
			t.Fatalf("round %d: tenant %s counted %d errors, the batch had %d", round, tn.cfg.Name, got, fails)
		}
	}
	if failed == 0 || survived == 0 {
		t.Fatalf("%d queries failed and %d survived the partition: the property saw only one side", failed, survived)
	}
}

// TestGateBurnShed: SLO-burn admission control reads the shape's burn
// rate as it is now, not as it was a cache lifetime ago. The query that
// exhausts the budget is the last one admitted — the very next one of
// its shape is shed with a Retry-After, another shape is untouched, and
// the shape is admitted again the moment the objective is lifted. No
// step waits.
func TestGateBurnShed(t *testing.T) {
	h := newHeldGate(t)
	h.cfg.BurnShedThreshold = 1
	cluster := h.cfg.Cluster
	const shape = "*s*"
	cluster.SetShapeLatencySLO(shape, time.Nanosecond, 0.99)
	solo := h.tenant("solo")
	burning := h.query(t, map[string]string{"supplier": "supplier-2"})
	other := h.query(t, map[string]string{"note": "note-1"})
	ctx := context.Background()

	if _, err := h.retrieve(ctx, solo, burning); err != nil {
		t.Fatalf("first query of the shape, no burn yet: %v", err)
	}
	if burn := cluster.BurnRate(shape); burn < 1 {
		t.Fatalf("a query over a 1ns objective left burn rate %g, want the budget blown", burn)
	}
	_, err := h.retrieve(ctx, solo, burning)
	if !failedAs(err, fxdist.ErrCodeOverloaded, "burn") || fxdist.Classify(err).RetryAfter <= 0 {
		t.Fatalf("query right behind the one that blew the budget: %v, want overloaded with a Retry-After", err)
	}
	if _, errs := h.retrieveBatch(ctx, solo, []fxdist.PartialMatch{burning, other}); !failedAs(errs[0], fxdist.ErrCodeOverloaded, "burn") || errs[1] != nil {
		t.Fatalf("batch of a burning and a healthy shape: %v, want only the first shed", errs)
	}
	if rep := h.Report(); rep.BurnSheds != 2 {
		t.Fatalf("burn sheds = %d, want 2", rep.BurnSheds)
	}
	if n := solo.series.rejected[burn].value(); n != 1 {
		t.Fatalf("%d fx.retrieve frames rejected for burn on the series, want 1", n)
	}
	cluster.SetShapeLatencySLO(shape, 0, 0) // no objective, no burn
	if _, err := h.retrieve(ctx, solo, burning); err != nil {
		t.Fatalf("first query after the objective was lifted: %v", err)
	}
}
