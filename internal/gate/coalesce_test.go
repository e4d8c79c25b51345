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

// None of these tests reads a clock to decide what happened: a dispatch
// is held inside the cluster by a fault injector that hangs device 0
// until the holder's context is cancelled, and every "has it happened
// yet" is a poll of a counter the gate or the injector publishes.

// heldGate is a gate (tenants "solo" and "duo") over a small loaded
// memory cluster with an idle fault injector at its device seam.
type heldGate struct {
	*Gate
	file *fxdist.File
	inj  *fxdist.FaultInjector
}

func newHeldGate(t *testing.T, maxBatch int) *heldGate {
	t.Helper()
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "part", Cardinality: 40}, {Name: "supplier", Cardinality: 8}, {Name: "note", Cardinality: 4}}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{3, 2, 1}))
	if err != nil {
		t.Fatal(err)
	}
	records, err := fxdist.GenerateRecords(spec, 400, 5)
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
	inj := fxdist.NewFaultInjector("gate-hold", 1, nil)
	cluster, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx}, fxdist.WithFaultInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	g, err := New(Config{Cluster: cluster, File: file, Allocator: fx, MaxBatch: maxBatch,
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

// busy reports whether a round of shape is in flight.
func (h *heldGate) busy(shape string) bool {
	h.co.mu.Lock()
	defer h.co.mu.Unlock()
	_, busy := h.co.backlog[shape]
	return busy
}

func (h *heldGate) hung() uint64 {
	for _, d := range h.inj.Report().Devices {
		if d.Device == 0 {
			return d.Delayed
		}
	}
	return 0
}

// hold parks a leader of pm's shape inside the cluster — its scan of
// device 0 hangs — and returns once it is there, so every later query
// of the shape queues behind it. release cancels the leader, which must
// fail as cancelled and take nothing else down with it.
func (h *heldGate) hold(t *testing.T, pm fxdist.PartialMatch) (release func()) {
	t.Helper()
	// A round that has answered its waiters may not have ended yet; a
	// query sent now would follow it, not lead.
	waitFor(t, "shape idle", func() bool { return !h.busy(shapeOf(pm)) })
	before := h.hung()
	h.inj.Set(0, fxdist.FaultSchedule{Hang: true})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := h.retrieve(ctx, h.tenant("solo"), pm)
		done <- err
	}()
	waitFor(t, "leader hanging in device 0", func() bool { return h.hung() > before })
	h.inj.Clear(0) // the leader already took the schedule; everyone after it runs free
	return func() {
		t.Helper()
		cancel()
		if err := <-done; !failedAs(err, fxdist.ErrCodeCanceled, "") {
			t.Errorf("released leader: %v, want canceled", err)
		}
	}
}

// follower is one query sent behind a held leader.
type follower struct {
	tenant string
	pm     fxdist.PartialMatch
	ctx    context.Context
	res    fxdist.RetrieveResult
	batch  int
	err    error
	done   chan struct{} // closed once res, batch and err are set
}

// follow sends the followers and returns once all of them wait in a
// backlog; the returned func waits for their answers.
func (h *heldGate) follow(t *testing.T, fs []*follower) (wait func()) {
	t.Helper()
	before := h.co.waiting()
	var wg sync.WaitGroup
	for _, f := range fs {
		if f.ctx == nil {
			f.ctx = context.Background()
		}
		f.done = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(f.done)
			f.res, f.batch, f.err = h.retrieve(f.ctx, h.tenant(f.tenant), f.pm)
		}()
	}
	waitFor(t, "followers in the backlog", func() bool { return h.co.waiting() == before+len(fs) })
	return wg.Wait
}

// failedAs reports whether err classifies to code with msg in its text.
func failedAs(err error, code fxdist.ErrorCode, msg string) bool {
	fe := fxdist.Classify(err)
	return fe != nil && fe.Code == code && strings.Contains(fe.Message, msg)
}

// TestGateLoneCaller: with nobody else about, a query is a dispatch of
// one, at once, and leaves no state behind.
func TestGateLoneCaller(t *testing.T) {
	h := newHeldGate(t, 8)
	srv := httptest.NewServer(h.Gate)
	defer srv.Close()
	c := client.New(srv.URL, client.WithAPIKey("k"))
	defer c.Close()
	res, err := c.Retrieve(context.Background(), map[string]string{"supplier": "supplier-3"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coalesced || res.BatchSize != 0 {
		t.Fatalf("lone caller marked coalesced (batch_size %d)", res.BatchSize)
	}
	rep := h.Report()
	if rep.Batches != 1 || rep.CoalescedQueries != 0 || rep.Waiting != 0 {
		t.Fatalf("report = %+v, want 1 batch, nothing coalesced, nothing waiting", rep)
	}
	if h.busy("*s*") {
		t.Fatal("the shape still holds state after its only query returned")
	}
}

// TestGateCancelledWaiter: a follower that gives up neither stalls the
// demux nor costs its batch-mates their answers, and the leader's own
// cancellation (every release) fails the leader alone.
func TestGateCancelledWaiter(t *testing.T) {
	h := newHeldGate(t, 8)
	release := h.hold(t, h.query(t, map[string]string{"supplier": "supplier-0"}))
	ctx, cancel := context.WithCancel(context.Background())
	fs := []*follower{
		{tenant: "solo", pm: h.query(t, map[string]string{"supplier": "supplier-1"})},
		{tenant: "duo", pm: h.query(t, map[string]string{"supplier": "supplier-2"}), ctx: ctx},
		{tenant: "duo", pm: h.query(t, map[string]string{"supplier": "supplier-3"})},
	}
	wait := h.follow(t, fs)
	cancel()
	<-fs[1].done // gone before its round even starts
	if !failedAs(fs[1].err, fxdist.ErrCodeCanceled, "") {
		t.Fatalf("cancelled waiter: %v, want canceled", fs[1].err)
	}
	release()
	wait()
	for _, i := range []int{0, 2} {
		if fs[i].err != nil {
			t.Fatalf("batch-mate %d of a cancelled waiter: %v", i, fs[i].err)
		}
		if got, want := lines(fs[i].res.Records), h.want(t, fs[i].pm); !slices.Equal(got, want) {
			t.Fatalf("batch-mate %d got %d records, its own query has %d", i, len(got), len(want))
		}
		if fs[i].batch != 3 {
			t.Fatalf("batch-mate %d rode a dispatch of %d, want 3 (the cancelled query still rides)", i, fs[i].batch)
		}
	}
	waitFor(t, "shape state forgotten", func() bool { return !h.busy("*s*") })
}

// TestGateBacklogOverflow: the backlog holds 4×MaxBatch; the next query
// is refused as overloaded with a Retry-After, over HTTP too, and the
// queued ones are still served.
func TestGateBacklogOverflow(t *testing.T) {
	h := newHeldGate(t, 2)
	pm := h.query(t, map[string]string{"supplier": "supplier-4"})
	release := h.hold(t, pm)
	fs := make([]*follower, 4*2)
	for i := range fs {
		fs[i] = &follower{tenant: "duo", pm: pm}
	}
	wait := h.follow(t, fs)

	_, _, err := h.retrieve(context.Background(), h.tenant("solo"), pm)
	if !failedAs(err, fxdist.ErrCodeOverloaded, "backlog full") || fxdist.Classify(err).RetryAfter <= 0 {
		t.Fatalf("query past the backlog cap: %v, want overloaded with a Retry-After", err)
	}
	req := httptest.NewRequest(http.MethodPost, "/rpc", strings.NewReader(
		`{"jsonrpc":"2.0","id":1,"method":"fx.retrieve","params":{"query":{"supplier":"supplier-4"}}}`))
	req.Header.Set("Authorization", "Bearer k")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" ||
		!strings.Contains(rec.Body.String(), `"overloaded"`) {
		t.Fatalf("HTTP past the backlog cap: %d Retry-After=%q %s", rec.Code, rec.Header().Get("Retry-After"), rec.Body)
	}

	release()
	wait()
	for i, f := range fs {
		if f.err != nil || f.batch != 2 {
			t.Fatalf("queued query %d: batch %d, err %v; want served in a chunk of 2", i, f.batch, f.err)
		}
	}
	if rep := h.Report(); rep.Batches != 1+4 || rep.CoalescedQueries != 8 {
		t.Fatalf("batches %d coalesced %d, want 5 and 8", rep.Batches, rep.CoalescedQueries)
	}
}

// gateGoroutines counts the goroutines the gate itself started.
func gateGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "created by fxdist/internal/gate.(*Gate).") {
			n++
		}
	}
	return n
}

// TestGateCloseWithBacklog: Close fails the waiters of every backlog
// with "gate shutting down", refuses later arrivals the same way, lets
// dispatches already in flight finish — the follower round it waits
// for, the leader it leaves to its caller — and leaves no goroutine of
// the gate behind.
func TestGateCloseWithBacklog(t *testing.T) {
	h := newHeldGate(t, 8)
	pmA := h.query(t, map[string]string{"supplier": "supplier-5"})
	pmB := h.query(t, map[string]string{"note": "note-1"})

	// Shape B: a leader in flight on its caller's goroutine, two waiting.
	releaseB := h.hold(t, pmB)
	waiting := []*follower{{tenant: "solo", pm: pmB}, {tenant: "duo", pm: pmB}}
	waitWaiting := h.follow(t, waiting)
	// Shape A: a follower round in flight, slowed so that Close meets it
	// running (if the box is slower still, Close has less to wait for
	// and every check below holds all the same).
	releaseA := h.hold(t, pmA)
	round := []*follower{{tenant: "solo", pm: pmA}, {tenant: "duo", pm: pmA}}
	waitRound := h.follow(t, round)
	hung := h.hung()
	h.inj.Set(0, fxdist.FaultSchedule{Latency: 150 * time.Millisecond})
	releaseA()
	waitFor(t, "follower round inside device 0", func() bool { return h.hung() == hung+uint64(len(round)) })
	h.inj.Clear(0)

	h.Close()

	waitWaiting()
	for i, f := range waiting {
		if !failedAs(f.err, fxdist.ErrCodeOverloaded, "gate shutting down") {
			t.Fatalf("waiter %d at Close: %v, want overloaded/gate shutting down", i, f.err)
		}
	}
	// Close waited for the round, which answered its own waiters.
	waitRound()
	for i, f := range round {
		if f.err != nil || !slices.Equal(lines(f.res.Records), h.want(t, pmA)) {
			t.Fatalf("round in flight at Close, query %d: err %v", i, f.err)
		}
	}
	waitFor(t, "the gate's goroutines gone", func() bool { return gateGoroutines() == 0 })
	if _, _, err := h.retrieve(context.Background(), h.tenant("solo"), pmA); !failedAs(err, fxdist.ErrCodeOverloaded, "gate shutting down") {
		t.Fatalf("arrival after Close: %v", err)
	}
	releaseB() // the leader was left alone: still hanging, fails only now, as cancelled
	if h.busy(shapeOf(pmA)) || h.busy(shapeOf(pmB)) {
		t.Fatal("a shape still holds state")
	}
}

// TestGateDemuxProperty: whatever the tenants, queries, shapes and
// arrival order, every waiter receives the answer to its own query —
// compared with File.Search — in a dispatch no larger than MaxBatch,
// and the counters add up. Seeded; each round holds one or two shapes
// and shuffles a burst of followers behind them, then the same queries
// run free against each other.
func TestGateDemuxProperty(t *testing.T) {
	const maxBatch = 4
	h := newHeldGate(t, maxBatch)
	rng := rand.New(rand.NewSource(17))
	// Shapes that leave part free (so a leader can be held on device 0).
	random := func(shape int) fxdist.PartialMatch {
		q := map[string]string{}
		if shape&1 != 0 {
			q["supplier"] = fmt.Sprintf("supplier-%d", rng.Intn(8))
		}
		if shape&2 != 0 {
			q["note"] = fmt.Sprintf("note-%d", rng.Intn(4))
		}
		return h.query(t, q)
	}
	tenants := []string{"solo", "duo"}
	check := func(round int, fs []*follower) {
		t.Helper()
		for i, f := range fs {
			if f.err != nil {
				t.Fatalf("round %d query %d (%s, %s): %v", round, i, f.tenant, shapeOf(f.pm), f.err)
			}
			if got, want := lines(f.res.Records), h.want(t, f.pm); !slices.Equal(got, want) {
				t.Fatalf("round %d query %d (%s, %s): %d records, its own query has %d — someone else's answer",
					round, i, f.tenant, shapeOf(f.pm), len(got), len(want))
			}
			if f.batch < 1 || f.batch > maxBatch {
				t.Fatalf("round %d query %d rode a dispatch of %d, MaxBatch is %d", round, i, f.batch, maxBatch)
			}
		}
	}
	for round := 0; round < 12; round++ {
		before := h.Report()
		shapes := rng.Perm(4)[:1+rng.Intn(2)]
		var releases []func()
		var fs []*follower
		for _, shape := range shapes {
			releases = append(releases, h.hold(t, random(shape)))
			for n := 1 + rng.Intn(3*maxBatch); n > 0; n-- {
				fs = append(fs, &follower{tenant: tenants[rng.Intn(2)], pm: random(shape)})
			}
		}
		rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
		wait := h.follow(t, fs)
		for _, release := range releases {
			release()
		}
		wait()
		check(round, fs)
		// Every follower left in a chunk; chunks of two or more are the
		// coalesced ones; one dispatch per leader and per chunk.
		after := h.Report()
		var chunks, coalesced uint64
		perShape := map[string]int{}
		for _, f := range fs {
			perShape[shapeOf(f.pm)]++
		}
		for _, n := range perShape {
			chunks += uint64((n + maxBatch - 1) / maxBatch)
			if last := n % maxBatch; last == 1 {
				coalesced += uint64(n - 1)
			} else {
				coalesced += uint64(n)
			}
		}
		if got := after.Batches - before.Batches; got != uint64(len(shapes))+chunks {
			t.Fatalf("round %d: %d dispatches, want %d leaders + %d chunks", round, got, len(shapes), chunks)
		}
		if got := after.CoalescedQueries - before.CoalescedQueries; got != coalesced {
			t.Fatalf("round %d: %d coalesced queries, want %d", round, got, coalesced)
		}

		// The same queries with nothing held: leaders, followers and
		// rounds form however the scheduler interleaves them.
		var wg sync.WaitGroup
		for _, f := range fs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.res, f.batch, f.err = h.retrieve(context.Background(), h.tenant(f.tenant), f.pm)
			}()
		}
		wg.Wait()
		check(round, fs)
	}
}

// TestGateBurnShed: SLO-burn admission control reads the shape's burn
// rate as it is now, not as it was a cache lifetime ago. The query that
// exhausts the budget is the last one admitted — the very next one of
// its shape is shed with a Retry-After, another shape is untouched, and
// the shape is admitted again the moment the objective is lifted. No
// step waits.
func TestGateBurnShed(t *testing.T) {
	h := newHeldGate(t, 8)
	h.cfg.BurnShedThreshold = 1
	cluster := h.cfg.Cluster
	const shape = "*s*"
	cluster.SetShapeLatencySLO(shape, time.Nanosecond, 0.99)
	solo := h.tenant("solo")
	burning := h.query(t, map[string]string{"supplier": "supplier-2"})
	other := h.query(t, map[string]string{"note": "note-1"})
	ctx := context.Background()

	if _, _, err := h.retrieve(ctx, solo, burning); err != nil {
		t.Fatalf("first query of the shape, no burn yet: %v", err)
	}
	if burn := cluster.BurnRate(shape); burn < 1 {
		t.Fatalf("a query over a 1ns objective left burn rate %g, want the budget blown", burn)
	}
	_, _, err := h.retrieve(ctx, solo, burning)
	if !failedAs(err, fxdist.ErrCodeOverloaded, "burn") || fxdist.Classify(err).RetryAfter <= 0 {
		t.Fatalf("query right behind the one that blew the budget: %v, want overloaded with a Retry-After", err)
	}
	if _, errs := h.retrieveBatch(ctx, solo, []fxdist.PartialMatch{burning, other}); !failedAs(errs[0], fxdist.ErrCodeOverloaded, "burn") || errs[1] != nil {
		t.Fatalf("batch of a burning and a healthy shape: %v, want only the first shed", errs)
	}
	if rep := h.Report(); rep.BurnSheds != 2 {
		t.Fatalf("burn sheds = %d, want 2", rep.BurnSheds)
	}
	cluster.SetShapeLatencySLO(shape, 0, 0) // no objective, no burn
	if _, _, err := h.retrieve(ctx, solo, burning); err != nil {
		t.Fatalf("first query after the objective was lifted: %v", err)
	}
}
