package fxdist_test

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fxdist"
)

// deployRescaleTargets starts empty device servers for devices
// firstDev..spec.M-1 at the given epoch — the fresh half of a growing
// cluster.
func deployRescaleTargets(t *testing.T, spec fxdist.AllocatorSpec, firstDev, epoch int) (addrs []string, stop func()) {
	t.Helper()
	var servers []*fxdist.DeviceServer
	stop = func() {
		for _, s := range servers {
			s.Close()
		}
	}
	for dev := firstDev; dev < spec.M; dev++ {
		srv, err := fxdist.NewRescaleTargetServer(dev, spec, epoch)
		if err != nil {
			stop()
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			t.Fatal(err)
		}
		servers = append(servers, srv)
		addrs = append(addrs, l.Addr().String())
		go srv.Serve(l) //nolint:errcheck // ends when srv.Close closes l
	}
	return addrs, stop
}

// rescaleQueries builds a few partial matches of different shapes.
func rescaleQueries(t *testing.T, file *fxdist.File) []fxdist.PartialMatch {
	t.Helper()
	var pms []fxdist.PartialMatch
	for _, pairs := range []map[string]string{
		{"b": "b-3"},
		{"a": "a-7"},
		{"a": "a-12", "b": "b-1"},
		{"b": "b-9"},
	} {
		pm, err := file.Spec(pairs)
		if err != nil {
			t.Fatal(err)
		}
		pms = append(pms, pm)
	}
	return pms
}

// canonical returns the records in a canonical, comparable form.
func canonical(recs []fxdist.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = strings.Join(r, "\x00")
	}
	sort.Strings(out)
	return out
}

func runRescale(t *testing.T, oldM, newM int) {
	t.Helper()
	file := buildTestFile(t)
	fs, err := file.FileSystem(oldM)
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
	newSpec, err := spec.Rescaled(newM)
	if err != nil {
		t.Fatal(err)
	}
	newAddrs := append([]string(nil), addrs...)
	if newM > oldM {
		taddrs, stopTargets := deployRescaleTargets(t, newSpec, oldM, 1)
		defer stopTargets()
		newAddrs = append(newAddrs, taddrs...)
	} else {
		newAddrs = newAddrs[:newM]
	}

	cl, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs},
		fxdist.WithRescale(filepath.Join(t.TempDir(), "rescale.journal")))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	pms := rescaleQueries(t, file)

	// Query continuously through the whole rescale: the acceptance bar is
	// zero failed retrievals across every phase transition.
	var failed atomic.Int64
	var queries atomic.Int64
	stopPump := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopPump:
				return
			default:
			}
			if _, err := cl.Retrieve(pms[i%len(pms)]); err != nil {
				failed.Add(1)
				t.Errorf("query failed mid-rescale: %v", err)
			}
			queries.Add(1)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	resc, err := cl.Rescale(ctx, fxdist.RescaleConfig{
		Addrs:           newAddrs,
		NewM:            newM,
		Allocator:       fx,
		GuardMinQueries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := resc.Wait(); err != nil {
		t.Fatalf("rescale: %v (status %+v)", err, resc.Status())
	}
	close(stopPump)
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d queries failed during the rescale", n, queries.Load())
	}
	if got := cl.M(); got != newM {
		t.Fatalf("cluster reports M=%d after rescale, want %d", got, newM)
	}
	st := resc.Status()
	if st.Phase != "done" {
		t.Fatalf("final phase %q, want done", st.Phase)
	}
	if st.DualReads.Mismatches != 0 {
		t.Fatalf("%d dual-read mismatches", st.DualReads.Mismatches)
	}

	// Byte-identical against a statically deployed newM cluster.
	staticAlloc, err := fxdist.BuildAllocator(newSpec)
	if err != nil {
		t.Fatal(err)
	}
	saddrs, stopStatic, err := fxdist.DeployLocal(file, staticAlloc)
	if err != nil {
		t.Fatal(err)
	}
	defer stopStatic()
	scl, err := fxdist.Open(fxdist.Config{File: file, Addrs: saddrs})
	if err != nil {
		t.Fatal(err)
	}
	defer scl.Close()
	for i, pm := range pms {
		got, err := cl.Retrieve(pm)
		if err != nil {
			t.Fatalf("post-rescale query %d: %v", i, err)
		}
		want, err := scl.Retrieve(pm)
		if err != nil {
			t.Fatal(err)
		}
		g, w := canonical(got.Records), canonical(want.Records)
		if len(g) != len(w) {
			t.Fatalf("query %d: %d records after rescale, static cluster has %d", i, len(g), len(w))
		}
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("query %d record %d differs:\n rescaled: %q\n static:   %q", i, j, g[j], w[j])
			}
		}
	}
}

func TestRescaleGrowLive(t *testing.T) {
	runRescale(t, 4, 8)
}

// TestRescaleGrowUnderFaults injects flapping and latency into the new
// epoch's coordinator — the same connections the migration stream and
// the dual-read new leg use — and requires the rescale to complete with
// zero failed queries and byte-identical results anyway: the driver
// retries transient faults and a dual read survives its new leg dying
// because the old epoch still answers.
func TestRescaleGrowUnderFaults(t *testing.T) {
	file := buildTestFile(t)
	fs, _ := file.FileSystem(4)
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	addrs, stopOld, err := fxdist.DeployLocal(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stopOld()
	spec, _ := fxdist.DescribeAllocator(fx)
	newSpec, err := spec.Rescaled(8)
	if err != nil {
		t.Fatal(err)
	}
	taddrs, stopTargets := deployRescaleTargets(t, newSpec, 4, 1)
	defer stopTargets()

	// The retry budget is part of the cluster's dial options, so the
	// new-epoch coordinator inherits it — injected faults on the new
	// read leg are retried, not surfaced.
	cl, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs},
		fxdist.WithRetryBudget(5, time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	pms := rescaleQueries(t, file)
	var failed atomic.Int64
	stopPump := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopPump:
				return
			default:
			}
			if _, err := cl.Retrieve(pms[i%len(pms)]); err != nil {
				failed.Add(1)
				t.Errorf("query failed mid-rescale under faults: %v", err)
			}
		}
	}()
	// Joined on every way out, t.Fatalf included: a pump that outlives
	// the test turns one failure into a "Log in goroutine after test
	// completed" panic that takes the whole package down.
	stopPumping := sync.OnceFunc(func() {
		close(stopPump)
		wg.Wait()
	})
	defer stopPumping()

	in := fxdist.NewFaultInjector("chaos-rescale", 7, map[int]fxdist.FaultSchedule{
		5: {FlapEvery: 3},
		2: {Latency: 2 * time.Millisecond},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	resc, err := cl.Rescale(ctx, fxdist.RescaleConfig{
		Addrs:           append(append([]string(nil), addrs...), taddrs...),
		NewM:            8,
		Allocator:       fx,
		GuardMinQueries: 2,
		DialOptions:     []fxdist.DialOption{fxdist.WithDialInjector(in)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := resc.Wait(); err != nil {
		t.Fatalf("rescale under faults: %v (status %+v)", err, resc.Status())
	}
	stopPumping()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d queries failed during the faulted rescale", n)
	}
	if st := resc.Status(); st.DualReads.Mismatches != 0 {
		t.Fatalf("%d dual-read mismatches", st.DualReads.Mismatches)
	}

	// Byte-identical against a static 8-device deployment.
	staticAlloc, err := fxdist.BuildAllocator(newSpec)
	if err != nil {
		t.Fatal(err)
	}
	saddrs, stopStatic, err := fxdist.DeployLocal(file, staticAlloc)
	if err != nil {
		t.Fatal(err)
	}
	defer stopStatic()
	scl, err := fxdist.Open(fxdist.Config{File: file, Addrs: saddrs})
	if err != nil {
		t.Fatal(err)
	}
	defer scl.Close()
	for i, pm := range pms {
		got, _ := cl.Retrieve(pm)
		want, _ := scl.Retrieve(pm)
		g, w := canonical(got.Records), canonical(want.Records)
		if strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Fatalf("query %d: records differ from static cluster after faulted rescale", i)
		}
	}
}

func TestRescaleShrinkLive(t *testing.T) {
	runRescale(t, 4, 2)
}

func TestRescaleAbortRollsBack(t *testing.T) {
	file := buildTestFile(t)
	fs, _ := file.FileSystem(4)
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	addrs, stopOld, err := fxdist.DeployLocal(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stopOld()
	spec, _ := fxdist.DescribeAllocator(fx)
	newSpec, err := spec.Rescaled(8)
	if err != nil {
		t.Fatal(err)
	}
	taddrs, stopTargets := deployRescaleTargets(t, newSpec, 4, 1)
	defer stopTargets()

	cl, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx := context.Background()
	resc, err := cl.Rescale(ctx, fxdist.RescaleConfig{
		Addrs:     append(append([]string(nil), addrs...), taddrs...),
		NewM:      8,
		Allocator: fx,
		// An unmeetable floor keeps the driver parked in dual-read so the
		// abort lands before cutover.
		GuardMinQueries: 1 << 62,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the copy phase to finish, then abort.
	deadline := time.Now().Add(30 * time.Second)
	for resc.Status().Phase != "dual-read" {
		if time.Now().After(deadline) {
			t.Fatalf("rescale never reached dual-read: %+v", resc.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A batch inside the window runs query by query through the dual
	// reads. One query's failure is that query's: the batch finishes,
	// the error names the index, the neighbours keep their answers (a
	// gate demultiplexes this batch to three different tenants).
	// Each query also keeps its own tenant: under a 1ns objective every
	// query is slow, hence always kept, so the old-epoch leg of each dual
	// read leaves a wide event — and every one of them names its caller.
	good := rescaleQueries(t, file)
	cl.SetLatencySLO(time.Nanosecond, 0.99)
	batchStart := time.Now()
	results, err := cl.RetrieveBatch(fxdist.ContextWithCallers(ctx, []string{"acme", "nobody", "globex"}),
		[]fxdist.PartialMatch{good[0], {nil}, good[1]})
	var qe *fxdist.QueryError
	if !errors.As(err, &qe) || qe.Index != 1 {
		t.Fatalf("batch with a malformed query 1 inside the window: error %v, want a QueryError for index 1", err)
	}
	// A dual read returns with its winner; the losing leg reports when it
	// gets there, so wait for both old-epoch events before looking.
	tenants := map[string]int{}
	for deadline := time.Now().Add(10 * time.Second); tenants["acme"]+tenants["globex"] < 2 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		clear(tenants)
		for _, ev := range cl.QueryEvents(64) {
			if !ev.Time.Before(batchStart) {
				tenants[ev.Tenant]++
			}
		}
	}
	cl.SetLatencySLO(0, 0)
	if len(tenants) != 2 || tenants["acme"] != 1 || tenants["globex"] != 1 {
		t.Fatalf("wide events of a two-tenant batch inside the window carry tenants %v, want one of acme and one of globex", tenants)
	}
	for i, pm := range map[int]fxdist.PartialMatch{0: good[0], 2: good[1]} {
		want, err := file.Search(pm)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := canonical(results[i].Records), canonical(want); !slices.Equal(g, w) {
			t.Fatalf("batch query %d beside a failing one: %d records, want %d", i, len(g), len(w))
		}
	}

	// Hammer retrievals across the abort: the rollback must never fail
	// a query — a dual read racing the route flip has to fall back to
	// the old epoch, not chase the new epoch's dropped views.
	pmsLive := rescaleQueries(t, file)
	stop := make(chan struct{})
	errCh := make(chan error, 1)
	var hammer sync.WaitGroup
	for g := 0; g < 4; g++ {
		hammer.Add(1)
		go func(g int) {
			defer hammer.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Retrieve(pmsLive[(g+i)%len(pmsLive)]); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}(g)
	}
	resc.Abort()
	if err := resc.Wait(); err == nil {
		t.Fatal("aborted rescale reported success")
	}
	close(stop)
	hammer.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("query failed during abort rollback: %v", err)
	default:
	}
	if got := cl.M(); got != 4 {
		t.Fatalf("cluster reports M=%d after abort, want 4", got)
	}
	// The old epoch answers exactly as before.
	pms := rescaleQueries(t, file)
	for i, pm := range pms {
		got, err := cl.Retrieve(pm)
		if err != nil {
			t.Fatalf("query %d after abort: %v", i, err)
		}
		want, err := file.Search(pm)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Records) != len(want) {
			t.Fatalf("query %d: %d records after abort, want %d", i, len(got.Records), len(want))
		}
	}
}

// TestRescaleKeepsItsObjectivesAndAuditsTheNewEpoch: the new epoch's
// coordinator audits into its own bundle, which takes the cluster's
// objectives when the rescale starts and is the cluster's after cutover.
// The old epoch has served more queries than the guard asks for, yet the
// guard holds — on /debug/rescale — until the new epoch itself has
// audited them; after cutover the cluster's report is the new epoch's,
// under the objectives set before the rescale, and no label but
// "netdist" ever appears.
func TestRescaleKeepsItsObjectivesAndAuditsTheNewEpoch(t *testing.T) {
	file := buildTestFile(t)
	grid, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(grid)
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
	taddrs, stopTargets := deployRescaleTargets(t, newSpec, 4, 1)
	defer stopTargets()

	cl, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetLatencySLO(2*time.Hour, 0.9)
	cl.SetShapeLatencySLO("*s", time.Hour, 0.99)
	pms := rescaleQueries(t, file)
	for i := 0; i < 20; i++ {
		if _, err := cl.Retrieve(pms[i%len(pms)]); err != nil {
			t.Fatal(err)
		}
	}
	debug := cl.DebugHandler()
	rescaleDoc := func() (doc struct {
		Rescales map[string]fxdist.RescaleStatus `json:"rescales"`
	}) {
		t.Helper()
		w := httptest.NewRecorder()
		debug.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/rescale", nil))
		if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
			t.Fatalf("/debug/rescale: %v\n%s", err, w.Body)
		}
		return doc
	}
	if doc := rescaleDoc(); len(doc.Rescales) != 0 {
		t.Fatalf("/debug/rescale before any rescale: %+v", doc.Rescales)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const guard = 8
	resc, err := cl.Rescale(ctx, fxdist.RescaleConfig{
		Addrs: append(append([]string(nil), addrs...), taddrs...), NewM: 8, Allocator: fx, GuardMinQueries: guard,
	})
	if err != nil {
		t.Fatal(err)
	}
	held := "only 0 audited queries on the new epoch"
	until(t, "the guard holds the idle window on /debug/rescale", func() bool {
		st, ok := rescaleDoc().Rescales[fxdist.KindNetdist]
		return ok && st.Phase == "dual-read" && strings.Contains(st.LastGuardErr, held)
	})
	if old := cl.OptimalityReport(); old.Shapes[0].Queries+old.Shapes[1].Queries < guard {
		t.Fatalf("the old epoch audited %+v, fewer than the guard's %d", old.Shapes, guard)
	}
	for i := 0; i < guard; i++ {
		if err := resc.Verify(ctx, pms[i%len(pms):i%len(pms)+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := resc.Wait(); err != nil {
		t.Fatalf("rescale: %v", err)
	}

	rep := cl.OptimalityReport()
	var queries uint64
	for _, s := range rep.Shapes {
		queries += s.Queries
		want := 2 * time.Hour
		if s.Shape == "*s" {
			want = time.Hour
		}
		if s.SLOTarget != want {
			t.Errorf("shape %s after cutover: objective %v, want %v as set before the rescale", s.Shape, s.SLOTarget, want)
		}
	}
	if rep.Backend != fxdist.KindNetdist || queries != guard {
		t.Errorf("report after cutover: backend %q over %d queries, want the new epoch's %d under %q", rep.Backend, queries, guard, fxdist.KindNetdist)
	}
	w := httptest.NewRecorder()
	debug.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/optimality", nil))
	var rows []fxdist.BackendAudit
	if err := json.Unmarshal(w.Body.Bytes(), &rows); err != nil || len(rows) != 1 || rows[0].Backend != fxdist.KindNetdist {
		t.Errorf("/debug/optimality after cutover: %d rows (%v), want the cluster's one: %s", len(rows), err, w.Body)
	}
	if st := rescaleDoc().Rescales[fxdist.KindNetdist]; st.Phase != "done" {
		t.Errorf("/debug/rescale after cutover: %+v", st)
	}

	// No label but the kind: the "<backend>-next" label is gone from the
	// program.
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err == nil && strings.Contains(string(src), `-next"`) {
			t.Errorf("%s still names a -next label", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
