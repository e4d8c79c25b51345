package netdist

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/field"
	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/query"
	"fxdist/internal/storage"
)

func buildFile(t *testing.T, n int) *mkhash.File {
	t.Helper()
	f := mkhash.MustNew(mkhash.Schema{
		Fields: []string{"part", "supplier", "warehouse"},
		Depths: []int{3, 3, 2},
	})
	for i := 0; i < n; i++ {
		r := mkhash.Record{
			fmt.Sprintf("part%d", i%40),
			fmt.Sprintf("sup%d", i%11),
			fmt.Sprintf("wh%d", i%5),
		}
		if err := f.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func deploy(t *testing.T, file *mkhash.File, m int) (*Coordinator, func()) {
	t.Helper()
	fs, err := file.FileSystem(m)
	if err != nil {
		t.Fatal(err)
	}
	fx := decluster.MustFX(fs)
	addrs, stop, err := Deploy(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := Dial(file, addrs)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	return coord, func() { coord.Close(); stop() }
}

func recordKeys(recs []mkhash.Record) []string {
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r[0] + "|" + r[1] + "|" + r[2]
	}
	sort.Strings(keys)
	return keys
}

// Distributed retrieval must return exactly what a local search returns,
// across query shapes.
func TestDistributedMatchesLocalSearch(t *testing.T) {
	file := buildFile(t, 400)
	coord, cleanup := deploy(t, file, 8)
	defer cleanup()

	specs := []map[string]string{
		{"supplier": "sup3"},
		{"part": "part7", "warehouse": "wh2"},
		{"part": "part0", "supplier": "sup0", "warehouse": "wh0"},
		{},
		{"supplier": "no-such"},
	}
	for _, s := range specs {
		pm, err := file.Spec(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := file.Search(pm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.Retrieve(pm)
		if err != nil {
			t.Fatal(err)
		}
		g, w := recordKeys(got.Records), recordKeys(want)
		if len(g) != len(w) {
			t.Fatalf("spec %v: distributed %d records, local %d", s, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("spec %v: record sets differ", s)
			}
		}
	}
}

// Per-device bucket counts over the wire must equal the allocator's load
// vector.
func TestDistributedBucketAccounting(t *testing.T) {
	file := buildFile(t, 300)
	fs, _ := file.FileSystem(8)
	fx := decluster.MustFX(fs)
	addrs, stop, err := Deploy(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	coord, err := Dial(file, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	pm, _ := file.Spec(map[string]string{"warehouse": "wh1"})
	res, err := coord.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := file.BucketQuery(pm)
	loads := query.Loads(fx, q)
	for dev, b := range res.DeviceBuckets {
		if b != loads[dev] {
			t.Errorf("device %d reported %d buckets, load vector says %d", dev, b, loads[dev])
		}
	}
	if res.LargestResponseSize == 0 {
		t.Error("largest response size not computed")
	}
}

// Concurrent retrievals over the same coordinator must not interleave
// corruptly.
func TestDistributedConcurrentRetrievals(t *testing.T) {
	file := buildFile(t, 300)
	coord, cleanup := deploy(t, file, 4)
	defer cleanup()

	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pm, err := file.Spec(map[string]string{"supplier": fmt.Sprintf("sup%d", i%11)})
			if err != nil {
				errs <- err
				return
			}
			want, err := file.Search(pm)
			if err != nil {
				errs <- err
				return
			}
			got, err := coord.Retrieve(pm)
			if err != nil {
				errs <- err
				return
			}
			if len(got.Records) != len(want) {
				errs <- fmt.Errorf("sup%d: got %d, want %d", i%11, len(got.Records), len(want))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestNewServerRejectsForeignBuckets(t *testing.T) {
	file := buildFile(t, 100)
	fs, _ := file.FileSystem(4)
	fx := decluster.MustFX(fs)
	spec, err := decluster.SpecOf(fx)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := storage.Split(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	// Hand device 0's partition to device 1: must be rejected.
	if parts[0].Buckets() == 0 {
		t.Skip("device 0 happens to hold no buckets")
	}
	if _, err := NewServer(1, spec, parts[0]); err == nil {
		t.Error("foreign bucket partition accepted")
	}
	if _, err := NewServer(9, spec, nil); err == nil {
		t.Error("out-of-range device id accepted")
	}
	outside := mkhash.NewTable(file.NumFields())
	if err := outside.Put(1<<20, []mkhash.Record{make(mkhash.Record, file.NumFields())}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(0, spec, outside); err == nil {
		t.Error("out-of-grid bucket index accepted")
	}
}

func TestServerRejectsMalformedRequests(t *testing.T) {
	file := buildFile(t, 50)
	fs, _ := file.FileSystem(4)
	fx := decluster.MustFX(fs)
	addrs, stop, err := Deploy(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	coord, err := Dial(file, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Out-of-domain hashed value.
	resp, _, _, _, err := coord.conns[0].roundTrip(context.Background(), NewRequest(
		[]int{99, query.Unspecified, query.Unspecified}, make(mkhash.PartialMatch, 3)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Error("out-of-domain query accepted")
	}
	// Wrong value-filter arity.
	resp, _, _, _, err = coord.conns[0].roundTrip(context.Background(), NewRequest(
		[]int{0, query.Unspecified, query.Unspecified}, make(mkhash.PartialMatch, 1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Error("wrong filter arity accepted")
	}

	// A rejected request names no shape: 64 bucket queries of 64 distinct
	// over-long arities must not mint 64 per-shape series in the server's
	// registry (a peer could otherwise grow it without bound). The
	// server's registry is its own, read here through a stats pull: only
	// rejected requests reached it, so it holds no per-shape series.
	const shapeSeries = "fxdist_netdist_server_shape_requests_total"
	for n := 0; n < 64; n++ {
		resp, _, _, _, err := coord.conns[0].roundTrip(context.Background(), NewRequest(
			make([]int, 4+n), make(mkhash.PartialMatch, 3)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Err == "" {
			t.Fatalf("%d-field bucket query accepted by a 3-field server", 4+n)
		}
	}
	resp, _, _, _, err = coord.conns[0].roundTrip(context.Background(), Request{Stats: true, AsDevice: -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := obs.DecodeNodeStats(resp.StatsJSON)
	if err != nil {
		t.Fatal(err)
	}
	series := 0
	for _, ms := range st.Metrics {
		if ms.Name == shapeSeries {
			series++
		}
	}
	if series != 0 {
		t.Errorf("rejected requests minted %d %s series", series, shapeSeries)
	}
}

// The allocator-vs-file check is storage.Split's (TestSplitValidation);
// a deployment under a mismatched allocator must fail on it.
func TestPartitionValidation(t *testing.T) {
	file := buildFile(t, 10)
	wrongArity := decluster.MustFileSystem([]int{8, 8}, 4)
	if _, _, err := Deploy(file, decluster.MustFX(wrongArity)); err == nil {
		t.Error("arity mismatch accepted")
	}
	wrongSize := decluster.MustFileSystem([]int{4, 8, 4}, 4)
	if _, _, err := DeployReplicated(file, decluster.MustFX(wrongSize)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestDialFailure(t *testing.T) {
	file := buildFile(t, 10)
	if _, err := Dial(file, []string{"127.0.0.1:1"}); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

// Two redials of one dead connection — two requests that both found it
// dead: the first swaps in its fresh connection, the second finds it
// already replaced and hands back the winner's, so the device keeps one
// connection and retrievals keep answering.
func TestRedialKeepsTheFirstSwap(t *testing.T) {
	file := buildFile(t, 200)
	coord, stop := deploy(t, file, 4)
	defer stop()
	old := coord.conn(1)
	first, err := coord.redial(context.Background(), 1, old)
	if err != nil {
		t.Fatal(err)
	}
	second, err := coord.redial(context.Background(), 1, old)
	if err != nil {
		t.Fatal(err)
	}
	if first == old || second != first || coord.conn(1) != first {
		t.Fatalf("conns[1] = %p after redials returned %p and %p (old %p)", coord.conn(1), first, second, old)
	}
	pm := make(mkhash.PartialMatch, 3)
	want, _ := file.Search(pm)
	res, err := coord.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if got := recordKeys(res.Records); strings.Join(got, ",") != strings.Join(recordKeys(want), ",") {
		t.Errorf("retrieve after redials: %d records, want %d", len(got), len(want))
	}
}

// TestDialChecksTheAddressList: a coordinator sends a query only to the
// devices its plan says own a qualified bucket, so an address list that
// does not put device i at position i under one allocator would silently
// lose answers (before pruning everyone was asked, and two swapped
// addresses went unnoticed). Dial refuses each such list, naming the
// device, the address and both values.
func TestDialChecksTheAddressList(t *testing.T) {
	file := buildFile(t, 200)
	fs, err := file.FileSystem(8)
	if err != nil {
		t.Fatal(err)
	}
	fx := decluster.MustFX(fs)
	addrs, stop, err := Deploy(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	spec, err := decluster.SpecOf(fx)
	if err != nil {
		t.Fatal(err)
	}

	// A server of the same grid under another transform plan (the 4-wide
	// field is narrower than M, so the plans differ), as device 7.
	other, err := decluster.NewFX(fs, field.WithKinds([]field.Kind{field.I, field.I, field.U}))
	if err != nil {
		t.Fatal(err)
	}
	otherSpec, err := decluster.SpecOf(other)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Equal(otherSpec) {
		t.Fatal("fixture: the two transform plans agree")
	}
	odd, err := NewServer(7, otherSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go odd.Serve(l) //nolint:errcheck // ends when odd.Close closes l
	defer odd.Close()

	swapped := append([]string{addrs[0], addrs[2], addrs[1]}, addrs[3:]...)
	otherM := spec
	otherM.M = 4
	for _, tc := range []struct {
		name  string
		addrs []string
		opts  []DialOption
		want  []string
	}{
		{"two swapped addresses", swapped, nil,
			[]string{"address 1 (" + addrs[2] + ")", "device 2, not device 1"}},
		{"a server under another transform plan", append(append([]string(nil), addrs[:7]...), l.Addr().String()), nil,
			[]string{"device 7 (" + l.Addr().String() + ")", "device 0 (" + addrs[0] + ")", fmt.Sprintf("%+v", otherSpec), fmt.Sprintf("%+v", spec)}},
		{"one address too few", addrs[:7], nil,
			[]string{"7 addresses", "8 devices"}},
		{"a handed spec the servers contradict", addrs, []DialOption{WithSpec(otherSpec)},
			[]string{"device 0 (" + addrs[0] + ")", "WithSpec", fmt.Sprintf("%+v", otherSpec)}},
		{"a handed spec over another device count", addrs, []DialOption{WithSpec(otherM)},
			[]string{"device 0 (" + addrs[0] + ")", "WithSpec"}},
	} {
		c, err := Dial(file, tc.addrs, tc.opts...)
		if err == nil {
			c.Close()
			t.Errorf("%s: dial succeeded", tc.name)
			continue
		}
		for _, frag := range tc.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, frag)
			}
		}
	}
	// The right list dials, with the spec handed over or not.
	for _, opts := range [][]DialOption{nil, {WithSpec(spec)}} {
		c, err := Dial(file, addrs, opts...)
		if err != nil {
			t.Fatalf("dial of the deployed list: %v", err)
		}
		c.Close()
	}

	// A file of another grid cannot lower queries for these servers.
	small := mkhash.MustNew(mkhash.Schema{Fields: []string{"part", "supplier", "warehouse"}, Depths: []int{3, 3, 1}})
	if c, err := Dial(small, addrs); err == nil {
		c.Close()
		t.Error("dial with a file of another grid succeeded")
	} else if !strings.Contains(err.Error(), "directory sizes") {
		t.Errorf("grid mismatch: %v", err)
	}
}

func TestServerCloseStopsServe(t *testing.T) {
	file := buildFile(t, 20)
	fs, _ := file.FileSystem(2)
	fx := decluster.MustFX(fs)
	spec, _ := decluster.SpecOf(fx)
	parts, _ := storage.Split(file, fx)
	srv, err := NewServer(0, spec, parts[0])
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	srv.Close()
	if err := <-done; err != nil {
		t.Errorf("Serve returned %v after Close, want nil", err)
	}
	// Serve on a closed server returns immediately without error.
	if err := srv.Serve(l); err != nil {
		t.Errorf("Serve on closed server returned %v, want nil", err)
	}
}

// TestUnreleasedResultIsLeftToTheCollector is the other half of the
// lending contract: Release is optional. A result whose frames are never
// given back is plain garbage-collected memory — a thousand further
// queries over the same connections and two collections later it still
// reads byte for byte what it read when it arrived.
func TestUnreleasedResultIsLeftToTheCollector(t *testing.T) {
	defer mempool.SetPoison(mempool.SetPoison(true))
	file := buildFile(t, 400)
	coord, cleanup := deploy(t, file, 8)
	defer cleanup()
	pm, err := file.Spec(map[string]string{"supplier": "sup3"})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := coord.RetrieveContext(context.Background(), pm)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(recordKeys(engine.CloneRecords(kept.Records)), "\n")
	if want == "" {
		t.Fatal("the query matched nothing")
	}
	for i := 0; i < 1000; i++ {
		res, err := coord.RetrieveContext(context.Background(), pm)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	runtime.GC()
	runtime.GC()
	if got := strings.Join(recordKeys(kept.Records), "\n"); got != want {
		t.Fatalf("an unreleased result changed under later traffic:\n%s\nwant\n%s", got, want)
	}
}

// TestServerShedsQueriesButAnswersStats holds one query in flight on a
// server shedding beyond one: a second query is refused with the
// configured Retry-After and counted, while a stats pull — the
// coordinator's health probe — is still answered, so a drowning server
// looks alive.
func TestServerShedsQueriesButAnswersStats(t *testing.T) {
	file := buildFile(t, 200)
	fs, _ := file.FileSystem(4)
	fx := decluster.MustFX(fs)
	spec, err := decluster.SpecOf(fx)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := storage.Split(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(0, spec, parts[0])
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // ends when srv.Close closes l
	defer srv.Close()
	srv.SetShedding(1, 250*time.Millisecond)

	c := &Coordinator{}
	conns := make([]*deviceConn, 3)
	for i := range conns {
		if conns[i], err = c.dialDevice(context.Background(), l.Addr().String()); err != nil {
			t.Fatal(err)
		}
		defer conns[i].conn.Close()
	}
	req := NewRequest([]int{0, query.Unspecified, query.Unspecified}, make(mkhash.PartialMatch, 3))

	// The held query takes the one in-flight slot and blocks on the view
	// lock until it is released.
	srv.dataMu.Lock()
	held := make(chan error, 1)
	go func() {
		resp, _, _, _, err := conns[0].roundTrip(context.Background(), req, 0)
		if err == nil && resp.Err != "" {
			err = fmt.Errorf("held query refused: %s", resp.Err)
		}
		held <- err
	}()
	for srv.inflightN.Load() != 1 {
		runtime.Gosched()
	}

	resp, _, _, _, err := conns[1].roundTrip(context.Background(), req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" || resp.RetryAfterMillis != 250 {
		t.Errorf("second query: err %q, retry after %d ms; want a refusal with 250 ms", resp.Err, resp.RetryAfterMillis)
	}

	resp, _, _, _, err = conns[2].roundTrip(context.Background(), Request{Stats: true, AsDevice: -1}, 0)
	if err != nil || resp.Err != "" {
		t.Fatalf("stats pull on a shedding server: %v %q", err, resp.Err)
	}
	st, err := obs.DecodeNodeStats(resp.StatsJSON)
	if err != nil {
		t.Fatal(err)
	}
	shed := -1.0
	for _, m := range st.Metrics {
		if m.Name == "fxdist_netdist_server_shed_requests_total" {
			shed = m.Value
		}
	}
	if shed != 1 {
		t.Errorf("fxdist_netdist_server_shed_requests_total = %g, want 1", shed)
	}

	srv.dataMu.Unlock()
	if err := <-held; err != nil {
		t.Error(err)
	}
}
