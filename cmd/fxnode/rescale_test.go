package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fxdist"
	"fxdist/internal/netdist"
	"fxdist/internal/rebalance"
)

func TestDebugBase(t *testing.T) {
	for in, want := range map[string]string{
		"127.0.0.1:9100":         "http://127.0.0.1:9100",
		"http://localhost:9100":  "http://localhost:9100",
		"http://localhost:9100/": "http://localhost:9100",
	} {
		if got := debugBase(in); got != want {
			t.Errorf("debugBase(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRescaleDebugHelpers drives rescaleDebug, status and steer, against a
// server speaking the /debug/rescale contract.
func TestRescaleDebugHelpers(t *testing.T) {
	var gotForm url.Values
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/rescale" {
			http.NotFound(w, r)
			return
		}
		switch r.Method {
		case http.MethodGet:
			w.Write([]byte(`{"rescales":{"netdist":{"phase":"verified"}}}`))
		case http.MethodPost:
			if err := r.ParseForm(); err != nil {
				t.Error(err)
			}
			gotForm = r.PostForm
			if gotForm.Get("action") == "explode" {
				http.Error(w, "unknown action", http.StatusBadRequest)
				return
			}
			w.Write([]byte(gotForm.Get("action") + ": ok\n"))
		}
	}))
	defer srv.Close()

	base := debugBase(strings.TrimPrefix(srv.URL, "http://"))
	body, err := rescaleDebug(base, "status")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "verified") {
		t.Fatalf("status body %q missing phase", body)
	}

	body, err = rescaleDebug(base, "pause")
	if err != nil {
		t.Fatal(err)
	}
	if body != "pause: ok\n" {
		t.Fatalf("pause response %q", body)
	}
	if gotForm.Get("action") != "pause" || len(gotForm) != 1 {
		t.Fatalf("server saw form %v", gotForm)
	}

	if _, err := rescaleDebug(base, "explode"); err == nil {
		t.Fatal("bad action did not surface the HTTP error")
	}
}

func buildRescaleCLIFile(t *testing.T) (*fxdist.File, fxdist.RecordSpec) {
	t.Helper()
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "a", Cardinality: 80},
		{Name: "b", Cardinality: 30},
	}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	records, err := fxdist.GenerateRecords(spec, 600, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := file.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return file, spec
}

// TestSampleQueries: every sampled self-check query must have a
// non-empty reference answer — they come from records actually stored.
func TestSampleQueries(t *testing.T) {
	file, _ := buildRescaleCLIFile(t)
	pms := sampleQueries(file, 6)
	if len(pms) == 0 {
		t.Fatal("no queries sampled from a populated file")
	}
	for i, pm := range pms {
		recs, err := file.Search(pm)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(recs) == 0 {
			t.Fatalf("query %d matches nothing despite being sampled from a record", i)
		}
	}
}

// deployCLIRescale snapshots the CLI file at 2 devices, serves it, and
// starts two empty rescale targets: the old and the grown address lists,
// and the two specs.
func deployCLIRescale(t *testing.T, file *fxdist.File, dir string) (snap string, addrs, newAddrs []string, spec, newSpec fxdist.AllocatorSpec) {
	t.Helper()
	fs, err := file.FileSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	snap = filepath.Join(dir, "file.snap")
	if err := fxdist.SaveSnapshotFile(snap, file, fx); err != nil {
		t.Fatal(err)
	}
	addrs, stopOld, err := fxdist.DeployLocal(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopOld)
	if spec, err = fxdist.DescribeAllocator(fx); err != nil {
		t.Fatal(err)
	}
	if newSpec, err = spec.Rescaled(4); err != nil {
		t.Fatal(err)
	}
	newAddrs = append([]string(nil), addrs...)
	for dev := 2; dev < 4; dev++ {
		srv, err := fxdist.NewRescaleTargetServer(dev, newSpec)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		newAddrs = append(newAddrs, l.Addr().String())
		go srv.Serve(l) //nolint:errcheck // ends when srv.Close closes l
	}
	return snap, addrs, newAddrs, spec, newSpec
}

// TestStartRescaleEndToEnd runs the CLI driver path against a real
// loopback deployment: snapshot on disk, live old servers, empty
// rescale targets, then startRescale exactly as `fxnode rescale` would,
// growing 2 -> 4 and shrinking back.
func TestStartRescaleEndToEnd(t *testing.T) {
	file, _ := buildRescaleCLIFile(t)
	dir := t.TempDir()
	snap, addrs, newAddrs, _, _ := deployCLIRescale(t, file, dir)

	// The fleet serves epoch 1 now: the shrink back opens it fresh with
	// no epoch, and -new-addrs alone sizes it.
	for _, to := range [][]string{newAddrs, addrs} {
		err := startRescale(rescaleStartConfig{
			snapshot:     snap,
			addrs:        strings.Join(addrs, ","),
			newAddrs:     strings.Join(to, ","),
			journal:      filepath.Join(dir, fmt.Sprint("rescale-", len(to), ".journal")),
			guardQueries: 2,
			selfCheck:    true,
			statusEvery:  25 * time.Millisecond,
			timeout:      60 * time.Second,
		})
		if err != nil {
			t.Fatalf("startRescale to %d devices: %v", len(to), err)
		}
		addrs = to
	}
}

// stuckCutover is a transport on which one device never cuts over.
type stuckCutover struct {
	rebalance.Transport
	dev int
}

func (s stuckCutover) CutoverDevice(ctx context.Context, dev int) error {
	if dev == s.dev {
		return errors.New("unreachable")
	}
	return s.Transport.CutoverDevice(ctx, dev)
}

// TestStartRescaleResumesAPartialCutover: a 2 -> 4 grow, then a 4 -> 2
// shrink, whose cutover reached device 1 but not device 0 leaves a fleet
// Open refuses over either list. Rerun on its journal, `fxnode rescale`
// replays the cutover, and a fresh Open then serves the new epoch,
// answering as the file does.
func TestStartRescaleResumesAPartialCutover(t *testing.T) {
	file, _ := buildRescaleCLIFile(t)
	dir := t.TempDir()
	snap, addrs, newAddrs, spec, newSpec := deployCLIRescale(t, file, dir)
	// The drivers' transport spans both device sets, as a cluster's does:
	// the 4 addresses, at the epoch each rescale names.
	coord, err := netdist.Dial(file, newAddrs, netdist.WithEpoch(1), netdist.WithSpec(newSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for epoch, leg := range []struct {
		from, to         []string
		oldSpec, newSpec fxdist.AllocatorSpec
		newM             int
	}{
		{addrs, newAddrs, spec, newSpec, 4},
		{newAddrs, addrs, newSpec, spec, 2},
	} {
		journal := filepath.Join(dir, fmt.Sprint("rescale-", leg.newM, ".journal"))
		d, err := rebalance.NewDriver(rebalance.DriverConfig{
			OldSpec: leg.oldSpec, NewSpec: leg.newSpec, Epoch: epoch,
			Transport: stuckCutover{coord, 0}, JournalPath: journal,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(context.Background()); !errors.Is(err, rebalance.ErrPartialCutover) {
			t.Fatalf("to %d devices: first run %v, want a partial cutover", leg.newM, err)
		}
		for _, list := range [][]string{leg.from, leg.to} {
			if cl, err := fxdist.Open(fxdist.Config{File: file, Addrs: list}); err == nil {
				cl.Close()
				t.Fatalf("to %d devices: opened %d devices split between two epochs", leg.newM, len(list))
			}
		}
		err = startRescale(rescaleStartConfig{
			snapshot:    snap,
			addrs:       strings.Join(leg.from, ","),
			newAddrs:    strings.Join(leg.to, ","),
			journal:     journal,
			statusEvery: 25 * time.Millisecond,
			timeout:     60 * time.Second,
		})
		if err != nil {
			t.Fatalf("to %d devices: resumed rescale: %v", leg.newM, err)
		}
		cl, err := fxdist.Open(fxdist.Config{File: file, Addrs: leg.to})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if cl.M() != leg.newM {
			t.Fatalf("reopened over %d devices, want %d", cl.M(), leg.newM)
		}
		for i, pm := range sampleQueries(file, 4) {
			got, err := cl.Retrieve(pm)
			if err != nil {
				t.Fatal(err)
			}
			want, err := file.Search(pm)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Records) != len(want) {
				t.Fatalf("to %d devices: query %d: %d records after the resumed cutover, the file holds %d", leg.newM, i, len(got.Records), len(want))
			}
		}
	}
}
