package main

import (
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

// TestStartRescaleEndToEnd runs the CLI driver path against a real
// loopback deployment: snapshot on disk, live old servers, empty
// rescale targets, then startRescale exactly as `fxnode rescale` would,
// growing 2 -> 4 and shrinking back.
func TestStartRescaleEndToEnd(t *testing.T) {
	file, _ := buildRescaleCLIFile(t)
	fs, err := file.FileSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "file.snap")
	if err := fxdist.SaveSnapshotFile(snap, file, fx); err != nil {
		t.Fatal(err)
	}
	addrs, stopOld, err := fxdist.DeployLocal(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stopOld()

	aspec, err := fxdist.DescribeAllocator(fx)
	if err != nil {
		t.Fatal(err)
	}
	newSpec, err := aspec.Rescaled(4)
	if err != nil {
		t.Fatal(err)
	}
	newAddrs := append([]string(nil), addrs...)
	for dev := 2; dev < 4; dev++ {
		srv, err := fxdist.NewRescaleTargetServer(dev, newSpec)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		newAddrs = append(newAddrs, l.Addr().String())
		go srv.Serve(l) //nolint:errcheck // ends when srv.Close closes l
	}

	// The fleet serves epoch 1 now: the shrink back opens it fresh with
	// no epoch, and -new-addrs alone sizes it.
	for _, to := range [][]string{newAddrs, addrs} {
		err = startRescale(rescaleStartConfig{
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
