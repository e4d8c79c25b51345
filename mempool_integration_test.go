package fxdist_test

import (
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"testing"

	"fxdist"
	"fxdist/internal/mempool"
)

// poolDiffSetup builds a loaded file plus a query mix that exercises
// multi-device fan-out with value filters (hash false positives
// included).
func poolDiffSetup(t *testing.T) (*fxdist.File, []fxdist.PartialMatch) {
	t.Helper()
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "a", Cardinality: 120},
		{Name: "b", Cardinality: 40},
		{Name: "c", Cardinality: 8},
	}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{3, 3, 2}))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := fxdist.GenerateRecords(spec, 5000, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := file.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	pms, err := fxdist.GeneratePartialMatches(spec, 24, 0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	return file, pms
}

// copyKeys materializes a result's records as owned strings — safe to
// keep after the result is released.
func copyKeys(recs []fxdist.Record) []string {
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = strings.Join(r, "\x00")
	}
	return keys
}

// recordsDigest is an order-free digest of a record set that reads every
// field byte: what a test compares while a result's lease is held.
func recordsDigest[R ~[]string](recs []R) (sum uint64) {
	for _, r := range recs {
		h := fnv.New64a()
		for _, f := range r {
			h.Write([]byte(f))
			h.Write([]byte{0})
		}
		sum += h.Sum64()
	}
	return sum + uint64(len(recs))
}

func sortedCopy(keys []string) []string {
	out := append([]string(nil), keys...)
	sort.Strings(out)
	return out
}

// TestPoolingDifferentialAcrossBackends runs the same query mix through
// every backend as each kind of caller — one that never releases a result
// (pooled, the default), the no-pool reference path (the process-wide
// mempool.SetEnabled seam, so this test must not run in parallel with
// others), and one that releases every result once it has copied it out,
// with released frames poisoned (mempool.SetPoison) — and demands
// byte-identical answers: identical record order across modes within a
// backend (pooling must not reorder a backend's merge), identical
// record multisets across backends. This is the gate that pooled slab
// reuse never leaks one query's records into another's answer.
func TestPoolingDifferentialAcrossBackends(t *testing.T) {
	file, pms := poolDiffSetup(t)
	fs, err := file.FileSystem(8)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}

	type opener func(t *testing.T) (*fxdist.Cluster, func())
	backends := map[string]opener{
		"memory": func(t *testing.T) (*fxdist.Cluster, func()) {
			c, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
			if err != nil {
				t.Fatal(err)
			}
			return c, func() {}
		},
		"durable": func(t *testing.T) (*fxdist.Cluster, func()) {
			c, err := fxdist.Open(fxdist.Config{Dir: t.TempDir(), File: file, Allocator: fx})
			if err != nil {
				t.Fatal(err)
			}
			return c, func() { c.Close() }
		},
		"replicated": func(t *testing.T) (*fxdist.Cluster, func()) {
			c, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx}, fxdist.WithReplication(fxdist.ChainedFailover))
			if err != nil {
				t.Fatal(err)
			}
			return c, func() {}
		},
		"netdist": func(t *testing.T) (*fxdist.Cluster, func()) {
			addrs, stop, err := fxdist.DeployLocal(file, fx)
			if err != nil {
				t.Fatal(err)
			}
			c, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs})
			if err != nil {
				stop()
				t.Fatal(err)
			}
			return c, func() { c.Close(); stop() }
		},
	}
	modes := []struct {
		name     string
		pooled   bool
		released bool
	}{
		{"pooled", true, false},
		{"nopool", false, false},
		{"released", true, true},
	}
	t.Cleanup(func() { mempool.SetEnabled(true); mempool.SetPoison(false) })

	// want[qi] is the reference answer from a direct single-device file
	// search, sorted.
	want := make([][]string, len(pms))
	for qi, pm := range pms {
		recs, err := file.Search(pm)
		if err != nil {
			t.Fatal(err)
		}
		want[qi] = sortedCopy(copyKeys(recs))
	}

	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			// exact[qi] is the backend's record order under the first
			// mode; later modes must reproduce it exactly.
			var exact [][]string
			for _, mode := range modes {
				mempool.SetEnabled(mode.pooled)
				mempool.SetPoison(mode.released)
				c, cleanup := open(t)
				got := make([][]string, len(pms))
				for qi, pm := range pms {
					res, err := c.Retrieve(pm)
					if err != nil {
						t.Fatalf("%s/%s query %d: %v", name, mode.name, qi, err)
					}
					got[qi] = copyKeys(res.Records)
					if mode.released {
						res.Release()
						res.Release() // idempotent, also where nothing was lent
					}
				}
				cleanup()
				for qi := range pms {
					if s := sortedCopy(got[qi]); !equalStrings(s, want[qi]) {
						t.Fatalf("%s/%s query %d: %d records, file.Search has %d (answers differ)",
							name, mode.name, qi, len(s), len(want[qi]))
					}
				}
				if exact == nil {
					exact = got
					continue
				}
				for qi := range pms {
					if !equalStrings(got[qi], exact[qi]) {
						t.Fatalf("%s/%s query %d: record order differs from %s mode",
							name, mode.name, qi, modes[0].name)
					}
				}
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestArenaRetrieveReleaseHammer pounds a memory and a distributed
// cluster with concurrent Retrieve → read → Release loops (plus double
// releases), released frames poisoned — the race-detector gate that slab
// recycling is properly fenced: a recycled hit frame or wire frame must
// never be visible to another in-flight retrieval.
func TestArenaRetrieveReleaseHammer(t *testing.T) {
	t.Cleanup(func() { mempool.SetPoison(false) })
	mempool.SetPoison(true)
	file, pms := poolDiffSetup(t)
	fs, err := file.FileSystem(8)
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

	want := make(map[int]uint64, len(pms))
	for qi, pm := range pms {
		recs, err := file.Search(pm)
		if err != nil {
			t.Fatal(err)
		}
		want[qi] = recordsDigest(recs)
	}

	clusters := map[string]*fxdist.Cluster{}
	mem, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	clusters["memory"] = mem
	net, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	clusters["netdist"] = net

	const workers, iters = 8, 40
	for name, c := range clusters {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						qi := (w*iters + i) % len(pms)
						res, err := c.Retrieve(pms[qi])
						if err != nil {
							errs <- err
							return
						}
						// Read every field byte while the lease is held, then
						// verify the content against the reference.
						n, got := len(res.Records), recordsDigest(res.Records)
						res.Release()
						go res.Release() // idempotent across goroutines too
						if got != want[qi] {
							t.Errorf("query %d returned %d records that are not file.Search's", qi, n)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}
