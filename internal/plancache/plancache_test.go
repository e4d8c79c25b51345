package plancache

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"fxdist/internal/convolve"
	"fxdist/internal/decluster"
	"fxdist/internal/query"
)

func mustFS(t *testing.T, sizes []int, m int) decluster.FileSystem {
	t.Helper()
	fs, err := decluster.NewFileSystem(sizes, m)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// allAllocators builds one allocator of each group kind over fs: FX,
// Basic FX, Modulo, GDM and DHW.
func allAllocators(t *testing.T, fs decluster.FileSystem) []decluster.GroupAllocator {
	t.Helper()
	fx, err := decluster.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	basic, err := decluster.NewBasicFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	gdm, err := decluster.NewGDM(fs, []int{3, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	return []decluster.GroupAllocator{fx, basic, decluster.NewModulo(fs), gdm, decluster.NewDHW(fs)}
}

// eachShapeQuery calls fn with one representative query per shape (the
// specified values vary so substitution is exercised).
func eachShapeQuery(fs decluster.FileSystem, fn func(q query.Query)) {
	n := fs.NumFields()
	for mask := 0; mask < 1<<n; mask++ {
		spec := make([]int, n)
		for i := range spec {
			if mask&(1<<i) != 0 {
				spec[i] = query.Unspecified
			} else {
				spec[i] = (mask + i) % fs.Sizes[i]
			}
		}
		fn(query.New(spec))
	}
}

// TestPlanMatchesInverseMapper is the soundness check of the one
// enumerator against the plan's numbers: for every allocator kind,
// M in {2, 4, 8, 16}, every shape and several value bindings, the mapper
// walk on each device yields counts[h⁻¹·dev] buckets, and they are R(q)'s
// buckets on that device (Query.EachQualified filtered by Device) in the
// walk's documented order — rest fields row-major, the solved (first
// largest free) field ascending within. Each walk runs three ways: over
// roomy scratch, over exactly 3n+1 ints, and over scratch too short to
// use, which falls back to its own array.
func TestPlanMatchesInverseMapper(t *testing.T) {
	sizes := []int{8, 4, 2}
	n := len(sizes)
	scratches := map[string]func() []int{
		"roomy": func() []int { return make([]int, 64) },
		"exact": func() []int { return make([]int, 3*n+1) },
		"short": func() []int { return make([]int, 3*n) },
	}
	rng := rand.New(rand.NewSource(23))
	for _, m := range []int{2, 4, 8, 16} {
		fs := mustFS(t, sizes, m)
		for _, alloc := range allAllocators(t, fs) {
			im := query.NewInverseMapper(alloc)
			eachShapeQuery(fs, func(q query.Query) {
				p := Compile(alloc, q, 0)
				if want := q.NumQualified(fs); p.RQ != want || p.M != m {
					t.Errorf("%s M=%d %s: RQ = %d, M = %d, want %d, %d", alloc.Name(), m, q, p.RQ, p.M, want, m)
				}
				for trial := 0; trial < 4; trial++ {
					for i, v := range q.Spec {
						if v != query.Unspecified {
							q.Spec[i] = rng.Intn(fs.Sizes[i])
						}
					}
					total := 0
					for dev := 0; dev < m; dev++ {
						want := bucketsOnDevice(alloc, q, dev)
						if c := p.Count(p.Fold(q), dev); c != len(want) {
							t.Fatalf("%s M=%d %s dev %d: count %d, %d buckets there", alloc.Name(), m, q, dev, c, len(want))
						}
						for name, scratch := range scratches {
							buf := scratch()
							var got [][]int
							w := im.Walk(query.WalkOver(buf), q, dev)
							for b := w.Next(); b != nil; b = w.Next() {
								if inBuf := &b[0] == &buf[0]; inBuf != (name != "short") {
									t.Fatalf("%s scratch: bucket in the caller's array = %v", name, inBuf)
								}
								got = append(got, append([]int(nil), b...))
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s M=%d %s dev %d (%s scratch): walk %v, want %v",
									alloc.Name(), m, q, dev, name, got, want)
							}
						}
						total += len(want)
					}
					if total != p.RQ {
						t.Fatalf("%s M=%d %s: devices hold %d buckets, |R(q)| = %d", alloc.Name(), m, q, total, p.RQ)
					}
				}
			})
		}
	}
}

// bucketsOnDevice is the brute-force reference for a device walk: R(q)
// filtered by the allocator's Device, sorted into the walk's order.
func bucketsOnDevice(alloc decluster.GroupAllocator, q query.Query, dev int) [][]int {
	fs := alloc.FileSystem()
	free := q.UnspecifiedFields()
	var key []int // the rest fields in field order, then the solved one
	if len(free) > 0 {
		solved := free[0]
		for _, i := range free {
			if fs.Sizes[i] > fs.Sizes[solved] {
				solved = i
			}
		}
		for _, i := range free {
			if i != solved {
				key = append(key, i)
			}
		}
		key = append(key, solved)
	}
	var out [][]int
	q.EachQualified(fs, func(b []int) {
		if alloc.Device(b) == dev {
			out = append(out, append([]int(nil), b...))
		}
	})
	sort.SliceStable(out, func(x, y int) bool {
		for _, i := range key {
			if out[x][i] != out[y][i] {
				return out[x][i] < out[y][i]
			}
		}
		return false
	})
	return out
}

// TestPlanCountsPinTheActiveDevices: for every allocator kind, every
// shape and a spread of specified values, the shape-pure count vector is
// convolve.Profile and — translated by the query's fold — is the
// brute-force load vector, whose maximum is MaxLoad on WorstDevice.
// Compile's ignored third argument changes nothing.
func TestPlanCountsPinTheActiveDevices(t *testing.T) {
	fs := mustFS(t, []int{8, 4, 2}, 8)
	rng := rand.New(rand.NewSource(21))
	for _, alloc := range allAllocators(t, fs) {
		eachShapeQuery(fs, func(q query.Query) {
			p := Compile(alloc, q, 0)
			if profile := convolve.Profile(alloc, q.UnspecifiedFields()); !reflect.DeepEqual(p.counts, profile) ||
				!reflect.DeepEqual(p, Compile(alloc, q, 1)) {
				t.Fatalf("%s %s: plan %+v, with a third argument %+v, profile %v", alloc.Name(), q,
					p, Compile(alloc, q, 1), profile)
			}
			for trial := 0; trial < 8; trial++ {
				for i, v := range q.Spec {
					if v != query.Unspecified {
						q.Spec[i] = rng.Intn(fs.Sizes[i])
					}
				}
				h := p.Fold(q)
				loads := query.Loads(alloc, q)
				for dev, want := range loads {
					if got := p.Count(h, dev); got != want {
						t.Fatalf("%s %s dev %d: count %d, load %d", alloc.Name(), q, dev, got, want)
					}
				}
				if worst := p.WorstDevice(h); loads[worst] != p.MaxLoad || query.LargestLoad(alloc, q) != p.MaxLoad ||
					p.Violates() != (p.MaxLoad > p.Bound) {
					t.Fatalf("%s %s: max load %d on device %d, loads %v, bound %d", alloc.Name(), q, p.MaxLoad, worst, loads, p.Bound)
				}
			}
		})
	}
}

// TestCacheLRUAndStats: at a capacity of 2 the least recently used plan
// is the one evicted, and the snapshot counts it.
func TestCacheLRUAndStats(t *testing.T) {
	fs := mustFS(t, []int{4, 4}, 4)
	fx, _ := decluster.NewFX(fs)
	c := New("memory")
	c.capacity = 2
	defer c.Close()

	lookup := func(q query.Query) *Plan {
		p, _, err := c.Get(q.AppendShape(nil), func() (*Plan, error) { return Compile(fx, q, 0), nil })
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	qA := query.New([]int{query.Unspecified, 1})
	qB := query.New([]int{1, query.Unspecified})
	qC := query.New([]int{query.Unspecified, query.Unspecified})

	pA := lookup(qA)
	if p2 := lookup(qA); p2 != pA {
		t.Error("second lookup did not return the cached plan")
	}
	lookup(qB)
	lookup(qC) // "*s" is now the least recently used: evicted

	s := c.Stats()
	if s.Entries != 2 || len(s.Plans) != 2 || s.Plans[0].Shape != "**" || s.Plans[1].Shape != "s*" {
		t.Errorf("entries = %d, plans %+v, want \"**\" then \"s*\"", s.Entries, s.Plans)
	}
	if s.Hits != 1 || s.Misses != 3 {
		t.Errorf("hits=%d misses=%d, want 1, 3", s.Hits, s.Misses)
	}
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if s.HitRate <= 0 || s.HitRate >= 1 {
		t.Errorf("hit rate = %v", s.HitRate)
	}
}

// TestWarmGetAllocatesNothing: every retrieval looks its plan up, so a hit
// — the shape appended into stack scratch, looked up as bytes — costs no
// allocation at all.
func TestWarmGetAllocatesNothing(t *testing.T) {
	fs := mustFS(t, []int{4, 4}, 4)
	fx, _ := decluster.NewFX(fs)
	c := New("memory")
	defer c.Close()
	q := query.New([]int{1, query.Unspecified})
	get := func() {
		var key [16]byte
		if _, _, err := c.Get(q.AppendShape(key[:0]), func() (*Plan, error) { return Compile(fx, q, 0), nil }); err != nil {
			t.Fatal(err)
		}
	}
	get()
	if n := testing.AllocsPerRun(100, get); n != 0 {
		t.Errorf("a warm Get costs %.0f allocations, want 0", n)
	}
	if s := c.Stats(); s.Misses != 1 || s.Plans[0].Shape != "s*" {
		t.Errorf("misses = %d, plans %+v: want one miss filed under \"s*\"", s.Misses, s.Plans)
	}
}

// TestCacheConcurrentMisses: goroutines that miss one shape together each
// compile (none returns before all 32 are inside compile), the first
// insert wins, and every caller leaves with that one resident plan. Run
// under -race.
func TestCacheConcurrentMisses(t *testing.T) {
	c := New("memory")
	defer c.Close()
	fs := mustFS(t, []int{4, 4}, 4)
	fx, _ := decluster.NewFX(fs)
	q := query.New([]int{0, query.Unspecified})

	const callers = 32
	plans := make([]*Plan, callers)
	var entered atomic.Int32
	all := make(chan struct{})
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, hit, err := c.Get(q.AppendShape(nil), func() (*Plan, error) {
				if entered.Add(1) == callers {
					close(all)
				}
				<-all
				return Compile(fx, q, 0), nil
			})
			if err != nil || hit {
				t.Errorf("caller %d: hit = %v, err = %v", i, hit, err)
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries != 1 || s.Hits != 0 || s.Misses != callers || s.Bytes != plans[0].Bytes() {
		t.Errorf("entries=%d hits=%d misses=%d bytes=%d, want 1 entry of %d bytes, 0 hits, %d misses",
			s.Entries, s.Hits, s.Misses, s.Bytes, plans[0].Bytes(), callers)
	}
	for i, p := range plans {
		if p != plans[0] {
			t.Fatalf("caller %d got plan %p, caller 0 got %p: not the one resident plan", i, p, plans[0])
		}
	}
}

func TestCacheCompileErrorNotCached(t *testing.T) {
	c := New("memory")
	defer c.Close()
	fails := 0
	for i := 0; i < 2; i++ {
		_, _, err := c.Get([]byte("ss"), func() (*Plan, error) {
			fails++
			return nil, fmt.Errorf("boom %d", fails)
		})
		if err == nil {
			t.Fatal("expected compile error")
		}
	}
	if fails != 2 {
		t.Errorf("failed compile ran %d times, want 2 (errors are not cached)", fails)
	}
}

// TestReportFollowsEviction: Report lists a live cache with its resident
// plans, and after a fourth shape meets a capacity of 3 it lists the
// eviction and no longer the evicted plan. A closed cache leaves the
// report.
func TestReportFollowsEviction(t *testing.T) {
	c := New("durable")
	c.capacity = 3
	fs := mustFS(t, []int{4, 4}, 4)
	fx, _ := decluster.NewFX(fs)
	get := func(spec ...int) {
		q := query.New(spec)
		if _, _, err := c.Get(q.AppendShape(nil), func() (*Plan, error) { return Compile(fx, q, 0), nil }); err != nil {
			t.Fatal(err)
		}
	}
	// mine reads the cache's one row off its /debug/plancache view.
	ep := Endpoint(func() *Cache { return c })
	mine := func() (Snapshot, bool) {
		w := httptest.NewRecorder()
		ep.Handler.ServeHTTP(w, httptest.NewRequest("GET", ep.Path, nil))
		var doc []Snapshot
		if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil || len(doc) != 1 {
			t.Fatalf("%s: %d rows (%v): %s", ep.Path, len(doc), err, w.Body)
		}
		return doc[0], doc[0].Backend == "durable" && doc[0].Capacity == 3
	}
	get(query.Unspecified, 0)
	get(0, query.Unspecified)
	get(query.Unspecified, query.Unspecified)
	if s, ok := mine(); !ok || s.Entries != 3 || len(s.Plans) != 3 || s.Evictions != 0 {
		t.Fatalf("Report lists the durable cache as %+v (found %v), want 3 entries, 0 evictions", s, ok)
	}
	get(0, 0)
	s, _ := mine()
	if s.Entries != 3 || s.Evictions != 1 || s.Plans[0].Shape != "ss" || s.Plans[2].Shape != "s*" {
		t.Errorf("after a fourth shape: %+v, want 3 entries, 1 eviction, \"*s\" gone", s)
	}
	c.Close()
	if s, _ := mine(); s.Entries != 0 || len(s.Plans) != 0 {
		t.Errorf("a closed cache still reports %+v", s)
	}
}
