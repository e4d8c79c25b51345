package plancache

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
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

// allAllocators builds one allocator of each group kind over fs.
func allAllocators(t *testing.T, fs decluster.FileSystem) []decluster.GroupAllocator {
	t.Helper()
	fx, err := decluster.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	gdm, err := decluster.NewGDM(fs, []int{3, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	return []decluster.GroupAllocator{fx, decluster.NewModulo(fs), gdm}
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

// TestPlanMatchesInverseMapper is the core soundness check: for every
// allocator kind, shape and device, the compiled plan enumerates exactly
// the buckets the InverseMapper does, in the same order.
func TestPlanMatchesInverseMapper(t *testing.T) {
	fs := mustFS(t, []int{8, 4, 2}, 8)
	for _, alloc := range allAllocators(t, fs) {
		im := query.NewInverseMapper(alloc)
		eachShapeQuery(fs, func(q query.Query) {
			p := Compile(alloc, q, 0)
			if !p.Ready() {
				t.Fatalf("%s %s: plan not ready", alloc.Name(), q)
			}
			if want := q.NumQualified(fs); p.RQ != want {
				t.Errorf("%s %s: RQ = %d, want %d", alloc.Name(), q, p.RQ, want)
			}
			total := 0
			for dev := 0; dev < fs.M; dev++ {
				var got, want [][]int
				w := p.Walk(q, dev, nil)
				for b := w.Next(); b != nil; b = w.Next() {
					got = append(got, append([]int(nil), b...))
				}
				im.EachOnDevice(q, dev, func(b []int) {
					want = append(want, append([]int(nil), b...))
				})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s dev %d: plan buckets %v, inverse mapper %v",
						alloc.Name(), q, dev, got, want)
				}
				if n := p.CountOnDevice(q, dev); n != len(want) {
					t.Errorf("%s %s dev %d: count %d, want %d", alloc.Name(), q, dev, n, len(want))
				}
				total += len(got)
			}
			if total != p.RQ {
				t.Errorf("%s %s: devices enumerate %d buckets, |R(q)| = %d",
					alloc.Name(), q, total, p.RQ)
			}
		})
	}
}

// TestPlanCountsPinTheActiveDevices: for every allocator kind, every
// shape and a spread of specified values, the shape-pure count vector is
// convolve.Profile, equals the tuple-group sizes, and — translated by the
// query's fold — is the brute-force load vector: so MayHold is false
// exactly on the devices that hold no qualified bucket. A plan capped to
// counts alone (the coordinator's) says the same; a summary plan knows
// nothing and lets every device be asked.
func TestPlanCountsPinTheActiveDevices(t *testing.T) {
	fs := mustFS(t, []int{8, 4, 2}, 8)
	allocs := append(allAllocators(t, fs), decluster.NewDHW(fs))
	rng := rand.New(rand.NewSource(21))
	for _, alloc := range allocs {
		eachShapeQuery(fs, func(q query.Query) {
			full, capped := Compile(alloc, q, 0), Compile(alloc, q, 1)
			if !reflect.DeepEqual(full.counts, convolve.Profile(alloc, full.Unspec)) ||
				!reflect.DeepEqual(full.counts, capped.counts) {
				t.Fatalf("%s %s: counts %v / capped %v, profile %v", alloc.Name(), q,
					full.counts, capped.counts, convolve.Profile(alloc, full.Unspec))
			}
			if capped.Ready() && capped.RQ > 1 {
				t.Fatalf("%s %s: plan capped at 1 tuple carries %d", alloc.Name(), q, capped.Tuples())
			}
			if k := len(full.Unspec); k > 0 {
				for g, ts := range full.tuples {
					if len(ts)/k != full.counts[g] {
						t.Fatalf("%s %s group %d: %d tuples, count %d", alloc.Name(), q, g, len(ts)/k, full.counts[g])
					}
				}
			}
			for trial := 0; trial < 8; trial++ {
				for i, v := range q.Spec {
					if v != query.Unspecified {
						q.Spec[i] = rng.Intn(fs.Sizes[i])
					}
				}
				loads, h := query.Loads(alloc, q), capped.Fold(q)
				for dev, want := range loads {
					if got := capped.CountOnDevice(q, dev); got != want {
						t.Fatalf("%s %s dev %d: count %d, load %d", alloc.Name(), q, dev, got, want)
					}
					if capped.MayHold(h, dev) != (want > 0) || full.MayHold(full.Fold(q), dev) != (want > 0) {
						t.Fatalf("%s %s dev %d: MayHold disagrees with load %d", alloc.Name(), q, dev, want)
					}
				}
			}
			sum := Summary(q, full.RQ, fs.M)
			for dev := 0; dev < fs.M; dev++ {
				if !sum.MayHold(sum.Fold(q), dev) {
					t.Fatalf("%s: summary plan rules device %d out", q, dev)
				}
			}
		})
	}
}

// TestCompileMaxTuples: shapes past the cap compile to summary-only
// plans that still carry the audit numbers.
func TestCompileMaxTuples(t *testing.T) {
	fs := mustFS(t, []int{8, 8}, 4)
	fx, err := decluster.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	q := query.New([]int{query.Unspecified, query.Unspecified})
	p := Compile(fx, q, 16) // |R(q)| = 64 > 16
	if p.Ready() {
		t.Error("plan over the tuple cap should not carry tuples")
	}
	if p.RQ != 64 || p.Bound != 16 {
		t.Errorf("summary plan RQ=%d bound=%d, want 64, 16", p.RQ, p.Bound)
	}
}

func TestSummaryPlan(t *testing.T) {
	q := query.New([]int{3, query.Unspecified})
	p := Summary(q, 40, 16)
	if p.Ready() {
		t.Error("summary plan reports Ready")
	}
	if p.Shape != "s*" || p.RQ != 40 || p.Bound != 3 {
		t.Errorf("summary = %+v", p)
	}
}

func TestIdentityDistinguishesRebuiltAllocators(t *testing.T) {
	fs := mustFS(t, []int{4, 4}, 4)
	a1, _ := decluster.NewFX(fs)
	a2, _ := decluster.NewFX(fs)
	if IdentityOf(a1) == IdentityOf(a2) {
		t.Error("two allocator instances share an identity")
	}
	if IdentityOf(a1) != IdentityOf(a1) {
		t.Error("identity not stable")
	}
}

func TestCacheLRUAndStats(t *testing.T) {
	fs := mustFS(t, []int{4, 4}, 4)
	fx, _ := decluster.NewFX(fs)
	c := New("memory")
	c.Resize(2)
	defer c.Close()
	owner := IdentityOf(fx)

	compileShape := func(shape string, q query.Query) *Plan {
		p, _, err := c.Get(Key{Owner: owner, Shape: shape}, func() (*Plan, error) {
			return Compile(fx, q, 0), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	qA := query.New([]int{query.Unspecified, 1})
	qB := query.New([]int{1, query.Unspecified})
	qC := query.New([]int{query.Unspecified, query.Unspecified})

	pA := compileShape("*s", qA)
	if p2 := compileShape("*s", qA); p2 != pA {
		t.Error("second lookup did not return the cached plan")
	}
	compileShape("s*", qB)
	compileShape("**", qC) // evicts "*s" (LRU: "*s" was touched last at lookup 2... )

	s := c.Stats()
	if s.Entries != 2 {
		t.Errorf("entries = %d, want 2", s.Entries)
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

func TestCacheSingleflight(t *testing.T) {
	c := New("memory")
	defer c.Close()
	var compiles int
	gate := make(chan struct{})
	key := Key{Owner: 1, Shape: "s*"}
	q := query.New([]int{0, query.Unspecified})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.Get(key, func() (*Plan, error) {
				compiles++ // guarded by singleflight: only one caller runs this
				<-gate
				return Summary(q, 4, 4), nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	// Let the flight leader block in compile while the rest pile up, then
	// release everyone.
	for {
		c.mu.Lock()
		n := len(c.flights)
		c.mu.Unlock()
		if n == 1 {
			break
		}
	}
	close(gate)
	wg.Wait()
	if compiles != 1 {
		t.Errorf("compile ran %d times, want 1", compiles)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 7 {
		t.Errorf("hits=%d misses=%d, want 7, 1", s.Hits, s.Misses)
	}
}

func TestCacheCompileErrorNotCached(t *testing.T) {
	c := New("memory")
	defer c.Close()
	key := Key{Owner: 9, Shape: "ss"}
	fails := 0
	for i := 0; i < 2; i++ {
		_, _, err := c.Get(key, func() (*Plan, error) {
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

func TestReportAndResize(t *testing.T) {
	c := New("durable")
	c.Resize(4)
	defer c.Close()
	fs := mustFS(t, []int{4, 4}, 4)
	fx, _ := decluster.NewFX(fs)
	owner := IdentityOf(fx)
	shapes := []query.Query{
		query.New([]int{query.Unspecified, 0}),
		query.New([]int{0, query.Unspecified}),
		query.New([]int{query.Unspecified, query.Unspecified}),
	}
	for _, q := range shapes {
		q := q
		c.Get(Key{Owner: owner, Shape: q.Shape()}, func() (*Plan, error) { //nolint:errcheck
			return Compile(fx, q, 0), nil
		})
	}
	found := false
	for _, s := range Report() {
		if s.Backend == "durable" && s.Entries == 3 {
			found = true
			if len(s.Plans) != 3 {
				t.Errorf("snapshot lists %d plans, want 3", len(s.Plans))
			}
		}
	}
	if !found {
		t.Error("Report does not include the durable cache with 3 entries")
	}
	c.Resize(1)
	if s := c.Stats(); s.Entries != 1 || s.Evictions != 2 {
		t.Errorf("after Resize(1): entries=%d evictions=%d, want 1, 2", s.Entries, s.Evictions)
	}
}
