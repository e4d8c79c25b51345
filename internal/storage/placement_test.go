package storage

import (
	"testing"

	"fxdist/internal/decluster"
	"fxdist/internal/query"
)

func fixture(t *testing.T, m int) (*decluster.FX, decluster.FileSystem) {
	t.Helper()
	fs := decluster.MustFileSystem([]int{16, 16, 8}, m)
	return decluster.MustFX(fs), fs
}

func TestModeString(t *testing.T) {
	if Chained.String() != "chained" || Naive.String() != "naive" {
		t.Error("mode names wrong")
	}
	if ReplicaMode(9).String() != "ReplicaMode(9)" {
		t.Error("unknown mode name wrong")
	}
}

func TestPrimaryBackupRing(t *testing.T) {
	fx, fs := fixture(t, 8)
	p := NewPlacement(fx, Chained)
	fs.EachBucket(func(b []int) {
		prim, back := p.Primary(b), p.Backup(b)
		if back != (prim+1)%fs.M {
			t.Fatalf("bucket %v: backup %d not ring successor of %d", b, back, prim)
		}
	})
}

// With no failures every bucket is served by its primary.
func TestHealthyServesPrimary(t *testing.T) {
	fx, fs := fixture(t, 8)
	for _, mode := range []ReplicaMode{Chained, Naive} {
		p := NewPlacement(fx, mode)
		fs.EachBucket(func(b []int) {
			if p.Server(b) != p.Primary(b) {
				t.Fatalf("mode %v: healthy bucket %v served by %d, primary %d",
					mode, b, p.Server(b), p.Primary(b))
			}
		})
	}
}

func TestFailValidation(t *testing.T) {
	fx, _ := fixture(t, 8)
	p := NewPlacement(fx, Chained)
	if err := p.Fail(-1); err == nil {
		t.Error("negative device accepted")
	}
	if err := p.Fail(8); err == nil {
		t.Error("out-of-range device accepted")
	}
	if err := p.Fail(3); err != nil {
		t.Fatal(err)
	}
	if err := p.Fail(3); err != nil {
		t.Error("re-failing the same device should be a no-op")
	}
	if err := p.Fail(4); err == nil {
		t.Error("adjacent failure accepted (would lose device 3's backups)")
	}
	if err := p.Fail(2); err == nil {
		t.Error("adjacent failure accepted (device 3 holds 2's backups)")
	}
	if err := p.Fail(6); err != nil {
		t.Errorf("non-adjacent second failure rejected: %v", err)
	}
	if err := p.Restore(3); err != nil {
		t.Fatal(err)
	}
	if p.Failed(3) || !p.Failed(6) {
		t.Error("failure state wrong after restore")
	}
	if err := p.Restore(99); err == nil {
		t.Error("restore of out-of-range device accepted")
	}
}

// Every qualified bucket is served exactly once, never by a failed
// device, under both modes and various failure sets.
func TestCompleteSingleService(t *testing.T) {
	fx, fs := fixture(t, 8)
	queries := []query.Query{
		query.All(3),
		query.New([]int{3, query.Unspecified, query.Unspecified}),
		query.New([]int{query.Unspecified, 7, 2}),
	}
	for _, mode := range []ReplicaMode{Chained, Naive} {
		p := NewPlacement(fx, mode)
		if err := p.Fail(2); err != nil {
			t.Fatal(err)
		}
		if err := p.Fail(5); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			loads := p.Loads(q)
			total := 0
			for dev, l := range loads {
				total += l
				if p.Failed(dev) && l != 0 {
					t.Fatalf("mode %v: failed device %d serves %d buckets", mode, dev, l)
				}
			}
			if total != q.NumQualified(fs) {
				t.Fatalf("mode %v query %v: served %d buckets, want %d",
					mode, q, total, q.NumQualified(fs))
			}
		}
	}
}

// The headline result: on the whole-file query, naive failover doubles
// the max load while chained declustering keeps it near M/(M-1).
func TestChainedBeatsNaiveAfterFailure(t *testing.T) {
	fx, fs := fixture(t, 8)
	q := query.All(3)
	perDevice := fs.NumBuckets() / fs.M

	naive := NewPlacement(fx, Naive)
	if err := naive.Fail(3); err != nil {
		t.Fatal(err)
	}
	nd := naive.Degradation(q)
	if nd.DegradedMax != 2*perDevice {
		t.Errorf("naive degraded max = %d, want %d", nd.DegradedMax, 2*perDevice)
	}

	chained := NewPlacement(fx, Chained)
	if err := chained.Fail(3); err != nil {
		t.Fatal(err)
	}
	cd := chained.Degradation(q)
	// Ideal is M/(M-1) = 8/7 of normal; allow slack for the deterministic
	// fractional split at bucket granularity.
	ideal := float64(fs.M) / float64(fs.M-1)
	if cd.Ratio >= nd.Ratio {
		t.Errorf("chained ratio %.3f not better than naive %.3f", cd.Ratio, nd.Ratio)
	}
	if cd.Ratio > ideal*1.25 {
		t.Errorf("chained ratio %.3f far above ideal %.3f", cd.Ratio, ideal)
	}
	if cd.HealthyMax != perDevice {
		t.Errorf("healthy max = %d, want %d", cd.HealthyMax, perDevice)
	}
}

// Restoring the failed device returns service to primaries.
func TestRestoreReturnsToHealthy(t *testing.T) {
	fx, _ := fixture(t, 8)
	p := NewPlacement(fx, Chained)
	q := query.All(3)
	healthy := p.Loads(q)
	if err := p.Fail(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Restore(1); err != nil {
		t.Fatal(err)
	}
	restored := p.Loads(q)
	for d := range healthy {
		if healthy[d] != restored[d] {
			t.Fatalf("device %d: load %d after restore, want %d", d, restored[d], healthy[d])
		}
	}
}

// HealthyLoads must agree with the allocator's convolved loads.
func TestHealthyLoadsMatchAllocator(t *testing.T) {
	fx, _ := fixture(t, 4)
	p := NewPlacement(fx, Chained)
	q := query.New([]int{query.Unspecified, 3, query.Unspecified})
	hl := p.HealthyLoads(q)
	ll := p.Loads(q)
	for d := range hl {
		if hl[d] != ll[d] {
			t.Fatalf("device %d: healthy %d vs served %d", d, hl[d], ll[d])
		}
	}
}

func TestLoadsPanicsOnInvalidQuery(t *testing.T) {
	fx, _ := fixture(t, 4)
	p := NewPlacement(fx, Chained)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid query accepted")
		}
	}()
	p.Loads(query.New([]int{99, 0, 0}))
}
