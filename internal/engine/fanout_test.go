package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/query"
)

// askedDevice enumerates its device's qualified buckets with the inverse
// mapper and logs every scan: which device was asked, and for which
// buckets. owner < 0 makes it a device that does not declare its owner.
type askedDevice struct {
	im    *query.InverseMapper
	dev   int
	owner int
	log   *askLog
}

type askLog struct {
	mu      sync.Mutex
	asked   map[int]bool
	buckets []string
}

func (d askedDevice) Scan(_ context.Context, q query.Query, _ mkhash.PartialMatch) (engine.Answer, error) {
	var ans engine.Answer
	d.log.mu.Lock()
	defer d.log.mu.Unlock()
	d.log.asked[d.dev] = true
	d.im.EachOnDevice(q, d.dev, func(b []int) {
		ans.Buckets++
		d.log.buckets = append(d.log.buckets, fmt.Sprint(b))
	})
	return ans, nil
}

// ownedDevice is an askedDevice that declares its owner.
type ownedDevice struct{ askedDevice }

func (d ownedDevice) Owner() int { return d.owner }

// TestFanOutAsksExactlyTheActiveDevices is the pruning property: over
// every shape of a 3-field file and 40 random value bindings of each
// (320 queries), the executor asks exactly the devices that hold a
// qualified bucket (query.Loads), the buckets those devices enumerate
// are R(q) — each once — and the per-device counts are the loads, which
// sum to |R(q)|; a device that does not declare its owner is asked
// regardless.
func TestFanOutAsksExactlyTheActiveDevices(t *testing.T) {
	f := mkhash.MustNew(mkhash.Schema{Fields: []string{"a", "b", "c"}, Depths: []int{3, 2, 1}})
	fs, err := f.FileSystem(8)
	if err != nil {
		t.Fatal(err)
	}
	alloc := decluster.MustFX(fs)
	im := query.NewInverseMapper(alloc)
	const undeclared = 5 // this slot's device does not implement Owner
	log := &askLog{}
	devs := make([]engine.Device, fs.M)
	for dev := range devs {
		d := askedDevice{im: im, dev: dev, owner: dev, log: log}
		if dev == undeclared {
			devs[dev] = d
		} else {
			devs[dev] = ownedDevice{d}
		}
	}
	e, err := engine.New(planned(t, f, engine.Config{Alloc: alloc, Devices: devs}))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for mask := 0; mask < 1<<3; mask++ {
		for trial := 0; trial < 40; trial++ {
			pm := make(mkhash.PartialMatch, 3)
			for i := range pm {
				if mask&(1<<i) == 0 {
					v := fmt.Sprintf("v%d", rng.Intn(64))
					pm[i] = &v
				}
			}
			q, err := f.BucketQuery(pm)
			if err != nil {
				t.Fatal(err)
			}
			log.asked, log.buckets = map[int]bool{}, nil
			got, err := e.Retrieve(context.Background(), pm)
			if err != nil {
				t.Fatal(err)
			}
			total, largest := 0, 0
			for dev, load := range query.Loads(alloc, q) {
				total += got.DeviceBuckets[dev]
				largest = max(largest, load)
				if got.DeviceBuckets[dev] != load {
					t.Fatalf("%s dev %d: %d buckets, load %d", q, dev, got.DeviceBuckets[dev], load)
				}
				if asked := log.asked[dev]; asked != (load > 0 || dev == undeclared) {
					t.Fatalf("%s dev %d: asked=%v with load %d", q, dev, asked, load)
				}
			}
			if rq := q.NumQualified(fs); total != rq || got.LargestResponseSize != largest {
				t.Fatalf("%s: device buckets sum to %d (|R(q)| = %d), largest %d (max load %d)",
					q, total, rq, got.LargestResponseSize, largest)
			}
			var rq []string
			q.EachQualified(fs, func(b []int) { rq = append(rq, fmt.Sprint(b)) })
			sort.Strings(rq)
			sort.Strings(log.buckets)
			if fmt.Sprint(rq) != fmt.Sprint(log.buckets) {
				t.Fatalf("%s: asked devices enumerate %v, R(q) = %v", q, log.buckets, rq)
			}
		}
	}
}
