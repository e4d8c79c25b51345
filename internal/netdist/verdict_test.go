package netdist

import (
	"fmt"
	"testing"

	"fxdist/internal/audit"
	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/plancache"
	"fxdist/internal/storage"
	"fxdist/internal/telemetry"
)

// TestPlanVerdictMatchesMergedLoads is the premise of taking the bound
// verdict from the plan instead of the answers: on healthy memory,
// durable and netdist clusters, for FX, Modulo, GDM and DHW at M = 4 and
// 8, every query of every shape of a 4×4×2 grid merges a busiest device
// holding exactly the plan's max load, and when the shape violates the
// bound that device is the plan's h·g*. The audit rows agree: every
// query of a violating shape is a violation, and no device is ever
// called misplaced.
func TestPlanVerdictMatchesMergedLoads(t *testing.T) {
	file := mkhash.MustNew(mkhash.Schema{Fields: []string{"a", "b", "c"}, Depths: []int{2, 2, 1}})
	violating := 0
	for _, m := range []int{4, 8} {
		fs, err := file.FileSystem(m)
		if err != nil {
			t.Fatal(err)
		}
		gdm, err := decluster.NewGDM(fs, []int{1, 3, 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, alloc := range []decluster.GroupAllocator{decluster.MustFX(fs), decluster.NewModulo(fs), gdm, decluster.NewDHW(fs)} {
			mem, err := storage.NewCluster(file, alloc, storage.MainMemory)
			if err != nil {
				t.Fatal(err)
			}
			dur, err := storage.CreateDurable(t.TempDir(), file, alloc, storage.MainMemory)
			if err != nil {
				t.Fatal(err)
			}
			addrs, stop, err := Deploy(file, alloc)
			if err != nil {
				t.Fatal(err)
			}
			coord, err := Dial(file, addrs)
			if err != nil {
				t.Fatal(err)
			}
			// Each cluster audits into its own bundle, empty at open.
			for backend, be := range map[string]struct {
				retrieve func(mkhash.PartialMatch) (engine.Result, error)
				in       *telemetry.Instruments
			}{
				"memory": {mem.Retrieve, mem.Instruments()}, "durable": {dur.Retrieve, dur.Instruments()}, "netdist": {coord.Retrieve, coord.Instruments()},
			} {
				what := fmt.Sprintf("%s/%s/M=%d", backend, alloc.Name(), m)
				violating += planVerdictOnEveryShape(t, what, be.retrieve, be.in.AuditReport, file, alloc)
			}
			coord.Close()
			stop()
			dur.Close()
			mem.Close()
		}
	}
	if violating == 0 {
		t.Error("no shape violated the bound: the worst-device check never ran")
	}
}

// planVerdictOnEveryShape runs three value bindings of every shape of
// file through retrieve and checks each merged load vector, then the
// shape's audit row, against the shape's compiled plan. It returns how
// many shapes violate the bound.
func planVerdictOnEveryShape(t *testing.T, what string, retrieve func(mkhash.PartialMatch) (engine.Result, error),
	report func() audit.BackendReport, file *mkhash.File, alloc decluster.GroupAllocator) (violating int) {
	t.Helper()
	n := len(file.Schema().Fields)
	plans := make(map[string]*plancache.Plan)
	for mask := 0; mask < 1<<n; mask++ {
		for trial := 0; trial < 3; trial++ {
			pm := make(mkhash.PartialMatch, n)
			for i := range pm {
				if mask&(1<<i) == 0 {
					v := fmt.Sprintf("v%d", trial*n+i)
					pm[i] = &v
				}
			}
			q, err := file.BucketQuery(pm)
			if err != nil {
				t.Fatal(err)
			}
			p := plancache.Compile(alloc, q, 0)
			plans[p.Shape] = p
			res, err := retrieve(pm)
			if err != nil {
				t.Fatalf("%s %s: %v", what, q, err)
			}
			if res.LargestResponseSize != p.MaxLoad {
				t.Fatalf("%s %s: merged buckets %v, plan max load %d", what, q, res.DeviceBuckets, p.MaxLoad)
			}
			if worst := p.WorstDevice(p.Fold(q)); p.Violates() && res.DeviceBuckets[worst] != p.MaxLoad {
				t.Fatalf("%s %s: merged buckets %v, plan's worst device %d", what, q, res.DeviceBuckets, worst)
			}
		}
	}
	rows := report().Shapes
	if len(rows) != len(plans) {
		t.Fatalf("%s: %d audit rows for %d shapes", what, len(rows), len(plans))
	}
	for _, s := range rows {
		p := plans[s.Shape]
		want := uint64(0)
		if p.Violates() {
			want = 3
			violating++
		}
		if s.Queries != 3 || s.Violations != want || s.Mismatches != 0 ||
			s.MaxBuckets != p.MaxLoad || s.MaxDeviation != max(0, p.MaxLoad-p.Bound) {
			t.Fatalf("%s shape %s: audit row %+v, plan max load %d bound %d", what, s.Shape, s, p.MaxLoad, p.Bound)
		}
	}
	return violating
}
