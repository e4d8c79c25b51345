package rebalance

import (
	"strings"
	"testing"

	"fxdist/internal/decluster"
	"fxdist/internal/obs"
)

func mustFS(t *testing.T, sizes []int, m int) decluster.FileSystem {
	t.Helper()
	fs, err := decluster.NewFileSystem(sizes, m)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestPlanGrowthSingleField covers the degenerate one-field file: every
// child bucket's device is determined by the lone field's contribution.
func TestPlanGrowthSingleField(t *testing.T) {
	oldAlloc := decluster.NewModulo(mustFS(t, []int{8}, 4))
	newAlloc := decluster.NewModulo(mustFS(t, []int{16}, 4))
	plan, err := PlanGrowth(oldAlloc, newAlloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Total != 16 {
		t.Fatalf("total %d, want 16", plan.Total)
	}
	if plan.Stayed+plan.Moved != plan.Total {
		t.Fatalf("stayed %d + moved %d != total %d", plan.Stayed, plan.Moved, plan.Total)
	}
	// Low children keep their parent's cell value, hence its device.
	if plan.Stayed < 8 {
		t.Errorf("stayed %d, want at least the 8 low children", plan.Stayed)
	}
}

// TestPlanGrowthWidestField doubles the widest field of a skewed grid.
func TestPlanGrowthWidestField(t *testing.T) {
	fsOld := mustFS(t, []int{16, 2}, 4)
	fsNew := mustFS(t, []int{32, 2}, 4)
	fxOld, err := decluster.NewFX(fsOld)
	if err != nil {
		t.Fatal(err)
	}
	fxNew, err := decluster.NewFX(fsNew)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanGrowth(fxOld, fxNew, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Total != 64 {
		t.Fatalf("total %d, want 64", plan.Total)
	}
	in, out := 0, 0
	for d := 0; d < 4; d++ {
		in += plan.PerDeviceIn[d]
		out += plan.PerDeviceOut[d]
	}
	if in != plan.Moved || out != plan.Moved {
		t.Errorf("per-device in %d / out %d, want both %d", in, out, plan.Moved)
	}
}

// TestPlanGrowthRejectsMismatchedM: growth never changes M; a doubled
// device count is a rescale, not a growth, and must be rejected.
func TestPlanGrowthRejectsMismatchedM(t *testing.T) {
	oldAlloc := decluster.NewModulo(mustFS(t, []int{8, 4}, 4))
	newAlloc := decluster.NewModulo(mustFS(t, []int{16, 4}, 8))
	if _, err := PlanGrowth(oldAlloc, newAlloc, 0); err == nil {
		t.Fatal("PlanGrowth accepted allocators with different M")
	}
}

// TestFileSystemRejectsNonPowerOfTwoM documents the grid precondition
// every rescale inherits: M must be a power of two for the T_M low-bit
// arithmetic to exist at all.
func TestFileSystemRejectsNonPowerOfTwoM(t *testing.T) {
	if _, err := decluster.NewFileSystem([]int{8, 4}, 3); err == nil {
		t.Fatal("NewFileSystem accepted M=3")
	}
	if _, err := decluster.NewFileSystem([]int{8, 4}, 6); err == nil {
		t.Fatal("NewFileSystem accepted M=6")
	}
}

// rescalePair builds old and new allocators from a spec and its doubled
// form.
func rescalePair(t *testing.T, spec decluster.Spec, newM int) (decluster.GroupAllocator, decluster.GroupAllocator) {
	t.Helper()
	oldAlloc, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	nspec, err := spec.Rescaled(newM)
	if err != nil {
		t.Fatal(err)
	}
	newAlloc, err := nspec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return oldAlloc, newAlloc
}

// TestRescaleDerivationIdentity checks PlanRescale's derived owners
// against brute force for the xor/add families, both directions, and
// confirms VerifyDerivation agrees.
func TestRescaleDerivationIdentity(t *testing.T) {
	specs := []decluster.Spec{
		{Sizes: []int{8, 4, 2}, M: 4, Method: decluster.MethodModulo},
		{Sizes: []int{8, 8}, M: 4, Method: decluster.MethodGDM, Multipliers: []int{1, 3}},
	}
	// An FX spec needs planned kinds; derive them from a real plan.
	fx, err := decluster.NewFX(mustFS(t, []int{8, 4, 2}, 4))
	if err != nil {
		t.Fatal(err)
	}
	fxSpec, err := decluster.SpecOf(fx)
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, fxSpec)

	for _, spec := range specs {
		for _, newM := range []int{2 * spec.M, spec.M / 2} {
			oldAlloc, newAlloc := rescalePair(t, spec, newM)
			if err := VerifyDerivation(oldAlloc, newAlloc); err != nil {
				t.Errorf("%s %d→%d: derivation refuted: %v", spec.Method, spec.M, newM, err)
			}
			plan, err := PlanRescale(oldAlloc, newAlloc)
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Derivable {
				t.Errorf("%s %d→%d: plan not derivable", spec.Method, spec.M, newM)
			}
			// Brute force: every bucket's new owner recomputed from
			// scratch must match the plan's move (or be a stay).
			ofs := oldAlloc.FileSystem()
			moved := make(map[int]Move, len(plan.Moves))
			for _, mv := range plan.Moves {
				moved[mv.Bucket] = mv
			}
			ofs.EachBucket(func(b []int) {
				from, to := oldAlloc.Device(b), newAlloc.Device(b)
				idx := ofs.Linear(b)
				if mv, ok := moved[idx]; ok {
					if mv.From != from || mv.To != to {
						t.Errorf("%s %d→%d bucket %d: plan %d→%d, brute force %d→%d",
							spec.Method, spec.M, newM, idx, mv.From, mv.To, from, to)
					}
				} else if from != to {
					t.Errorf("%s %d→%d bucket %d: moved %d→%d but plan says stay",
						spec.Method, spec.M, newM, idx, from, to)
				}
			})
		}
	}
}

// TestRescaleDHWNotDerivable: the DHW latin-square allocator's radical-
// inverse permutation depends on M's bit width, so its owners are NOT
// low-bit derivable across a rescale — the exact planner must still
// produce a correct (just larger) move set.
func TestRescaleDHWNotDerivable(t *testing.T) {
	fsOld := mustFS(t, []int{8, 8}, 4)
	fsNew := mustFS(t, []int{8, 8}, 8)
	oldAlloc := decluster.NewDHW(fsOld)
	newAlloc := decluster.NewDHW(fsNew)
	if err := VerifyDerivation(oldAlloc, newAlloc); err == nil {
		t.Error("VerifyDerivation claims DHW owners are derivable")
	}
	plan, err := PlanRescale(oldAlloc, newAlloc)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Derivable {
		t.Error("plan claims DHW owners are derivable")
	}
	// The plan is still exact: replaying its moves onto the old layout
	// must reproduce the new layout.
	owner := make(map[int]int)
	ofs := oldAlloc.FileSystem()
	ofs.EachBucket(func(b []int) { owner[ofs.Linear(b)] = oldAlloc.Device(b) })
	for _, mv := range plan.Moves {
		if owner[mv.Bucket] != mv.From {
			t.Fatalf("bucket %d: move from %d but owner is %d", mv.Bucket, mv.From, owner[mv.Bucket])
		}
		owner[mv.Bucket] = mv.To
	}
	ofs.EachBucket(func(b []int) {
		if idx := ofs.Linear(b); owner[idx] != newAlloc.Device(b) {
			t.Fatalf("bucket %d: replayed owner %d, new allocator says %d", idx, owner[idx], newAlloc.Device(b))
		}
	})
}

func TestRescaledSpecValidation(t *testing.T) {
	spec := decluster.Spec{Sizes: []int{8, 4}, M: 4, Method: decluster.MethodModulo}
	for _, bad := range []int{4, 3, 16, 1} {
		if _, err := spec.Rescaled(bad); err == nil {
			t.Errorf("Rescaled(%d) from M=4 accepted", bad)
		}
	}
	for _, ok := range []int{8, 2} {
		ns, err := spec.Rescaled(ok)
		if err != nil {
			t.Errorf("Rescaled(%d) from M=4 rejected: %v", ok, err)
		} else if ns.M != ok {
			t.Errorf("Rescaled(%d).M = %d", ok, ns.M)
		}
	}
}

func TestAuditGuard(t *testing.T) {
	rep := obs.BackendAudit{Shapes: []obs.ShapeAudit{
		{Shape: "s**", Queries: 3, MaxDeviation: 1},
		{Shape: "ss*", Queries: 2, MaxDeviation: 0},
	}}
	guard := AuditGuard(func() obs.BackendAudit { return rep }, 8, 4)
	if err := guard(); err != nil {
		t.Errorf("guard rejected a within-bound report: %v", err)
	}
	// Below the query floor.
	floor := AuditGuard(func() obs.BackendAudit { return rep }, 8, 100)
	if err := floor(); err == nil || !strings.Contains(err.Error(), "audited queries") {
		t.Errorf("guard passed below the query floor: %v", err)
	}
	// Deviation beyond the Doerr bound for its free-field count.
	bad := obs.BackendAudit{Shapes: []obs.ShapeAudit{
		{Shape: "ss*", Queries: 10, MaxDeviation: 2}, // bound for 1 free field is 1
	}}
	over := AuditGuard(func() obs.BackendAudit { return bad }, 8, 1)
	if err := over(); err == nil || !strings.Contains(err.Error(), "Doerr") {
		t.Errorf("guard passed an out-of-bound deviation: %v", err)
	}
	// A within-bound shape some new-epoch device answered off-plan for.
	misplaced := obs.BackendAudit{Shapes: []obs.ShapeAudit{
		{Shape: "s**", Queries: 10, Mismatches: 1, MismatchDevice: 5},
	}}
	moved := AuditGuard(func() obs.BackendAudit { return misplaced }, 8, 1)
	if err := moved(); err == nil || !strings.Contains(err.Error(), "mismatch") || !strings.Contains(err.Error(), "device 5") {
		t.Errorf("guard passed a placement mismatch: %v", err)
	}
}
