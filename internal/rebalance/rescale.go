package rebalance

import (
	"fmt"
	"strings"

	"fxdist/internal/decluster"
	"fxdist/internal/obs"
)

// Move is one bucket changing owner in a rescale: the bucket's linear
// index (stable across the rescale — only M changes, never the grid)
// and its old and new devices.
type Move struct {
	Bucket   int
	From, To int
}

// RescalePlan is the full data-movement plan for an elastic rescale
// M→2M (grow) or 2M→M (shrink) over an unchanged bucket grid.
type RescalePlan struct {
	// OldM and NewM are the device counts before and after.
	OldM, NewM int
	// Grow is true for M→2M, false for 2M→M.
	Grow bool
	// Total is the number of buckets in the grid.
	Total int
	// Moves lists every bucket whose owner changes, in linear-index
	// order; Stay counts the rest (Stay + len(Moves) == Total).
	Moves []Move
	Stay  int
	// PerDeviceIn[d] / PerDeviceOut[d] count buckets arriving at and
	// leaving device d; both are sized max(OldM, NewM).
	PerDeviceIn, PerDeviceOut []int
	// Derivable reports whether the T_M low-bit identity held for every
	// move: on a grow each bucket's new owner is its old one or old+M,
	// on a shrink it is old mod NewM. See VerifyDerivation for the
	// per-field congruence this follows from.
	Derivable bool
}

// MoveFraction returns len(Moves) / Total.
func (p RescalePlan) MoveFraction() float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(len(p.Moves)) / float64(p.Total)
}

// PlanRescale compares bucket placement under the old and new
// allocators of an elastic rescale. Both must cover the same field
// sizes; the device counts must differ by exactly a factor of two in
// either direction. The plan is exact — it enumerates the grid — so it
// is correct even for allocator pairs where the low-bit derivation
// identity does not hold (Derivable reports which case applies).
func PlanRescale(oldAlloc, newAlloc decluster.GroupAllocator) (RescalePlan, error) {
	ofs, nfs := oldAlloc.FileSystem(), newAlloc.FileSystem()
	if ofs.NumFields() != nfs.NumFields() {
		return RescalePlan{}, fmt.Errorf("rebalance: field counts differ (%d vs %d)", ofs.NumFields(), nfs.NumFields())
	}
	for i := range ofs.Sizes {
		if ofs.Sizes[i] != nfs.Sizes[i] {
			return RescalePlan{}, fmt.Errorf("rebalance: rescale cannot change field sizes (field %d: %d vs %d)", i, ofs.Sizes[i], nfs.Sizes[i])
		}
	}
	grow := nfs.M == 2*ofs.M
	if !grow && ofs.M != 2*nfs.M {
		return RescalePlan{}, fmt.Errorf("rebalance: rescale %d→%d devices: only doubling or halving is supported", ofs.M, nfs.M)
	}
	maxM := max(ofs.M, nfs.M)
	plan := RescalePlan{
		OldM: ofs.M, NewM: nfs.M, Grow: grow,
		Total:        ofs.NumBuckets(),
		PerDeviceIn:  make([]int, maxM),
		PerDeviceOut: make([]int, maxM),
		Derivable:    true,
	}
	ofs.EachBucket(func(b []int) {
		from, to := oldAlloc.Device(b), newAlloc.Device(b)
		if from == to {
			plan.Stay++
			return
		}
		plan.Moves = append(plan.Moves, Move{Bucket: ofs.Linear(b), From: from, To: to})
		plan.PerDeviceOut[from]++
		plan.PerDeviceIn[to]++
		if grow {
			if to != from+ofs.M {
				plan.Derivable = false
			}
		} else if to != from%nfs.M {
			plan.Derivable = false
		}
	})
	return plan, nil
}

// VerifyDerivation proves (or refutes) the T_M low-bit identity for an
// allocator pair algebraically, in O(sum of field sizes) instead of
// O(grid): if every per-field contribution of the larger-M allocator is
// congruent mod the smaller M to the smaller-M allocator's, then —
// because both xor and addition mod a power of two commute with taking
// low bits — every bucket's devices under the two allocators are
// congruent mod the smaller M. On a grow that pins the new owner to
// {old, old+M}; on a shrink it pins it to old mod NewM. A nil return
// means the identity holds for every bucket.
func VerifyDerivation(oldAlloc, newAlloc decluster.GroupAllocator) error {
	ofs, nfs := oldAlloc.FileSystem(), newAlloc.FileSystem()
	if ofs.NumFields() != nfs.NumFields() {
		return fmt.Errorf("rebalance: field counts differ (%d vs %d)", ofs.NumFields(), nfs.NumFields())
	}
	if oldAlloc.Op() != newAlloc.Op() {
		return fmt.Errorf("rebalance: fold groups differ (%s vs %s)", oldAlloc.Op(), newAlloc.Op())
	}
	small, large := oldAlloc, newAlloc
	if ofs.M > nfs.M {
		small, large = newAlloc, oldAlloc
	}
	m := small.FileSystem().M
	if large.FileSystem().M != 2*m {
		return fmt.Errorf("rebalance: device counts %d and %d do not differ by a factor of two", ofs.M, nfs.M)
	}
	for i, size := range ofs.Sizes {
		if nfs.Sizes[i] != size {
			return fmt.Errorf("rebalance: field %d sized %d vs %d", i, size, nfs.Sizes[i])
		}
		for v := 0; v < size; v++ {
			if large.Contribution(i, v)&(m-1) != small.Contribution(i, v)&(m-1) {
				return fmt.Errorf("rebalance: field %d value %d: contribution %d (M=%d) is not congruent to %d (M=%d) mod %d — owners are not low-bit derivable",
					i, v, large.Contribution(i, v), 2*m, small.Contribution(i, v), m, m)
			}
		}
	}
	return nil
}

// AuditGuard builds the cutover guard the migration driver evaluates
// before releasing the old owners: every audited query shape of the
// new-epoch backend must show a max per-device deviation within the
// Doerr–Hebbinghaus–Werth allowance for the new M and no placement
// mismatch (a bucket copied to the wrong owner, a stale view), and at
// least minQueries retrievals must have been audited at all (a guard
// that has seen no traffic proves nothing). report is typically the
// AuditReport of the new epoch's own reporting bundle.
func AuditGuard(report func() obs.BackendAudit, newM int, minQueries uint64) func() error {
	return func() error {
		rep := report()
		var total uint64
		for _, s := range rep.Shapes {
			total += s.Queries
			bound := decluster.DoerrBound(newM, strings.Count(s.Shape, "*"))
			if s.MaxDeviation > bound {
				return fmt.Errorf("rebalance: shape %s max deviation %d exceeds the Doerr bound %d for M=%d",
					s.Shape, s.MaxDeviation, bound, newM)
			}
			if s.Mismatches > 0 {
				return fmt.Errorf("rebalance: shape %s counted %d placement mismatches on the new epoch (latest on device %d)",
					s.Shape, s.Mismatches, s.MismatchDevice)
			}
		}
		if total < minQueries {
			return fmt.Errorf("rebalance: only %d audited queries on the new epoch, need %d before cutover", total, minQueries)
		}
		return nil
	}
}
