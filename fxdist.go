// Package fxdist implements FX (Fieldwise eXclusive-or) declustering for
// partial match retrieval, reproducing Kim & Pramanik, "Optimal File
// Distribution For Partial Match Retrieval", SIGMOD 1988, together with
// the Modulo and GDM baseline allocation methods, the paper's optimality
// theory, a multi-key hashed file substrate, and a parallel device
// simulator.
//
// # Overview
//
// A multi-key hashed file is a grid of buckets f_1 x ... x f_n (field i is
// hashed into F_i cells, F_i a power of two). To answer partial match
// queries — queries that specify some fields and leave others free — on M
// parallel devices with maximum concurrency, the buckets must be
// *declustered* so that every query's qualified buckets spread evenly.
//
// FX places bucket <J_1..J_n> on device
//
//	T_M( X_1(J_1) xor ... xor X_n(J_n) )
//
// where T_M keeps the low log2(M) bits and each X_i is a field
// transformation (identity for F_i >= M; I, U, IU1 or IU2 for smaller
// fields). The library plans transformations automatically following the
// paper's Theorem 9 and §4.2 guidance.
//
// # Quick start
//
//	fs, _ := fxdist.NewFileSystem([]int{8, 8, 4}, 16) // F_i, M
//	fx, _ := fxdist.NewFX(fs)
//	dev := fx.Device([]int{3, 5, 1})                  // bucket -> device
//	q := fxdist.NewQuery([]int{3, fxdist.Unspecified, fxdist.Unspecified})
//	loads := fxdist.Loads(fx, q)                      // per-device buckets
//
// See the examples directory for record-level usage with the multi-key
// hash file and the parallel device simulator.
package fxdist

import (
	"fxdist/internal/convolve"
	"fxdist/internal/decluster"
	"fxdist/internal/field"
	"fxdist/internal/optimal"
	"fxdist/internal/query"
)

// FileSystem describes a bucket grid: per-field hashed domain sizes
// (powers of two) and the parallel device count M (a power of two).
type FileSystem = decluster.FileSystem

// NewFileSystem validates and builds a FileSystem.
func NewFileSystem(sizes []int, m int) (FileSystem, error) {
	return decluster.NewFileSystem(sizes, m)
}

// Allocator maps bucket coordinate vectors to devices 0..M-1.
type Allocator = decluster.Allocator

// GroupAllocator is an Allocator whose device function folds per-field
// contributions under a commutative group on Z_M; FX, Modulo and GDM all
// are. Load analysis and inverse mapping require this interface.
type GroupAllocator = decluster.GroupAllocator

// FX is the paper's fieldwise exclusive-or allocator.
type FX = decluster.FX

// Modulo is the Disk Modulo baseline [DuSo82].
type Modulo = decluster.Modulo

// GDM is the Generalized Disk Modulo baseline [DuSo82].
type GDM = decluster.GDM

// DHW is the Doerr–Hebbinghaus–Werth latin-square low-discrepancy
// allocator: each field contributes one row of a latin square over Z_M
// built from the bit-reversal radical inverse, folded under addition.
type DHW = decluster.DHW

// Transformation method kinds (paper §4.1).
const (
	// I is the identity transformation.
	I = field.I
	// U spreads a small field equally over Z_M: l -> l * (M/F).
	U = field.U
	// IU1 xor-folds a small field: l -> l xor l*(M/F).
	IU1 = field.IU1
	// IU2 doubly xor-folds: l -> l xor l*d1 xor l*d2.
	IU2 = field.IU2
)

// Kind identifies a field transformation method.
type Kind = field.Kind

// TransformFamily selects IU1 or IU2 as the planner's xor-folded method.
type TransformFamily = field.Family

// Planner families.
const (
	// FamilyIU1 cycles I, U, IU1 (used in the paper's Tables 7-8).
	FamilyIU1 = field.FamilyIU1
	// FamilyIU2 cycles I, U, IU2 (used in Table 9; subsumes IU1).
	FamilyIU2 = field.FamilyIU2
)

// PlanOption configures transformation planning for NewFX.
type PlanOption = field.PlanOption

// WithKinds fixes the per-field transformation methods explicitly.
func WithKinds(kinds []Kind) PlanOption { return field.WithKinds(kinds) }

// WithFamily selects the xor-folded transform family (default FamilyIU2).
func WithFamily(fam TransformFamily) PlanOption { return field.WithFamily(fam) }

// WithRoundRobinPlan forces the paper's Tables 7-9 transform assignment:
// cycling I, U, then the family transform (see WithFamily) over fields
// smaller than M, in field order.
func WithRoundRobinPlan() PlanOption { return field.WithStrategy(field.RoundRobin) }

// NewFX builds an Extended FX allocator, planning field transformations
// per the paper's §4.2 guidance (options override the plan).
func NewFX(fs FileSystem, opts ...PlanOption) (*FX, error) {
	return decluster.NewFX(fs, opts...)
}

// NewBasicFX builds the Basic FX allocator of §3 (identity transform on
// every field).
func NewBasicFX(fs FileSystem) (*FX, error) { return decluster.NewBasicFX(fs) }

// NewModulo builds the Disk Modulo allocator: device = (sum J_i) mod M.
func NewModulo(fs FileSystem) *Modulo { return decluster.NewModulo(fs) }

// NewGDM builds a Generalized Disk Modulo allocator:
// device = (sum a_i * J_i) mod M.
func NewGDM(fs FileSystem, multipliers []int) (*GDM, error) {
	return decluster.NewGDM(fs, multipliers)
}

// NewDHW builds the latin-square low-discrepancy allocator — the
// large-M baseline whose per-query deviations grow polylogarithmically
// in M (Doerr, Hebbinghaus, Werth).
func NewDHW(fs FileSystem) *DHW { return decluster.NewDHW(fs) }

// DoerrBound returns the per-device deviation allowance over the strict
// bound ceil(|R(q)|/M) that low-discrepancy declustering grants a query
// leaving freeFields dimensions unspecified: O((log M)^(freeFields-1)),
// floored at 1. The rescale auditor gates cutover on it.
func DoerrBound(m, freeFields int) int { return decluster.DoerrBound(m, freeFields) }

// TableAllocator is an explicit bucket-to-device mapping — the escape
// hatch for methods that are not group folds (it satisfies Allocator but
// not GroupAllocator, so analyses fall back to enumeration).
type TableAllocator = decluster.Table

// NewTableAllocator wraps an explicit device vector, indexed by
// row-major linear bucket order.
func NewTableAllocator(fs FileSystem, devices []int) (*TableAllocator, error) {
	return decluster.NewTable(fs, devices)
}

// NewMSP builds the minimal-spanning-path declustering heuristic of Fang,
// Lee & Chang [FaRC86] — the third prior method the paper's related work
// names. O(B^2) construction; small grids only.
func NewMSP(fs FileSystem) *TableAllocator { return decluster.NewMSP(fs) }

// Unspecified marks a free field in a Query.
const Unspecified = query.Unspecified

// Query is a bucket-level partial match query.
type Query = query.Query

// NewQuery builds a query from hashed field values (or Unspecified).
func NewQuery(spec []int) Query { return query.New(spec) }

// AllQuery returns the query with all n fields unspecified.
func AllQuery(n int) Query { return query.All(n) }

// Loads returns the per-device qualified-bucket counts (response sizes)
// for q under a, computed exactly by group convolution.
func Loads(a GroupAllocator, q Query) []int { return convolve.Loads(a, q) }

// LargestLoad returns the largest response size for q under a — the
// quantity that determines parallel response time (§5.2.1).
func LargestLoad(a GroupAllocator, q Query) int {
	max := 0
	for _, v := range convolve.Loads(a, q) {
		if v > max {
			max = v
		}
	}
	return max
}

// InverseMapper enumerates, per device, the qualified buckets of a query
// that reside on that device — without scanning the bucket grid (§4.2).
type InverseMapper = query.InverseMapper

// NewInverseMapper precomputes reverse contribution indexes for a.
func NewInverseMapper(a GroupAllocator) *InverseMapper {
	return query.NewInverseMapper(a)
}

// StrictOptimal reports whether a is strict optimal for q: no device holds
// more than ceil(|R(q)|/M) qualified buckets. Exact.
func StrictOptimal(a GroupAllocator, q Query) bool {
	return optimal.StrictForQuery(a, q)
}

// KOptimal reports whether a is strict optimal for every query with
// exactly k unspecified fields. Exact.
func KOptimal(a GroupAllocator, k int) bool { return optimal.KOptimal(a, k) }

// PerfectOptimal reports whether a is k-optimal for all k = 0..n. Exact.
func PerfectOptimal(a GroupAllocator) bool { return optimal.PerfectOptimal(a) }

// OptimalityWitness describes a query class on which an allocator misses
// strict optimality.
type OptimalityWitness = optimal.Witness

// FindWitness returns a minimal-k query class for which a is not strict
// optimal, or ok=false when a is perfect optimal.
func FindWitness(a GroupAllocator) (w OptimalityWitness, ok bool) {
	return optimal.FindWitness(a)
}

// FXGuaranteed evaluates the paper's §4.2 sufficient conditions: true
// means the theory guarantees x is strict optimal for every query with
// q's unspecified field set (false means "not guaranteed", not "not
// optimal").
func FXGuaranteed(x *FX, q Query) bool {
	return optimal.FXSufficient(x, q.UnspecifiedFields())
}

// ModuloGuaranteed evaluates the [DuSo82] sufficient condition for Modulo
// allocation.
func ModuloGuaranteed(fs FileSystem, q Query) bool {
	return optimal.ModuloSufficient(fs, q.UnspecifiedFields())
}
