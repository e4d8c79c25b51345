package fxdist

import (
	"fxdist/internal/design"
	"fxdist/internal/storage"
)

// Availability: chained declustering on top of any group allocator, and
// the classic directory design problem that precedes declustering.

// ReplicaMode selects the failover policy of a replicated placement.
type ReplicaMode = storage.ReplicaMode

// Failover policies.
const (
	// ChainedFailover spreads a failed device's load around the ring
	// (max per-device load M/(M-1) of normal).
	ChainedFailover = storage.Chained
	// NaiveFailover serves all of a failed device's buckets from its one
	// backup holder (max load 2x normal).
	NaiveFailover = storage.Naive
)

// ReplicaPlacement wraps an allocator with primary/backup placement
// (backup on the ring successor) and failure-aware bucket service.
type ReplicaPlacement = storage.Placement

// DegradationReport compares largest response sizes with and without the
// current failures.
type DegradationReport = storage.DegradationReport

// NewReplicaPlacement builds a healthy placement over the allocator.
func NewReplicaPlacement(alloc GroupAllocator, mode ReplicaMode) *ReplicaPlacement {
	return storage.NewPlacement(alloc, mode)
}

// DesignField is one field's directory-design input: how often queries
// specify it, and an optional depth cap.
type DesignField = design.Field

// DesignResult is an optimal depth assignment.
type DesignResult = design.Result

// DesignDepths optimally assigns totalBits directory bits across fields
// to minimize the expected number of qualified buckets per query (the
// Aho-Ullman / Rothnie-Lozano file design problem; greedy, provably
// optimal for this objective).
func DesignDepths(totalBits int, fields []DesignField) (DesignResult, error) {
	return design.Depths(totalBits, fields)
}

// DirectoryBitsFor returns the directory budget needed to hold records at
// the target mean bucket occupancy.
func DirectoryBitsFor(records, occupancy int) (int, error) {
	return design.BitsFor(records, occupancy)
}

// ExpectedQualifiedBuckets evaluates the design objective for an explicit
// depth assignment.
func ExpectedQualifiedBuckets(depths []int, probs []float64) float64 {
	return design.ExpectedQualified(depths, probs)
}
