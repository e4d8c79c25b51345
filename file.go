package fxdist

import (
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/storage"
	"fxdist/internal/workload"
)

// Record is one tuple of a multi-key hashed file.
type Record = mkhash.Record

// Schema names a file's fields and fixes the initial per-field directory
// depths (field i starts with 2^Depths[i] hash cells).
type Schema = mkhash.Schema

// File is a multi-key hashed file: records hash field-wise into a bucket
// grid, the substrate the paper's declustering operates on.
type File = mkhash.File

// PartialMatch is a value-level partial match query over a File; nil
// entries are unspecified fields.
type PartialMatch = mkhash.PartialMatch

// FileOption configures NewFile.
type FileOption = mkhash.Option

// WithFieldHash overrides the hash function of one field.
func WithFieldHash(fieldIdx int, h mkhash.FieldHash) FileOption {
	return mkhash.WithHash(fieldIdx, h)
}

// NewFile builds an empty multi-key hashed file.
func NewFile(schema Schema, opts ...FileOption) (*File, error) {
	return mkhash.New(schema, opts...)
}

// Synthetic relations (§5's query model: fields specified independently
// with equal probability).

// FieldSpec describes one synthetic field's value universe.
type FieldSpec = workload.FieldSpec

// RecordSpec describes a synthetic relation.
type RecordSpec = workload.RecordSpec

// GenerateRecords generates n records under the spec, deterministically
// for a seed.
func GenerateRecords(spec RecordSpec, n int, seed int64) ([]Record, error) {
	return workload.Records(spec, n, seed)
}

// GenerateSchema derives a file schema from a record spec and per-field
// directory depths.
func GenerateSchema(spec RecordSpec, depths []int) Schema {
	return workload.Schema(spec, depths)
}

// GeneratePartialMatches generates value-level queries, each field
// specified independently with probability p.
func GeneratePartialMatches(spec RecordSpec, count int, p float64, seed int64) ([]PartialMatch, error) {
	return workload.PartialMatches(spec, count, p, seed)
}

// MemoryCluster distributes a File's buckets over M simulated parallel
// devices according to a declustering allocator, and answers partial
// match queries in parallel with per-device inverse mapping. All cluster
// kinds — MemoryCluster, DurableCluster, ReplicatedCluster and the
// distributed Coordinator — retrieve through one shared engine executor
// and therefore share the same capabilities: RetrieveContext
// (cancellation/deadlines) and RetrieveBatch (multi-query pipelining
// over one bounded worker pool). Most callers should build clusters
// through Open, whose unified Cluster handle wraps every kind.
type MemoryCluster = storage.Cluster

// DeviceFailure wraps one device's retrieval failure with the failing
// device's id. A failed retrieval reports every failing device in its
// error; match individual failures with errors.As.
type DeviceFailure = engine.DeviceFailure

// TracedError wraps a retrieval error with the trace id of the failed
// retrieval — every retrieval error from a traced cluster carries one,
// so log lines join against the cluster's RecentTraces (its
// /debug/traces) and each device server's /debug/traces. Match with
// errors.As; Unwrap exposes the underlying cause.
type TracedError = engine.TracedError

// QueryError is one failed query of a RetrieveBatch: its index in the
// batch and the cause. RetrieveBatch's error joins one per failed
// query; match with errors.As (or walk the join) to hand each caller of
// a shared batch its own failure.
type QueryError = engine.QueryError

// RetrieveResult reports a parallel retrieval: matching records and the
// per-device bucket and record counts that §5.2.1's cost model prices.
type RetrieveResult = storage.Result

// ReplicatedCluster is a simulated cluster with chained-declustering
// replication: each bucket is stored on its primary device and the ring
// successor, devices can Fail and Restore, and retrieval keeps answering
// through any single failure.
type ReplicatedCluster = storage.ReplicatedCluster

// DurableCluster is the disk-backed cluster: every device persists its
// bucket partition in a crash-safe log under one directory, with the
// schema and allocator spec in a metadata snapshot.
type DurableCluster = storage.DurableCluster
