// Package engine is the unified retrieval engine behind every cluster
// backend: one executor that plans a partial match query, fans it out to
// a set of Devices on a bounded worker pool, and merges the per-device
// answers under the paper's §5.2.1 cost model.
//
// The paper's §4.2 inverse mapping — each device enumerates only its own
// qualified buckets — is a property of the Device implementations; the
// engine owns everything around it: query lowering and validation (once,
// not per backend), context cancellation and deadlines, failover
// rerouting, cost aggregation, metrics, and trace spans. The in-memory
// simulator, the disk-backed durable cluster, the replicated cluster and
// the TCP coordinator are all thin Device adapters over this executor,
// so capabilities like multi-query batching exist once and work
// everywhere.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/pagestore"
	"fxdist/internal/query"
)

// CostModel is the per-device service time model of §5.2.1. Service time
// for a query on one device is PerQuery + buckets*PerBucket +
// records*PerRecord. The zero CostModel costs nothing — backends with no
// simulated hardware (the TCP coordinator) use it and report zero times.
type CostModel struct {
	Name string
	// PerQuery is the fixed per-device overhead of dispatching one query.
	PerQuery time.Duration
	// PerBucket is the cost of accessing one qualified bucket (for disks:
	// seek + rotational latency + transfer of one bucket).
	PerBucket time.Duration
	// PerRecord is the cost of scanning or shipping one record.
	PerRecord time.Duration
}

// DeviceTime returns the model's service time for one device's work on
// one query — the §5.2.1 formula in its only implementation.
func (m CostModel) DeviceTime(buckets, records int) time.Duration {
	return m.PerQuery +
		time.Duration(buckets)*m.PerBucket +
		time.Duration(records)*m.PerRecord
}

// ParallelDisk models late-1980s disks on a shared bus: ~28 ms per bucket
// access (16 ms average seek + 8.3 ms rotational latency + transfer), plus
// per-record transfer cost.
var ParallelDisk = CostModel{Name: "parallel-disk", PerQuery: 1 * time.Millisecond, PerBucket: 28 * time.Millisecond, PerRecord: 50 * time.Microsecond}

// MainMemory models a multiprocessor main-memory database node: bucket
// access is a few microseconds of address computation and pointer chasing.
var MainMemory = CostModel{Name: "main-memory", PerQuery: 2 * time.Microsecond, PerBucket: 2 * time.Microsecond, PerRecord: 200 * time.Nanosecond}

// Answer is one device's contribution to a retrieval.
type Answer struct {
	// Buckets is the number of qualified buckets the device accessed.
	Buckets int
	// Records is the number of records the device scanned.
	Records int
	// Hits are the matching records. Devices draw the slice from
	// HitsPool (via SlicePool.AppendOne); the executor's merge consumes
	// it and returns the slab to the pool, so a device must not retain
	// Hits after returning the Answer.
	Hits []mkhash.Record
	// Found are hits still encoded, as a durable device collected them;
	// the merge builds every device's through one reservation, after its
	// Hits, and releases the slab. A device that fails releases its own.
	Found pagestore.Matches
	// Idle marks a device that did not participate at all (e.g. a failed
	// replica whose buckets are served elsewhere); idle devices are not
	// charged the per-query dispatch cost.
	Idle bool
	// Release, when non-nil, gives back memory the device lent under the
	// records in Hits (netdist: the response frame they alias). Ownership
	// passes to the executor with the Answer: the merge folds it into the
	// Result's lease, so the memory stays valid until the caller calls
	// Result.Release (or forever, if it never does — what was lent is
	// then garbage-collected, not corrupted).
	Release func()
}

// Device is one parallel device in an engine-driven cluster: it scans the
// qualified buckets the inverse mapper assigns to it for bucket query q,
// re-checking the value-level filters pm (hashing collides). A Device
// must honor ctx and return promptly — with ctx.Err() — once the context
// is cancelled; that is what makes executor deadlines leak-free. ctx is
// the executor's pooled call, and q.Spec lives in it: once Scan
// returns, a Device keeps neither ctx, nor a context derived from it (it
// cancels what it derived), nor q.Spec — the call serves another query
// next (DESIGN §9).
type Device interface {
	Scan(ctx context.Context, q query.Query, pm mkhash.PartialMatch) (Answer, error)
}

// Result reports one retrieval: the matching records plus the simulated
// parallel cost breakdown.
type Result struct {
	// TraceID identifies the retrieval's trace (0 when the executor has
	// no tracer); join it against obs.Tracer.Recent/Trees to see the
	// span tree behind this result.
	TraceID uint64
	// Records are the matching records, grouped by device in device order.
	Records []mkhash.Record
	// DeviceBuckets[i] is the number of qualified buckets device i accessed.
	DeviceBuckets []int
	// DeviceRecords[i] is the number of records device i scanned. The
	// merge carves both count slices from one allocation, each capped at
	// its length; nothing appends to either.
	DeviceRecords []int
	// DeviceTime[i] is device i's simulated service time.
	DeviceTime []time.Duration
	// Response is the simulated parallel response time: the slowest device.
	Response time.Duration
	// TotalWork is the sum of all device times (what a single device would
	// have spent, modulo per-query overhead).
	TotalWork time.Duration
	// LargestResponseSize is max(DeviceBuckets), the paper's metric.
	LargestResponseSize int
	// Stages is the retrieval's cost-attribution breakdown (plan,
	// fanout, merge, audit, plus an aggregated device.scan sample),
	// populated when the executor has a reporting bundle
	// (Config.Instr); nil otherwise.
	Stages []obs.StageSample

	// lease holds what the devices lent under Records (Answer.Release);
	// nil when nothing was lent. Copies of the Result share it.
	lease *lease
}

// lease is the releases of one result's lent memory, run at most once
// however many copies of the Result are released.
type lease struct {
	once sync.Once
	rels []func()
}

// Release gives back the memory devices lent under the result's records
// (today: the distributed backend's response frames). It is optional — an
// unreleased result is garbage-collected like any other — and a no-op
// where nothing was lent. After Release the field strings of Records, and
// anything derived from them, are invalid: copy what must outlive it.
// Idempotent, including across copies of the Result.
func (r *Result) Release() {
	if l := r.lease; l != nil {
		l.once.Do(func() {
			for _, f := range l.rels {
				f()
			}
		})
	}
}

// AccumulateCost folds per-device service times and qualified-bucket
// counts into the §5.2.1 summary: response time is the slowest device,
// total work is the sum, and the largest response size is the biggest
// per-device bucket count. Every cost report in the system — executor
// merges and record-free simulations alike — goes through here.
func AccumulateCost(times []time.Duration, buckets []int) (response, totalWork time.Duration, largest int) {
	for _, t := range times {
		totalWork += t
		if t > response {
			response = t
		}
	}
	for _, b := range buckets {
		if b > largest {
			largest = b
		}
	}
	return response, totalWork, largest
}

// Matches re-checks actual field values against the query (hash
// collisions can put non-matching records in qualified buckets).
func Matches(pm mkhash.PartialMatch, r mkhash.Record) bool {
	for i, v := range pm {
		if v != nil && r[i] != *v {
			return false
		}
	}
	return true
}

// DeviceFailure wraps a device's scan error with the failing device's
// identity. The executor reports every failing device of a retrieval —
// match individual failures with errors.As.
type DeviceFailure struct {
	Device int
	Err    error
}

func (e *DeviceFailure) Error() string {
	return fmt.Sprintf("engine: device %d: %v", e.Device, e.Err)
}

func (e *DeviceFailure) Unwrap() error { return e.Err }

// TracedError wraps a retrieval error with the trace ID of the failed
// retrieval, so an error printed in a log line can be joined against
// /debug/traces output. It unwraps to the underlying error, so errors.Is
// and errors.As see through it. The executor attaches it to every
// retrieval error when a tracer is configured.
type TracedError struct {
	TraceID uint64
	Err     error
}

func (e *TracedError) Error() string {
	return fmt.Sprintf("%v (trace %d)", e.Err, e.TraceID)
}

func (e *TracedError) Unwrap() error { return e.Err }

// PartialError reports a degraded retrieval: retries, backups and
// hedges were exhausted for the devices in Failed, but the remaining
// devices answered. Res holds everything that was retrieved and
// Coverage the fraction of the query's |R(q)| qualified buckets it
// spans. It unwraps to the per-device failures, so errors.Is/As find
// the underlying causes, and is itself matchable with errors.As.
type PartialError struct {
	// Res is the merged result of the devices that answered.
	Res Result
	// Failed maps each failing device to its final error.
	Failed map[int]error
	// Coverage is the fraction of |R(q)| the result covers, in [0,1].
	Coverage float64
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("engine: partial result: %d device(s) failed, %.1f%% of |R(q)| covered", len(e.Failed), e.Coverage*100)
}

// Unwrap exposes the per-device failures (each a *DeviceFailure), in
// device order.
func (e *PartialError) Unwrap() []error {
	devs := make([]int, 0, len(e.Failed))
	for dev := range e.Failed {
		devs = append(devs, dev)
	}
	sort.Ints(devs)
	errs := make([]error, len(devs))
	for i, dev := range devs {
		errs[i] = &DeviceFailure{Device: dev, Err: e.Failed[dev]}
	}
	return errs
}
