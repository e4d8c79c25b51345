// Package storage simulates the parallel device environments of the
// paper's §5.2: M identical devices behind a symmetric interconnect
// (parallel disks on a shared bus, or Butterfly-style multiprocessor
// memories), each holding the buckets a declustering allocator assigns to
// it. The response time of a partial match query is the service time of
// the slowest device — the paper's "largest response size" argument made
// executable.
//
// Devices answer queries with the per-device inverse mapping of package
// query: each device enumerates only its own qualified buckets, never the
// whole grid, exactly as the paper's §4.2 prescribes for main-memory
// databases. Retrieval itself — validation, fan-out, cancellation, cost
// aggregation, metrics — is package engine's single executor; this
// package contributes only the Device adapters that know where the
// records live.
package storage

import (
	"context"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/plancache"
	"fxdist/internal/query"
	"fxdist/internal/resilience"
	"fxdist/internal/telemetry"
)

// CostModel is the per-device service time model; see engine.CostModel.
type CostModel = engine.CostModel

// ParallelDisk models late-1980s disks on a shared bus.
var ParallelDisk = engine.ParallelDisk

// MainMemory models a multiprocessor main-memory database node.
var MainMemory = engine.MainMemory

// Result reports one retrieval; see engine.Result.
type Result = engine.Result

// core is what every cluster of this package is above its devices: the
// declustered grid, the allocator, the §4.2 enumerator every device
// walks, and the one retrieval executor. The clusters embed it and add
// only where their records live.
type core struct {
	fs       decluster.FileSystem
	alloc    decluster.GroupAllocator
	im       *query.InverseMapper
	eng      *engine.Executor
	injector *resilience.Injector // WithInjector's, nil without one
}

func newCore(alloc decluster.GroupAllocator) core {
	return core{fs: alloc.FileSystem(), alloc: alloc, im: query.NewInverseMapper(alloc)}
}

// wire builds the executor over the cluster's device adapters — the one
// place a storage backend meets package engine.
func (c *core) wire(kind string, schema *mkhash.File, devices []engine.Device, model CostModel, st *settings) (err error) {
	if c.injector = st.injector; c.injector != nil {
		devices = c.injector.Wrap(devices)
	}
	cfg := st.engineConfig(kind, engine.Config{Schema: schema, Devices: devices, Model: model, Alloc: c.alloc})
	if c.eng, err = engine.New(cfg); err != nil {
		cfg.Plans.Close()
	}
	return err
}

// Close drops the cluster's resident plans. The in-memory clusters hold
// nothing else to release; the durable one also closes its device logs.
func (c *core) Close() error {
	c.eng.Plans().Close()
	return nil
}

// M returns the device count.
func (c *core) M() int { return c.fs.M }

// Allocator returns the declustering method in use.
func (c *core) Allocator() decluster.GroupAllocator { return c.alloc }

// RetrieveContext answers a value-level partial match query in
// parallel through the shared engine executor: every device that holds
// a qualified bucket concurrently enumerates its own (InverseMapper.Walk)
// and scans them — from memory, from the copies the failover policy
// routes to it, or from its log. Cancelling ctx returns promptly with its
// error; when devices fail, the returned error reports every
// failing device (match individual ones with errors.As on
// *engine.DeviceFailure). This is the canonical retrieval entry point;
// Retrieve is its context.Background() wrapper.
func (c *core) RetrieveContext(ctx context.Context, pm mkhash.PartialMatch) (Result, error) {
	return c.eng.Retrieve(ctx, pm)
}

// Retrieve is RetrieveContext with context.Background().
func (c *core) Retrieve(pm mkhash.PartialMatch) (Result, error) {
	return c.RetrieveContext(context.Background(), pm)
}

// PlanCache returns the cluster's per-shape plan cache.
func (c *core) PlanCache() *plancache.Cache { return c.eng.Plans() }

// Instruments returns the cluster's reporting bundle, the store behind
// its per-query /debug views.
func (c *core) Instruments() *telemetry.Instruments { return c.eng.Instruments() }

// Resilience snapshots the cluster's retry controller and fault
// injector (/debug/resilience).
func (c *core) Resilience() resilience.Snapshot {
	return resilience.SnapshotOf(c.eng.Retry(), c.injector)
}

// RetrieveBatch answers a batch of queries over the shared device pool;
// see engine.Executor.RetrieveBatch.
func (c *core) RetrieveBatch(ctx context.Context, pms []mkhash.PartialMatch) ([]Result, error) {
	return c.eng.RetrieveBatch(ctx, pms)
}

// Cluster distributes a multi-key hashed file over M simulated devices
// according to a declustering allocator.
type Cluster struct {
	core
	model CostModel // used by Project; retrieval prices via eng
	parts []Partition
}

// NewCluster distributes file's buckets over the allocator's devices. The
// allocator must be built for the file's current directory sizes.
func NewCluster(file *mkhash.File, alloc decluster.GroupAllocator, model CostModel, opts ...Option) (*Cluster, error) {
	parts, err := Split(file, alloc)
	if err != nil {
		return nil, err
	}
	c := &Cluster{core: newCore(alloc), model: model, parts: parts}
	devices := make([]engine.Device, c.fs.M)
	for dev := range devices {
		devices[dev] = memDevice{c: c, dev: dev}
	}
	if err := c.wire("memory", file, devices, model, newSettings(opts)); err != nil {
		return nil, err
	}
	return c, nil
}

// memDevice adapts one in-memory device's partition to the engine's
// Device contract.
type memDevice struct {
	c   *Cluster
	dev int
}

// Owner declares that the device serves device dev's buckets alone.
func (d memDevice) Owner() int { return d.dev }

func (d memDevice) Scan(ctx context.Context, q query.Query, pm mkhash.PartialMatch) (engine.Answer, error) {
	var ans engine.Answer
	part := d.c.parts[d.dev]
	var buf [walkScratch]int
	w := d.c.im.Walk(query.WalkOver(buf[:]), q, d.dev)
	for coords := w.Next(); coords != nil; coords = w.Next() {
		if err := ctx.Err(); err != nil {
			hits.Put(ans.Hits)
			return engine.Answer{}, err
		}
		part.Scan(d.c.fs.Linear(coords), pm, &ans)
	}
	return ans, nil
}

// walkScratch ints on a device scan's stack hold the walk of a query of
// up to 8 fields (3n+1), so the enumeration allocates nothing; a wider
// schema's walk makes its own array.
const walkScratch = 3*8 + 1

// DeviceBucketCounts returns how many non-empty buckets each device holds
// (static storage balance).
func (c *Cluster) DeviceBucketCounts() []int {
	out := make([]int, len(c.parts))
	for i, p := range c.parts {
		out[i] = len(p)
	}
	return out
}

// SimResult is a record-free simulated retrieval at bucket granularity,
// for experiments at paper scale where materialising records would be
// wasteful.
type SimResult struct {
	Loads               []int
	LargestResponseSize int
	Response            time.Duration
	TotalWork           time.Duration
}

// Simulate computes the simulated response time of a bucket-level query
// directly from its per-device load vector (e.g. convolve.Loads) —
// §5.2.1's model via the same cost accumulation the executor merge uses.
func Simulate(loads []int, model CostModel) SimResult {
	times := make([]time.Duration, len(loads))
	for i, l := range loads {
		times[i] = model.DeviceTime(l, 0)
	}
	res := SimResult{Loads: loads}
	res.Response, res.TotalWork, res.LargestResponseSize = engine.AccumulateCost(times, loads)
	return res
}
