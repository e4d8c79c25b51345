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
	"fmt"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/plancache"
	"fxdist/internal/query"
)

// CostModel is the per-device service time model; see engine.CostModel.
type CostModel = engine.CostModel

// ParallelDisk models late-1980s disks on a shared bus.
var ParallelDisk = engine.ParallelDisk

// MainMemory models a multiprocessor main-memory database node.
var MainMemory = engine.MainMemory

// Result reports one retrieval; see engine.Result.
type Result = engine.Result

// device is one parallel device's local bucket store.
type device struct {
	buckets map[int][]mkhash.Record
}

// Cluster distributes a multi-key hashed file over M simulated devices
// according to a declustering allocator.
type Cluster struct {
	file  *mkhash.File
	fs    decluster.FileSystem
	alloc decluster.GroupAllocator
	im    *query.InverseMapper
	model CostModel // used by Project; retrieval prices via eng
	devs  []*device
	eng   *engine.Executor
}

// hits is the executor's hit-frame pool: every device adapter in this
// package appends its matches through it, and the executor's merge
// drains the frames back.
var hits = engine.HitsPool()

// checkAllocator verifies the allocator was built for the file's current
// directory sizes — shared by every cluster constructor.
func checkAllocator(file *mkhash.File, fs decluster.FileSystem) error {
	sizes := file.Sizes()
	if len(sizes) != fs.NumFields() {
		return fmt.Errorf("storage: allocator has %d fields, file has %d", fs.NumFields(), len(sizes))
	}
	for i, f := range sizes {
		if fs.Sizes[i] != f {
			return fmt.Errorf("storage: allocator field %d sized %d, file directory is %d", i, fs.Sizes[i], f)
		}
	}
	return nil
}

// NewCluster distributes file's buckets over the allocator's devices. The
// allocator must be built for the file's current directory sizes.
func NewCluster(file *mkhash.File, alloc decluster.GroupAllocator, model CostModel, opts ...Option) (*Cluster, error) {
	fs := alloc.FileSystem()
	if err := checkAllocator(file, fs); err != nil {
		return nil, err
	}
	st := newSettings(opts)
	c := &Cluster{
		file:  file,
		fs:    fs,
		alloc: alloc,
		im:    query.NewInverseMapper(alloc),
		model: model,
		devs:  make([]*device, fs.M),
	}
	for i := range c.devs {
		c.devs[i] = &device{buckets: make(map[int][]mkhash.Record)}
	}
	file.EachBucket(func(coords []int, records []mkhash.Record) {
		d := alloc.Device(coords)
		c.devs[d].buckets[fs.Linear(coords)] = records
	})
	devices := make([]engine.Device, fs.M)
	for dev := range devices {
		devices[dev] = memDevice{c: c, dev: dev}
	}
	devices = st.wrap(devices)
	eng, err := engine.New(st.engineConfig("memory", engine.Config{
		Schema:  file,
		FS:      fs,
		Devices: devices,
		Model:   model,
		Alloc:   alloc,
	}))
	if err != nil {
		return nil, err
	}
	c.eng = eng
	return c, nil
}

// memDevice adapts one in-memory device's bucket map to the engine's
// Device contract.
type memDevice struct {
	c   *Cluster
	dev int
}

func (d memDevice) Scan(ctx context.Context, q query.Query, pm mkhash.PartialMatch) (engine.Answer, error) {
	var ans engine.Answer
	store := d.c.devs[d.dev]
	var err error
	eachOnDevice(ctx, d.c.im, q, d.dev, func(coords []int) {
		if err != nil {
			return
		}
		if err = ctx.Err(); err != nil {
			return
		}
		ans.Buckets++
		for _, r := range store.buckets[d.c.fs.Linear(coords)] {
			ans.Records++
			if engine.Matches(pm, r) {
				ans.Hits = hits.AppendOne(ans.Hits, r)
			}
		}
	})
	if err != nil {
		hits.Put(ans.Hits)
		return engine.Answer{}, err
	}
	return ans, nil
}

// eachOnDevice enumerates q's qualified buckets on dev from the cached
// plan the executor put in ctx when one is compiled, falling back to
// the per-call inverse-mapper walk otherwise. Both produce buckets in
// the same order, so cached and uncached retrievals are byte-identical.
func eachOnDevice(ctx context.Context, im *query.InverseMapper, q query.Query, dev int, fn func(bucket []int)) {
	if p := engine.PlanFromContext(ctx); p != nil && p.Ready() {
		p.EachOnDevice(q, dev, fn)
		return
	}
	im.EachOnDevice(q, dev, fn)
}

// M returns the device count.
func (c *Cluster) M() int { return c.fs.M }

// Allocator returns the declustering method in use.
func (c *Cluster) Allocator() decluster.GroupAllocator { return c.alloc }

// DeviceBucketCounts returns how many non-empty buckets each device holds
// (static storage balance).
func (c *Cluster) DeviceBucketCounts() []int {
	out := make([]int, len(c.devs))
	for i, d := range c.devs {
		out[i] = len(d.buckets)
	}
	return out
}

// RetrieveContext answers a value-level partial match query in
// parallel: every device concurrently enumerates its qualified buckets
// (from the cached plan when one is compiled) and scans them.
// Cancelling ctx returns promptly with its error. This is the canonical
// retrieval entry point; Retrieve is its context.Background() wrapper.
func (c *Cluster) RetrieveContext(ctx context.Context, pm mkhash.PartialMatch) (Result, error) {
	return c.eng.Retrieve(ctx, pm)
}

// Retrieve is RetrieveContext with context.Background().
func (c *Cluster) Retrieve(pm mkhash.PartialMatch) (Result, error) {
	return c.RetrieveContext(context.Background(), pm)
}

// PlanCache returns the cluster's per-shape plan cache.
func (c *Cluster) PlanCache() *plancache.Cache { return c.eng.Plans() }

// RetrieveBatch answers a batch of queries over the shared device pool;
// see engine.Executor.RetrieveBatch.
func (c *Cluster) RetrieveBatch(ctx context.Context, pms []mkhash.PartialMatch) ([]Result, error) {
	return c.eng.RetrieveBatch(ctx, pms)
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
