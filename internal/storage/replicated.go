package storage

import (
	"context"

	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/plancache"
	"fxdist/internal/query"
	"fxdist/internal/replica"
)

// ReplicatedCluster is a simulated parallel cluster with chained
// declustering: every bucket is stored on its primary device (the
// allocator's choice) and on the ring successor. Devices can fail and be
// restored; retrieval routes each qualified bucket to the device the
// failover policy selects and keeps answering with no data loss through
// any single failure (and any non-adjacent multiple failure).
type ReplicatedCluster struct {
	file      *mkhash.File
	fs        decluster.FileSystem
	placement *replica.Placement
	im        *query.InverseMapper
	// devs[d].buckets holds both d's primary buckets and its backup
	// copies (primaries of d-1).
	devs []*device
	eng  *engine.Executor
}

// NewReplicated distributes file's buckets over the allocator's devices
// with primary and backup copies.
func NewReplicated(file *mkhash.File, alloc decluster.GroupAllocator, mode replica.Mode, model CostModel, opts ...Option) (*ReplicatedCluster, error) {
	fs := alloc.FileSystem()
	if err := checkAllocator(file, fs); err != nil {
		return nil, err
	}
	st := newSettings(opts)
	c := &ReplicatedCluster{
		file:      file,
		fs:        fs,
		placement: replica.New(alloc, mode),
		im:        query.NewInverseMapper(alloc),
		devs:      make([]*device, fs.M),
	}
	for i := range c.devs {
		c.devs[i] = &device{buckets: make(map[int][]mkhash.Record)}
	}
	file.EachBucket(func(coords []int, records []mkhash.Record) {
		idx := fs.Linear(coords)
		prim := c.placement.Primary(coords)
		back := c.placement.Backup(coords)
		c.devs[prim].buckets[idx] = records
		c.devs[back].buckets[idx] = records
	})
	devices := make([]engine.Device, fs.M)
	for dev := range devices {
		devices[dev] = replDevice{c: c, dev: dev}
	}
	devices = st.wrap(devices)
	eng, err := engine.New(st.engineConfig("replicated", engine.Config{
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

// replDevice adapts one replicated device to the engine's Device
// contract: its candidate buckets are its own primaries plus the backups
// it holds (primaries of the ring predecessor), filtered by the failover
// policy's routing decision. A failed device reports itself idle, so the
// cost model charges it nothing while its ring successor absorbs its
// share.
type replDevice struct {
	c   *ReplicatedCluster
	dev int
}

func (d replDevice) Scan(ctx context.Context, q query.Query, pm mkhash.PartialMatch) (engine.Answer, error) {
	c := d.c
	if c.placement.Failed(d.dev) {
		return engine.Answer{Idle: true}, nil
	}
	var ans engine.Answer
	store := c.devs[d.dev]
	var err error
	serve := func(coords []int) {
		if err != nil {
			return
		}
		if err = ctx.Err(); err != nil {
			return
		}
		if c.placement.Server(coords) != d.dev {
			return
		}
		ans.Buckets++
		for _, r := range store.buckets[c.fs.Linear(coords)] {
			ans.Records++
			if engine.Matches(pm, r) {
				ans.Hits = hits.AppendOne(ans.Hits, r)
			}
		}
	}
	eachOnDevice(ctx, c.im, q, d.dev, serve)
	prev := (d.dev - 1 + c.fs.M) % c.fs.M
	eachOnDevice(ctx, c.im, q, prev, serve)
	if err != nil {
		hits.Put(ans.Hits)
		return engine.Answer{}, err
	}
	return ans, nil
}

// Fail marks a device failed (see replica.Placement.Fail for the adjacency
// constraint).
func (c *ReplicatedCluster) Fail(dev int) error {
	if err := c.placement.Fail(dev); err != nil {
		return err
	}
	obs.Infof("storage: replicated cluster device %d marked failed; ring successor now serves its primaries", dev)
	return nil
}

// Restore marks a device healthy.
func (c *ReplicatedCluster) Restore(dev int) error {
	if err := c.placement.Restore(dev); err != nil {
		return err
	}
	obs.Infof("storage: replicated cluster device %d restored", dev)
	return nil
}

// Failed reports whether dev is failed.
func (c *ReplicatedCluster) Failed(dev int) bool { return c.placement.Failed(dev) }

// M returns the device count.
func (c *ReplicatedCluster) M() int { return c.fs.M }

// RetrieveContext answers a value-level partial match query under the
// current failure set through the shared engine executor. Each healthy
// device serves the qualified buckets the failover policy routes to it:
// a subset of its own primaries plus a subset of the backups it holds.
// This is the canonical retrieval entry point; Retrieve is its
// context.Background() wrapper.
func (c *ReplicatedCluster) RetrieveContext(ctx context.Context, pm mkhash.PartialMatch) (Result, error) {
	return c.eng.Retrieve(ctx, pm)
}

// Retrieve is RetrieveContext with context.Background().
func (c *ReplicatedCluster) Retrieve(pm mkhash.PartialMatch) (Result, error) {
	return c.RetrieveContext(context.Background(), pm)
}

// PlanCache returns the cluster's per-shape plan cache.
func (c *ReplicatedCluster) PlanCache() *plancache.Cache { return c.eng.Plans() }

// RetrieveBatch answers a batch of queries over the shared device pool;
// see engine.Executor.RetrieveBatch.
func (c *ReplicatedCluster) RetrieveBatch(ctx context.Context, pms []mkhash.PartialMatch) ([]Result, error) {
	return c.eng.RetrieveBatch(ctx, pms)
}

// StorageOverhead returns the total stored bucket copies divided by the
// number of non-empty buckets (2.0 for full chained replication).
func (c *ReplicatedCluster) StorageOverhead() float64 {
	copies := 0
	for _, d := range c.devs {
		copies += len(d.buckets)
	}
	nonEmpty := 0
	c.file.EachBucket(func([]int, []mkhash.Record) { nonEmpty++ })
	if nonEmpty == 0 {
		return 0
	}
	return float64(copies) / float64(nonEmpty)
}
