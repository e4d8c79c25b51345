package storage

import (
	"context"

	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/query"
)

// ReplicatedCluster is a simulated parallel cluster with chained
// declustering: every bucket is stored on its primary device (the
// allocator's choice) and on the ring successor. Devices can fail and be
// restored; retrieval routes each qualified bucket to the device the
// failover policy selects and keeps answering with no data loss through
// any single failure (and any non-adjacent multiple failure).
type ReplicatedCluster struct {
	core
	file      *mkhash.File
	placement *Placement
	// parts[d] holds both d's primary buckets and its backup copies
	// (primaries of d-1).
	parts []Partition
}

// NewReplicated distributes file's buckets over the allocator's devices
// with primary and backup copies.
func NewReplicated(file *mkhash.File, alloc decluster.GroupAllocator, mode ReplicaMode, model CostModel, opts ...Option) (*ReplicatedCluster, error) {
	parts, err := Split(file, alloc) // every bucket on its primary
	if err != nil {
		return nil, err
	}
	c := &ReplicatedCluster{
		core:      newCore(alloc),
		file:      file,
		placement: NewPlacement(alloc, mode),
		parts:     parts,
	}
	file.EachBucket(func(coords []int, records []mkhash.Record) {
		parts[c.placement.Backup(coords)][c.fs.Linear(coords)] = records
	})
	devices := make([]engine.Device, c.fs.M)
	for dev := range devices {
		devices[dev] = replDevice{c: c, dev: dev}
	}
	if err := c.wire("replicated", file, devices, model, newSettings(opts)); err != nil {
		return nil, err
	}
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
	part := c.parts[d.dev]
	var buf [walkScratch]int
	for _, owner := range [2]int{d.dev, (d.dev - 1 + c.fs.M) % c.fs.M} {
		w := c.im.Walk(query.WalkOver(buf[:]), q, owner)
		for coords := w.Next(); coords != nil; coords = w.Next() {
			if err := ctx.Err(); err != nil {
				hits.Put(ans.Hits)
				return engine.Answer{}, err
			}
			if c.placement.Server(coords) == d.dev {
				part.Scan(c.fs.Linear(coords), pm, &ans)
			}
		}
	}
	return ans, nil
}

// Fail marks a device failed (see Placement.Fail for the adjacency
// constraint).
func (c *ReplicatedCluster) Fail(dev int) error {
	if err := c.placement.Fail(dev); err != nil {
		return err
	}
	obs.Logger().Info("storage: replicated cluster device marked failed; ring successor now serves its primaries", "device", dev)
	return nil
}

// Restore marks a device healthy.
func (c *ReplicatedCluster) Restore(dev int) error {
	if err := c.placement.Restore(dev); err != nil {
		return err
	}
	obs.Logger().Info("storage: replicated cluster device restored", "device", dev)
	return nil
}

// Failed reports whether dev is failed.
func (c *ReplicatedCluster) Failed(dev int) bool { return c.placement.Failed(dev) }

// StorageOverhead returns the total stored bucket copies divided by the
// number of non-empty buckets (2.0 for full chained replication).
func (c *ReplicatedCluster) StorageOverhead() float64 {
	copies := 0
	for _, p := range c.parts {
		copies += len(p)
	}
	nonEmpty := 0
	c.file.EachBucket(func([]int, []mkhash.Record) { nonEmpty++ })
	if nonEmpty == 0 {
		return 0
	}
	return float64(copies) / float64(nonEmpty)
}
