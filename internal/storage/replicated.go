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
	held
	placement *Placement
}

// NewReplicated distributes file's buckets over the allocator's devices
// with primary and backup copies: each device scans the file's frozen
// records for its own primaries and the backups it holds, as routed.
func NewReplicated(file *mkhash.File, alloc decluster.GroupAllocator, mode ReplicaMode, opts ...Option) (*ReplicatedCluster, error) {
	if err := checkAllocator(file, alloc.FileSystem()); err != nil {
		return nil, err
	}
	c := &ReplicatedCluster{
		core:      newCore(alloc),
		held:      hold(file),
		placement: NewPlacement(alloc, mode),
	}
	devices := make([]engine.Device, c.fs.M)
	for dev := range devices {
		devices[dev] = replDevice{c: c, dev: dev}
	}
	if err := c.wire("replicated", file, devices, newSettings(opts)); err != nil {
		return nil, err
	}
	return c, nil
}

// replDevice adapts one replicated device to the engine's Device
// contract: its candidate buckets are its own primaries plus the backups
// it holds (primaries of the ring predecessor), filtered by the failover
// policy's routing decision. A failed device returns a zero answer — no
// buckets, no records — while its ring successor absorbs its share.
type replDevice struct {
	c   *ReplicatedCluster
	dev int
}

func (d replDevice) Scan(ctx context.Context, q query.Query, pm mkhash.PartialMatch) (engine.Answer, error) {
	c := d.c
	if c.placement.Failed(d.dev) {
		return engine.Answer{}, nil
	}
	var ans engine.Answer
	var ids [8]uint32 // a query of up to 8 fields resolves on the stack
	want := c.t.Want(pm, ids[:0])
	var buf [walkScratch]int
	for _, owner := range [2]int{d.dev, (d.dev - 1 + c.fs.M) % c.fs.M} {
		w := c.im.Walk(query.WalkOver(buf[:]), q, owner)
		for coords := w.Next(); coords != nil; coords = w.Next() {
			if err := ctx.Err(); err != nil {
				hits.Put(ans.Hits)
				return engine.Answer{}, err
			}
			if c.placement.Server(coords) == d.dev {
				c.scan(c.fs.Linear(coords), want, &ans)
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
