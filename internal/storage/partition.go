package storage

import (
	"fmt"

	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
)

// Partition is the records one device holds, as ids (mkhash.Table): its
// buckets' windows into the file's ids, under the dictionary the whole
// split shares. It is what a wire-served device answers from; the memory
// and replicated clusters serve one frozen table of the whole file
// (held), and the log device scans encoded bytes under its own lock
// (durDevice).
type Partition = *mkhash.Table

// hits is the executor's hit-frame pool: every device adapter in this
// package appends its matches through it, and the executor's merge
// drains the frames back.
var hits = engine.HitsPool()

// checkAllocator verifies the allocator was built for the file's current
// directory sizes — every cluster constructor passes through it, by way
// of Split or directly.
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

// Split distributes file's non-empty buckets over the allocator's
// devices (Share) from one frozen copy of the file's ids and
// dictionaries, which no later change to the file reaches. The allocator
// must be built for the file's current directory sizes.
func Split(file *mkhash.File, alloc decluster.GroupAllocator) ([]Partition, error) {
	if err := checkAllocator(file, alloc.FileSystem()); err != nil {
		return nil, err
	}
	return Share(file.Freeze(), alloc), nil
}

// Share distributes p's buckets over the allocator's devices, which must
// share p's grid; parts[d] is device d's partition. The partitions are
// windows into p's ids under its dictionary, copied on the first write
// to any of them or to p (mkhash.Table.Split).
func Share(p Partition, alloc decluster.GroupAllocator) []Partition {
	fs := alloc.FileSystem()
	var coords []int
	return p.Split(fs.M, func(bucket uint32) int {
		coords = fs.Coords(int(bucket), coords[:0])
		return alloc.Device(coords)
	})
}

// AdmitBucket is the check on a bucket arriving from outside the process
// (an Install frame) before it is served as dev's: it lies in the
// allocator's grid and below 2^32 (mkhash.MaxGridBits) and belongs to
// dev under it.
func AdmitBucket(alloc decluster.GroupAllocator, dev, idx int) error {
	fs := alloc.FileSystem()
	if idx < 0 || idx >= min(fs.NumBuckets(), 1<<mkhash.MaxGridBits) {
		return fmt.Errorf("bucket index %d outside grid", idx)
	}
	if owner := alloc.Device(fs.Coords(idx, nil)); owner != dev {
		return fmt.Errorf("bucket %v belongs to device %d, not %d", fs.Coords(idx, nil), owner, dev)
	}
	return nil
}

// Admit checks a partition handed to a device server: records of the
// file's arity, every bucket admitted for dev (AdmitBucket).
func Admit(p Partition, alloc decluster.GroupAllocator, dev int) error {
	if p.NumFields() != alloc.FileSystem().NumFields() {
		return fmt.Errorf("partition holds records of %d fields, not the file's %d", p.NumFields(), alloc.FileSystem().NumFields())
	}
	var err error
	p.EachBucket(func(b uint32) {
		if err == nil {
			err = AdmitBucket(alloc, dev, int(b))
		}
	})
	return err
}

// held is what the memory and replicated clusters serve: the file's
// records frozen as ids when the cluster is built, and one run of string
// headers for every value they hold, built from the ids then — record
// k's from k*NumFields. A retrieval hands out views of the run, so a hit
// costs its slot in the answer; one map of 8-byte spans finds every
// device's buckets.
type held struct {
	t       *mkhash.Table
	headers []string
}

func hold(file *mkhash.File) held {
	t := file.Freeze()
	return held{t, t.Strings()}
}

// scan is a device-local retrieval over one qualified bucket: count the
// bucket and its records, and append a view of each record holding want's
// ids to the answer's pooled hit frame. It takes the answer by pointer,
// so the caller's scan state stays on its stack.
func (h *held) scan(bucket int, want []uint32, ans *engine.Answer) {
	ans.Buckets++
	n := uint32(h.t.NumFields())
	ans.Records += h.t.Scan(uint32(bucket), want, func(k uint32) {
		ans.Hits = hits.AppendOne(ans.Hits, h.headers[k*n:(k+1)*n:(k+1)*n])
	})
}
