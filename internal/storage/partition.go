package storage

import (
	"fmt"

	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
)

// Partition is the records one device holds: linear bucket index
// (FileSystem.Linear) → that bucket's records. It is the device-local
// half of a retrieval behind the memory, replicated and wire-served
// devices; the log device scans encoded bytes under its own lock
// (durDevice) and stays apart.
type Partition map[int][]mkhash.Record

// hits is the executor's hit-frame pool: every device adapter in this
// package appends its matches through it, and the executor's merge
// drains the frames back.
var hits = engine.HitsPool()

// checkAllocator verifies the allocator was built for the file's current
// directory sizes — every cluster constructor passes through it, by way
// of Split or, for the log-backed cluster, directly.
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
// devices; parts[d] is device d's partition. The allocator must be built
// for the file's current directory sizes.
func Split(file *mkhash.File, alloc decluster.GroupAllocator) ([]Partition, error) {
	fs := alloc.FileSystem()
	if err := checkAllocator(file, fs); err != nil {
		return nil, err
	}
	parts := make([]Partition, fs.M)
	for i := range parts {
		parts[i] = Partition{}
	}
	file.EachBucket(func(coords []int, records []mkhash.Record) {
		parts[alloc.Device(coords)][fs.Linear(coords)] = records
	})
	return parts, nil
}

// Admit is the check on buckets arriving from outside the process (a
// constructor argument, an Install frame) before they are served as
// dev's: every bucket lies in the allocator's grid, belongs to dev under
// it, and holds only records of the file's arity — the record loop
// indexes a record by field without looking at its length.
func (p Partition) Admit(alloc decluster.GroupAllocator, dev int) error {
	fs := alloc.FileSystem()
	var coords []int
	for idx, records := range p {
		if idx < 0 || idx >= fs.NumBuckets() {
			return fmt.Errorf("bucket index %d outside grid", idx)
		}
		coords = fs.Coords(idx, coords[:0])
		if owner := alloc.Device(coords); owner != dev {
			return fmt.Errorf("bucket %v belongs to device %d, not %d", coords, owner, dev)
		}
		for _, r := range records {
			if len(r) != fs.NumFields() {
				return fmt.Errorf("bucket %v holds a record of %d fields, file has %d", coords, len(r), fs.NumFields())
			}
		}
	}
	return nil
}

// Scan is the record loop of a device-local retrieval over one qualified
// bucket: count the bucket, count each record, re-check the value filters
// (hashing collides) and append the matches to the answer's pooled hit
// frame. It takes the answer by pointer and captures nothing, so the
// caller's scan state stays on its stack.
func (p Partition) Scan(bucket int, pm mkhash.PartialMatch, ans *engine.Answer) {
	ans.Buckets++
	for _, r := range p[bucket] {
		ans.Records++
		if engine.Matches(pm, r) {
			ans.Hits = hits.AppendOne(ans.Hits, r)
		}
	}
}
