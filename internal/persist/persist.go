// Package persist snapshots a multi-key hashed file — records, current
// directory depths, and optionally the declustering allocator
// configuration — to a gob stream, and restores it. Because bucket
// placement is a pure function of the (deterministic) field hashes and the
// allocator spec, a snapshot needs only the logical content; directories
// and partitions are rebuilt on load.
//
// Files built with custom field hash functions must pass the same
// WithHash options to Load: hash functions are code, not data.
package persist

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"fxdist/internal/decluster"
	"fxdist/internal/mkhash"
)

// formatVersion guards against decoding snapshots from incompatible
// releases.
const formatVersion = 1

// snapshot is the on-disk representation.
type snapshot struct {
	Version int
	Fields  []string
	Depths  []int
	Records [][]string
	// HasAlloc distinguishes "no allocator stored" from a zero Spec.
	HasAlloc bool
	Alloc    decluster.Spec
}

// Save writes the file (and, when alloc is non-nil, its allocator spec)
// to w.
func Save(w io.Writer, file *mkhash.File, alloc decluster.Allocator) error {
	snap := snapshot{
		Version: formatVersion,
		Fields:  file.Schema().Fields,
		Depths:  file.Depths(),
	}
	file.EachBucket(func(_ []int, records []mkhash.Record) {
		for _, r := range records {
			snap.Records = append(snap.Records, slices.Clone(r))
		}
	})
	if alloc != nil {
		spec, err := decluster.SpecOf(alloc)
		if err != nil {
			return err
		}
		snap.HasAlloc = true
		snap.Alloc = spec
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// Load restores a file from r. When the snapshot carries an allocator
// spec, the allocator is rebuilt too (nil otherwise). opts are applied to
// the restored file before records are re-inserted, so custom hash
// functions land the records in their original buckets.
func Load(r io.Reader, opts ...mkhash.Option) (*mkhash.File, decluster.GroupAllocator, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, nil, fmt.Errorf("persist: decode: %w", err)
	}
	if snap.Version != formatVersion {
		return nil, nil, fmt.Errorf("persist: snapshot version %d, this build reads %d", snap.Version, formatVersion)
	}
	file, err := mkhash.New(mkhash.Schema{Fields: snap.Fields, Depths: snap.Depths}, opts...)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range snap.Records {
		if err := file.Insert(r); err != nil {
			return nil, nil, fmt.Errorf("persist: restore record: %w", err)
		}
	}
	var alloc decluster.GroupAllocator
	if snap.HasAlloc {
		alloc, err = snap.Alloc.Build()
		if err != nil {
			return nil, nil, fmt.Errorf("persist: rebuild allocator: %w", err)
		}
	}
	return file, alloc, nil
}

// SaveFile writes a snapshot to path (atomically: temp file + rename).
func SaveFile(path string, file *mkhash.File, alloc decluster.Allocator) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".fxdist-snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := Save(tmp, file, alloc); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile restores a snapshot from path.
func LoadFile(path string, opts ...mkhash.Option) (*mkhash.File, decluster.GroupAllocator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return Load(f, opts...)
}
