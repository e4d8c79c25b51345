package storage

import (
	"fmt"

	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
)

// CheckReport summarises an integrity verification of a durable cluster.
type CheckReport struct {
	// Devices is the device count; Records the total live records.
	Devices, Records int
	// DeviceRecords[i] is device i's live record count.
	DeviceRecords []int
	// MisplacedRecords counts records stored on a device other than the
	// one the allocator assigns their bucket to (must be 0).
	MisplacedRecords int
	// MishashedRecords counts records whose field values no longer hash to
	// the bucket they are stored under (indicates a hash-function mismatch
	// at open time, e.g. missing WithHash options; must be 0).
	MishashedRecords int
	// Problems lists human-readable descriptions of everything found,
	// capped at 20 entries.
	Problems []string
}

// Ok reports whether the check found no problems.
func (r CheckReport) Ok() bool { return len(r.Problems) == 0 }

func (r *CheckReport) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// Check verifies a durable cluster's invariants: every stored record (a)
// hashes to the bucket it is filed under and (b) lives on the device its
// bucket's allocator assignment names. Log-level integrity (CRC framing)
// is already enforced by pagestore recovery at open time; Check covers
// the placement layer above it.
func (c *DurableCluster) Check() (CheckReport, error) {
	report := CheckReport{
		Devices:       c.fs.M,
		DeviceRecords: make([]int, c.fs.M),
	}
	var coords []int
	for dev, store := range c.stores {
		if store == nil {
			continue
		}
		c.locks[dev].RLock()
		err := store.EachBucket(func(bucket uint32) error {
			coords = c.fs.Coords(int(bucket), coords[:0])
			if want := c.alloc.Device(coords); want != dev {
				report.problem("bucket %v stored on device %d, allocator assigns %d", coords, dev, want)
			}
			return store.ScanInto(bucket, mempool.NewRecordBuilder(false), func(rec mkhash.Record) error {
				report.DeviceRecords[dev]++
				report.Records++
				want, actual, err := c.schema.Route(rec, c.alloc)
				if err != nil {
					report.problem("device %d bucket %v: record arity %d", dev, coords, len(rec))
					report.MishashedRecords++
					return nil
				}
				if actual != int(bucket) {
					report.MishashedRecords++
					report.problem("device %d: record hashes to bucket %v but is filed under %v", dev, c.fs.Coords(actual, nil), coords)
					return nil
				}
				if want != dev {
					report.MisplacedRecords++
				}
				return nil
			})
		})
		c.locks[dev].RUnlock()
		if err != nil {
			return CheckReport{}, fmt.Errorf("storage: check device %d: %w", dev, err)
		}
	}
	return report, nil
}
