// This file is the paper's §5.2.1 response model, the one place it is
// priced. A retrieval reports what each device measured — its qualified
// buckets and scanned records (engine.Result.DeviceBuckets and
// DeviceRecords) — and Simulate turns those counts into simulated time
// under a CostModel: the slowest device sets the response.

package analysis

import "time"

// CostModel is the per-device service time model of §5.2.1: one device's
// time for one query is PerQuery + buckets*PerBucket + records*PerRecord.
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
// one query.
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

// SimResult is one query priced under a CostModel.
type SimResult struct {
	// LargestResponseSize is the largest bucket count, the paper's metric.
	LargestResponseSize int
	// Response is the simulated parallel response time: the slowest
	// device's DeviceTime.
	Response time.Duration
	// TotalWork is the sum of the device times (what a single device
	// would have spent, modulo per-query overhead).
	TotalWork time.Duration
}

// Simulate prices one query from its per-device bucket counts and, when
// records is non-nil, the records each device scanned (records[i] goes
// with buckets[i]): a retrieval's DeviceBuckets and DeviceRecords, or a
// record-free load vector such as convolve.Loads with nil records. Every
// device is charged PerQuery, the ones with no qualified bucket included.
func Simulate(model CostModel, buckets, records []int) SimResult {
	var res SimResult
	for dev, b := range buckets {
		r := 0
		if records != nil {
			r = records[dev]
		}
		t := model.DeviceTime(b, r)
		res.Response, res.TotalWork = max(res.Response, t), res.TotalWork+t
		res.LargestResponseSize = max(res.LargestResponseSize, b)
	}
	return res
}
