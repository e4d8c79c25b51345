package analysis

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/mkhash"
	"fxdist/internal/storage"
)

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
// §5.2.1's model as the executor merge charges it: the slowest device,
// the sum of the device times, the largest load. A device with no
// qualified bucket still costs PerQuery, as a device the executor did
// not ask does in its merge.
func Simulate(loads []int, model storage.CostModel) SimResult {
	res := SimResult{Loads: loads}
	for _, l := range loads {
		t := model.DeviceTime(l, 0)
		res.Response, res.TotalWork = max(res.Response, t), res.TotalWork+t
		res.LargestResponseSize = max(res.LargestResponseSize, l)
	}
	return res
}

// ProjectResult reports a parallel projection with duplicate elimination —
// the relational operator the paper's citation [RoJa87] ran on the
// Butterfly machine.
type ProjectResult struct {
	Rows         []mkhash.Record // the distinct projected tuples, sorted lexicographically
	DeviceRows   []int           // device i's locally deduplicated rows: the messages it ships to the front end
	ScanTime     time.Duration   // the slowest device's local scan and dedup
	GatherCycles int             // the gather's simulated interconnect cycles (0 without a network)
	Response     time.Duration   // ScanTime plus, with a network, GatherCycles at CostModel.PerRecord each
}

// Project computes the duplicate-free projection of the whole file onto
// the given field indices with the file declustered by alloc: every
// device scans its storage.Split partition and deduplicates locally,
// priced under model as running in parallel (the slowest device's scan
// is ScanTime), then the local results are merged. When nw is non-nil,
// the merge's gather phase is costed on the simulated Butterfly
// interconnect (local row counts become messages to node 0).
func Project(file *mkhash.File, alloc decluster.GroupAllocator, model storage.CostModel, fields []int, nw *Network) (ProjectResult, error) {
	parts, err := storage.Split(file, alloc)
	if err != nil {
		return ProjectResult{}, err
	}
	n, m := file.NumFields(), len(parts)
	if len(fields) == 0 {
		return ProjectResult{}, fmt.Errorf("analysis: projection needs at least one field")
	}
	for i, f := range fields {
		if f < 0 || f >= n {
			return ProjectResult{}, fmt.Errorf("analysis: projection field %d outside [0,%d)", f, n)
		}
		if slices.Contains(fields[:i], f) {
			return ProjectResult{}, fmt.Errorf("analysis: projection field %d repeated", f)
		}
	}
	if nw != nil && nw.Nodes() != m {
		return ProjectResult{}, fmt.Errorf("analysis: network has %d nodes, file %d devices", nw.Nodes(), m)
	}

	res := ProjectResult{DeviceRows: make([]int, m)}
	global := map[string]mkhash.Record{}
	for dev, part := range parts {
		local, scanned := map[string]bool{}, 0
		for _, slab := range part {
			for off := 0; off < len(slab); off += n {
				row := make(mkhash.Record, len(fields))
				for i, f := range fields {
					row[i] = slab[off+f]
				}
				key := strings.Join(row, "\x00")
				local[key], global[key] = true, row
				scanned++
			}
		}
		res.DeviceRows[dev] = len(local)
		res.ScanTime = max(res.ScanTime, model.DeviceTime(0, scanned))
	}
	for _, row := range global {
		res.Rows = append(res.Rows, row)
	}
	slices.SortFunc(res.Rows, slices.Compare[mkhash.Record])

	res.Response = res.ScanTime
	if nw != nil {
		msgs, err := nw.Gather(res.DeviceRows, 0)
		if err != nil {
			return ProjectResult{}, err
		}
		stats, err := nw.Run(msgs)
		if err != nil {
			return ProjectResult{}, err
		}
		res.GatherCycles = stats.Cycles
		res.Response += time.Duration(stats.Cycles) * model.PerRecord
	}
	return res, nil
}
