package storage

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"fxdist/internal/butterfly"
	"fxdist/internal/mkhash"
)

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
// the given field indices: every device scans its local slabs and
// deduplicates locally, priced as running in parallel (the slowest
// device's scan is ScanTime), then the local results are merged.
// When nw is non-nil, the merge's gather phase is costed on the simulated
// Butterfly interconnect (local row counts become messages to node 0).
func (c *Cluster) Project(fields []int, nw *butterfly.Network) (ProjectResult, error) {
	n, m := c.fs.NumFields(), c.fs.M
	if len(fields) == 0 {
		return ProjectResult{}, fmt.Errorf("storage: projection needs at least one field")
	}
	for i, f := range fields {
		if f < 0 || f >= n {
			return ProjectResult{}, fmt.Errorf("storage: projection field %d outside [0,%d)", f, n)
		}
		if slices.Contains(fields[:i], f) {
			return ProjectResult{}, fmt.Errorf("storage: projection field %d repeated", f)
		}
	}
	if nw != nil && nw.Nodes() != m {
		return ProjectResult{}, fmt.Errorf("storage: network has %d nodes, cluster %d devices", nw.Nodes(), m)
	}

	res := ProjectResult{DeviceRows: make([]int, m)}
	global := map[string]mkhash.Record{}
	for dev, part := range c.parts {
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
		res.ScanTime = max(res.ScanTime, c.model.PerQuery+time.Duration(scanned)*c.model.PerRecord)
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
		res.Response += time.Duration(stats.Cycles) * c.model.PerRecord
	}
	return res, nil
}
