package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"fxdist/internal/butterfly"
	"fxdist/internal/mkhash"
)

// ProjectResult reports a parallel projection with duplicate elimination —
// the relational operator the paper's citation [RoJa87] ran on the
// Butterfly machine.
type ProjectResult struct {
	// Rows are the distinct projected tuples, sorted lexicographically
	// (determinism for tests and callers).
	Rows []mkhash.Record
	// DeviceRows[i] is device i's locally deduplicated row count — the
	// messages it must ship to the front end.
	DeviceRows []int
	// ScanTime is the slowest device's local scan+dedup time.
	ScanTime time.Duration
	// GatherCycles is the simulated interconnect cost of collecting the
	// local results at the front end (0 when no network is attached).
	GatherCycles int
	// Response combines scan time and, when a network is attached, the
	// gather phase at one cycle per CostModel.PerRecord.
	Response time.Duration
}

// Project computes the duplicate-free projection of the whole file onto
// the given field indices, in parallel: every device scans its local
// buckets and deduplicates locally, then the local results are merged.
// When nw is non-nil, the merge's gather phase is costed on the simulated
// Butterfly interconnect (local row counts become messages to node 0).
func (c *Cluster) Project(fields []int, nw *butterfly.Network) (ProjectResult, error) {
	if len(fields) == 0 {
		return ProjectResult{}, fmt.Errorf("storage: projection needs at least one field")
	}
	seen := map[int]bool{}
	for _, f := range fields {
		if f < 0 || f >= c.fs.NumFields() {
			return ProjectResult{}, fmt.Errorf("storage: projection field %d outside [0,%d)", f, c.fs.NumFields())
		}
		if seen[f] {
			return ProjectResult{}, fmt.Errorf("storage: projection field %d repeated", f)
		}
		seen[f] = true
	}
	if nw != nil && nw.Nodes() != c.fs.M {
		return ProjectResult{}, fmt.Errorf("storage: network has %d nodes, cluster %d devices", nw.Nodes(), c.fs.M)
	}

	m := c.fs.M
	res := ProjectResult{DeviceRows: make([]int, m)}
	locals := make([][]mkhash.Record, m)
	times := make([]time.Duration, m)
	var wg sync.WaitGroup
	for dev := 0; dev < m; dev++ {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			distinct := map[string]mkhash.Record{}
			scanned := 0
			for _, recs := range c.parts[dev] {
				for _, r := range recs {
					scanned++
					row := make(mkhash.Record, len(fields))
					for i, f := range fields {
						row[i] = r[f]
					}
					distinct[strings.Join(row, "\x00")] = row
				}
			}
			rows := make([]mkhash.Record, 0, len(distinct))
			for _, row := range distinct {
				rows = append(rows, row)
			}
			locals[dev] = rows
			times[dev] = c.model.PerQuery + time.Duration(scanned)*c.model.PerRecord
		}(dev)
	}
	wg.Wait()

	global := map[string]mkhash.Record{}
	for dev, rows := range locals {
		res.DeviceRows[dev] = len(rows)
		if times[dev] > res.ScanTime {
			res.ScanTime = times[dev]
		}
		for _, row := range rows {
			global[strings.Join(row, "\x00")] = row
		}
	}
	for _, row := range global {
		res.Rows = append(res.Rows, row)
	}
	sort.Slice(res.Rows, func(a, b int) bool {
		return strings.Join(res.Rows[a], "\x00") < strings.Join(res.Rows[b], "\x00")
	})

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
