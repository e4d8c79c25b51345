// Catalog: a parts catalog declustered over 32 simulated parallel disks —
// the workload the paper's introduction motivates. Records are multi-key
// hashed on (part, supplier, warehouse, status); partial match queries
// like "every record for supplier S" are answered by all disks in
// parallel. The example compares FX and Modulo declustering on the same
// query mix and prices each retrieval's per-disk bucket and record counts
// under the paper's parallel-disk model (analysis.Simulate).
//
// Run with: go run ./examples/catalog
package main

import (
	"fmt"
	"time"

	"fxdist"
	"fxdist/internal/analysis"
)

func main() {
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "part", Cardinality: 5000},
		{Name: "supplier", Cardinality: 400, ZipfS: 1.5}, // a few big suppliers
		{Name: "warehouse", Cardinality: 30},
		{Name: "status", Cardinality: 6},
	}}
	// Directory: F = (16, 16, 8, 4) — every field directory is smaller
	// than the disk count M = 32, exactly the regime where Modulo
	// struggles and FX's field transformations matter.
	schema := fxdist.GenerateSchema(spec, []int{4, 4, 3, 2})
	const m = 32

	file, err := fxdist.NewFile(schema)
	check(err)
	records, err := fxdist.GenerateRecords(spec, 50000, 42)
	check(err)
	for _, r := range records {
		check(file.Insert(r))
	}
	fmt.Printf("catalog: %d records in a %v bucket grid on %d disks\n\n",
		file.Len(), file.Sizes(), m)

	fs, err := file.FileSystem(m)
	check(err)
	fx, err := fxdist.NewFX(fs)
	check(err)
	md := fxdist.NewModulo(fs)

	queries, err := fxdist.GeneratePartialMatches(spec, 40, 0.4, 7)
	check(err)

	for _, alloc := range []fxdist.GroupAllocator{fx, md} {
		cluster, err := fxdist.Open(fxdist.Config{File: file, Allocator: alloc})
		check(err)
		var worstResp, totalResp time.Duration
		var worstLRS, hits int
		for _, pm := range queries {
			res, err := cluster.Retrieve(pm)
			check(err)
			hits += len(res.Records)
			resp := response(res)
			totalResp += resp
			worstResp = max(worstResp, resp)
			if res.LargestResponseSize > worstLRS {
				worstLRS = res.LargestResponseSize
			}
		}
		fmt.Printf("%-22s hits=%-6d avg response=%-12v worst response=%-12v worst buckets/disk=%d\n",
			alloc.Name(), hits, totalResp/time.Duration(len(queries)), worstResp, worstLRS)
	}

	// Drill into one query: everything from one supplier.
	pm, err := file.Spec(map[string]string{"supplier": "supplier-0"})
	check(err)
	fmt.Println("\nquery: supplier=supplier-0 (all parts, warehouses, statuses)")
	for _, alloc := range []fxdist.GroupAllocator{fx, md} {
		cluster, err := fxdist.Open(fxdist.Config{File: file, Allocator: alloc})
		check(err)
		res, err := cluster.Retrieve(pm)
		check(err)
		fmt.Printf("%-22s hits=%-6d buckets/disk=%v response=%v\n",
			alloc.Name(), len(res.Records), res.DeviceBuckets, response(res))
	}
}

// response is the simulated parallel response time of one retrieval on
// the paper's late-1980s disks: the slowest disk's time.
func response(res fxdist.RetrieveResult) time.Duration {
	return analysis.Simulate(analysis.ParallelDisk, res.DeviceBuckets, res.DeviceRecords).Response
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
