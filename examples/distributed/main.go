// Distributed: the paper's parallel-device model as an actual distributed
// system. One TCP server per device holds that device's bucket partition;
// a coordinator fans partial match queries out and merges results. Each
// device answers with per-device inverse mapping — it never scans the
// grid. The example also snapshots the file with its allocator spec and
// restores it, the deployment path a real operator would use.
//
// Run with: go run ./examples/distributed
package main

import (
	"bytes"
	"fmt"

	"fxdist"
)

func main() {
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "sensor", Cardinality: 300},
		{Name: "metric", Cardinality: 24},
		{Name: "site", Cardinality: 12},
	}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{4, 3, 2}))
	check(err)
	records, err := fxdist.GenerateRecords(spec, 20000, 11)
	check(err)
	for _, r := range records {
		check(file.Insert(r))
	}

	const m = 8
	fs, err := file.FileSystem(m)
	check(err)
	fx, err := fxdist.NewFX(fs)
	check(err)

	// Snapshot the loaded file + allocator spec: this is what ships to a
	// new deployment.
	var snap bytes.Buffer
	check(fxdist.SaveSnapshot(&snap, file, fx))
	fmt.Printf("snapshot: %d records, %d bytes, allocator %s\n",
		file.Len(), snap.Len(), fx.Name())

	// Restore and deploy: one TCP server per device on loopback.
	restored, alloc, err := fxdist.LoadSnapshot(&snap)
	check(err)
	addrs, stop, err := fxdist.DeployLocal(restored, alloc)
	check(err)
	defer stop()
	fmt.Printf("deployed %d device servers: %v ...\n\n", len(addrs), addrs[:2])

	// The coordinator needs only the schema (an empty file would do).
	coord, err := fxdist.Open(fxdist.Config{File: restored, Addrs: addrs})
	check(err)
	defer coord.Close()

	queries := []struct {
		label string
		spec  map[string]string
	}{
		{"metric=metric-3", map[string]string{"metric": "metric-3"}},
		{"site=site-7 metric=metric-1", map[string]string{"site": "site-7", "metric": "metric-1"}},
		{"sensor=sensor-42", map[string]string{"sensor": "sensor-42"}},
	}
	for _, q := range queries {
		pm, err := restored.Spec(q.spec)
		check(err)
		res, err := coord.Retrieve(pm)
		check(err)
		fmt.Printf("query %-30s hits=%-5d buckets/device=%v largest=%d\n",
			q.label, len(res.Records), res.DeviceBuckets, res.LargestResponseSize)
	}

	// Availability: redeploy with chained replication (each server also
	// holds its ring predecessor's backup partition); the servers say so
	// when Open dials, and the cluster fails over.
	raddrs, rstop, err := fxdist.DeployReplicatedLocal(restored, alloc)
	check(err)
	defer rstop()
	rcoord, err := fxdist.Open(fxdist.Config{File: restored, Addrs: raddrs})
	check(err)
	defer rcoord.Close()
	pm, err := restored.Spec(map[string]string{"metric": "metric-3"})
	check(err)
	res, err := rcoord.Retrieve(pm)
	check(err)
	fmt.Printf("\nreplicated deployment: %d hits with failover-capable retrieval\n",
		len(res.Records))
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
