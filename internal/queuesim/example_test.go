package queuesim_test

import (
	"fmt"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/query"
	"fxdist/internal/queuesim"
	"fxdist/internal/storage"
)

// ExampleRun simulates two back-to-back whole-file queries on parallel
// disks: the second queues behind the first.
func ExampleRun() {
	fs, _ := decluster.NewFileSystem([]int{4, 4}, 16)
	fx, _ := decluster.NewFX(fs)
	queries := []query.Query{query.All(2), query.All(2)}
	jobs, _ := queuesim.FromQueries(fx, queries, queuesim.UniformArrivals(2, time.Millisecond))
	stats, _ := queuesim.Run(jobs, storage.ParallelDisk)
	fmt.Println(stats.PerQuery[0].Response, stats.PerQuery[1].Response)
	// Output:
	// 29ms 57ms
}
