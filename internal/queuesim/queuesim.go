// Package queuesim extends the paper's single-query response-time model
// (§5.2.1) to a sustained workload: a stream of partial match queries
// arrives over time, each query's per-device bucket work joins that
// device's FIFO queue, and a query completes when its slowest device
// finishes its share. Declustering skew compounds under load — a device
// that gets twice the buckets of its peers not only slows its own query
// but delays every queued successor — so the gap between FX and Modulo
// widens with utilization. The simulation is a deterministic discrete-
// event run over device timelines.
package queuesim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"fxdist/internal/convolve"
	"fxdist/internal/decluster"
	"fxdist/internal/query"
	"fxdist/internal/storage"
)

// Job is one query's arrival time and per-device bucket work.
type Job struct {
	Arrival time.Duration
	// Loads[d] is the number of qualified buckets on device d.
	Loads []int
}

// QueryStats reports one job's outcome.
type QueryStats struct {
	Arrival    time.Duration
	Completion time.Duration
	// Response is Completion - Arrival: queueing delay plus service.
	Response time.Duration
}

// Stats aggregates a simulation run.
type Stats struct {
	PerQuery     []QueryStats
	MeanResponse time.Duration
	MaxResponse  time.Duration
	// Makespan is the completion time of the last job.
	Makespan time.Duration
	// DeviceBusy[d] is device d's total busy time; Utilization[d] is
	// DeviceBusy[d] / Makespan.
	DeviceBusy  []time.Duration
	Utilization []float64
	// DeviceWait[d] is device d's total queue wait — time device tasks
	// spent queued behind earlier work (start - arrival, summed). Skewed
	// declustering shows up here first: the overloaded device's queue
	// wait grows while its peers stay near zero.
	DeviceWait []time.Duration
}

// Run simulates the job stream under the device cost model. Jobs are
// processed in arrival order (ties broken by input order); each device
// serves its queue FIFO. Every job must carry the same number of device
// loads.
func Run(jobs []Job, model storage.CostModel) (Stats, error) {
	if len(jobs) == 0 {
		return Stats{}, fmt.Errorf("queuesim: no jobs")
	}
	m := len(jobs[0].Loads)
	for i, j := range jobs {
		if len(j.Loads) != m {
			return Stats{}, fmt.Errorf("queuesim: job %d has %d device loads, job 0 has %d", i, len(j.Loads), m)
		}
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Arrival < jobs[order[b]].Arrival
	})

	deviceFree := make([]time.Duration, m)
	busy := make([]time.Duration, m)
	wait := make([]time.Duration, m)
	stats := Stats{PerQuery: make([]QueryStats, len(jobs))}
	var totalResp time.Duration
	for _, idx := range order {
		j := jobs[idx]
		completion := j.Arrival
		for d, load := range j.Loads {
			if load == 0 {
				continue
			}
			service := model.PerQuery + time.Duration(load)*model.PerBucket
			start := j.Arrival
			if deviceFree[d] > start {
				start = deviceFree[d]
			}
			wait[d] += start - j.Arrival
			end := start + service
			deviceFree[d] = end
			busy[d] += service
			if end > completion {
				completion = end
			}
		}
		qs := QueryStats{Arrival: j.Arrival, Completion: completion, Response: completion - j.Arrival}
		stats.PerQuery[idx] = qs
		totalResp += qs.Response
		if qs.Response > stats.MaxResponse {
			stats.MaxResponse = qs.Response
		}
		if completion > stats.Makespan {
			stats.Makespan = completion
		}
	}
	stats.MeanResponse = totalResp / time.Duration(len(jobs))
	stats.DeviceBusy = busy
	stats.DeviceWait = wait
	stats.Utilization = make([]float64, m)
	if stats.Makespan > 0 {
		for d, bz := range busy {
			stats.Utilization[d] = float64(bz) / float64(stats.Makespan)
		}
	}
	return stats, nil
}

// RunClosed simulates a closed system with a fixed multiprogramming
// level: `clients` concurrent clients cycle through the pool of per-query
// device-load vectors (client c starts at pool index c and strides by the
// client count), each issuing its next query the moment the previous one
// completes, until `completions` queries have finished. The classic MPL
// experiment: throughput (completions/makespan) rises with clients until
// the most-loaded device saturates — and declustering skew lowers that
// ceiling.
func RunClosed(pool [][]int, clients, completions int, model storage.CostModel) (Stats, error) {
	if len(pool) == 0 {
		return Stats{}, fmt.Errorf("queuesim: empty query pool")
	}
	if clients <= 0 || completions <= 0 {
		return Stats{}, fmt.Errorf("queuesim: clients and completions must be positive")
	}
	m := len(pool[0])
	for i, loads := range pool {
		if len(loads) != m {
			return Stats{}, fmt.Errorf("queuesim: pool entry %d has %d device loads, entry 0 has %d", i, len(loads), m)
		}
	}

	deviceFree := make([]time.Duration, m)
	busy := make([]time.Duration, m)
	wait := make([]time.Duration, m)
	clientFree := make([]time.Duration, clients)
	clientNext := make([]int, clients)
	for c := range clientNext {
		clientNext[c] = c % len(pool)
	}

	stats := Stats{PerQuery: make([]QueryStats, 0, completions)}
	var totalResp time.Duration
	for done := 0; done < completions; done++ {
		// The next query comes from the client that frees up first
		// (ties: lowest client index).
		c := 0
		for i := 1; i < clients; i++ {
			if clientFree[i] < clientFree[c] {
				c = i
			}
		}
		arrival := clientFree[c]
		loads := pool[clientNext[c]]
		clientNext[c] = (clientNext[c] + clients) % len(pool)

		completion := arrival
		for d, load := range loads {
			if load == 0 {
				continue
			}
			service := model.PerQuery + time.Duration(load)*model.PerBucket
			start := arrival
			if deviceFree[d] > start {
				start = deviceFree[d]
			}
			wait[d] += start - arrival
			end := start + service
			deviceFree[d] = end
			busy[d] += service
			if end > completion {
				completion = end
			}
		}
		qs := QueryStats{Arrival: arrival, Completion: completion, Response: completion - arrival}
		stats.PerQuery = append(stats.PerQuery, qs)
		totalResp += qs.Response
		if qs.Response > stats.MaxResponse {
			stats.MaxResponse = qs.Response
		}
		if completion > stats.Makespan {
			stats.Makespan = completion
		}
		clientFree[c] = completion
	}
	stats.MeanResponse = totalResp / time.Duration(completions)
	stats.DeviceBusy = busy
	stats.DeviceWait = wait
	stats.Utilization = make([]float64, m)
	if stats.Makespan > 0 {
		for d, bz := range busy {
			stats.Utilization[d] = float64(bz) / float64(stats.Makespan)
		}
	}
	return stats, nil
}

// LoadPool precomputes per-query device-load vectors for RunClosed.
func LoadPool(a decluster.GroupAllocator, queries []query.Query) ([][]int, error) {
	pool := make([][]int, len(queries))
	for i, q := range queries {
		if err := q.Validate(a.FileSystem()); err != nil {
			return nil, fmt.Errorf("queuesim: query %d: %w", i, err)
		}
		pool[i] = convolve.Loads(a, q)
	}
	return pool, nil
}

// FromQueries builds jobs for a bucket-level query mix under an allocator,
// with the given arrival times (arrivals[i] pairs with queries[i]).
func FromQueries(a decluster.GroupAllocator, queries []query.Query, arrivals []time.Duration) ([]Job, error) {
	if len(queries) != len(arrivals) {
		return nil, fmt.Errorf("queuesim: %d queries, %d arrivals", len(queries), len(arrivals))
	}
	jobs := make([]Job, len(queries))
	for i, q := range queries {
		if err := q.Validate(a.FileSystem()); err != nil {
			return nil, fmt.Errorf("queuesim: query %d: %w", i, err)
		}
		jobs[i] = Job{Arrival: arrivals[i], Loads: convolve.Loads(a, q)}
	}
	return jobs, nil
}

// PoissonArrivals generates n arrival times with exponentially distributed
// interarrival gaps of the given mean, deterministically for a seed.
func PoissonArrivals(n int, mean time.Duration, seed int64) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += r.ExpFloat64() * float64(mean)
		out[i] = time.Duration(math.Round(t))
	}
	return out
}

// UniformArrivals generates n arrival times with a fixed interarrival gap.
func UniformArrivals(n int, gap time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i) * gap
	}
	return out
}
