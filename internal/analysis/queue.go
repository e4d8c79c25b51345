// This file extends the §5.2.1 response model from one query to a
// sustained workload: each query's per-device bucket work joins that
// device's FIFO queue, and a query completes when its slowest device
// finishes its share. Declustering skew compounds under load — a device
// that gets twice the buckets of its peers also delays every queued
// successor — so the gap between FX and Modulo widens with utilization.
// The simulation is a deterministic discrete-event run over device
// timelines.

package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"fxdist/internal/convolve"
	"fxdist/internal/decluster"
	"fxdist/internal/query"
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

// queue is one simulation run: the Stats it accumulates, and when each
// device finishes its queued work.
type queue struct {
	Stats
	model CostModel
	free  []time.Duration
	total time.Duration // the responses' sum
}

// newQueue checks that every load vector is as wide as the first (what
// names one in the error) and starts that many idle devices.
func newQueue(model CostModel, what string, loads [][]int) (*queue, error) {
	m := len(loads[0])
	for i, l := range loads {
		if len(l) != m {
			return nil, fmt.Errorf("analysis: %s %d has %d device loads, %s 0 has %d", what, i, len(l), what, m)
		}
	}
	return &queue{model: model, free: make([]time.Duration, m), Stats: Stats{
		DeviceBusy: make([]time.Duration, m), DeviceWait: make([]time.Duration, m)}}, nil
}

// serve queues one query arriving at arrival behind each device's
// earlier work and returns its outcome. A device with no qualified
// bucket is skipped: the query neither waits for it nor occupies it.
func (q *queue) serve(arrival time.Duration, loads []int) QueryStats {
	completion := arrival
	for d, load := range loads {
		if load == 0 {
			continue
		}
		service := q.model.DeviceTime(load, 0)
		start := max(arrival, q.free[d])
		q.DeviceWait[d] += start - arrival
		q.DeviceBusy[d] += service
		q.free[d] = start + service
		completion = max(completion, q.free[d])
	}
	qs := QueryStats{Arrival: arrival, Completion: completion, Response: completion - arrival}
	q.total += qs.Response
	q.MaxResponse = max(q.MaxResponse, qs.Response)
	q.Makespan = max(q.Makespan, completion)
	return qs
}

// finish closes the run over its PerQuery outcomes.
func (q *queue) finish() Stats {
	q.MeanResponse = q.total / time.Duration(len(q.PerQuery))
	q.Utilization = make([]float64, len(q.free))
	if q.Makespan > 0 {
		for d, bz := range q.DeviceBusy {
			q.Utilization[d] = float64(bz) / float64(q.Makespan)
		}
	}
	return q.Stats
}

// Run simulates the job stream under the device cost model. Jobs are
// processed in arrival order (ties broken by input order); each device
// serves its queue FIFO. Every job must carry the same number of device
// loads.
func Run(jobs []Job, model CostModel) (Stats, error) {
	if len(jobs) == 0 {
		return Stats{}, fmt.Errorf("analysis: no jobs")
	}
	loads := make([][]int, len(jobs))
	for i, j := range jobs {
		loads[i] = j.Loads
	}
	q, err := newQueue(model, "job", loads)
	if err != nil {
		return Stats{}, err
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Arrival < jobs[order[b]].Arrival
	})
	q.PerQuery = make([]QueryStats, len(jobs))
	for _, idx := range order {
		q.PerQuery[idx] = q.serve(jobs[idx].Arrival, jobs[idx].Loads)
	}
	return q.finish(), nil
}

// RunClosed simulates a closed system with a fixed multiprogramming
// level: `clients` concurrent clients cycle through the pool of per-query
// device-load vectors (client c starts at pool index c and strides by the
// client count), each issuing its next query the moment the previous one
// completes, until `completions` queries have finished. The classic MPL
// experiment: throughput (completions/makespan) rises with clients until
// the most-loaded device saturates — and declustering skew lowers that
// ceiling.
func RunClosed(pool [][]int, clients, completions int, model CostModel) (Stats, error) {
	if len(pool) == 0 {
		return Stats{}, fmt.Errorf("analysis: empty query pool")
	}
	if clients <= 0 || completions <= 0 {
		return Stats{}, fmt.Errorf("analysis: clients and completions must be positive")
	}
	q, err := newQueue(model, "pool entry", pool)
	if err != nil {
		return Stats{}, err
	}
	clientFree := make([]time.Duration, clients)
	clientNext := make([]int, clients)
	for c := range clientNext {
		clientNext[c] = c % len(pool)
	}
	q.PerQuery = make([]QueryStats, 0, completions)
	for done := 0; done < completions; done++ {
		// The next query comes from the client that frees up first
		// (ties: lowest client index).
		c := 0
		for i := 1; i < clients; i++ {
			if clientFree[i] < clientFree[c] {
				c = i
			}
		}
		qs := q.serve(clientFree[c], pool[clientNext[c]])
		clientNext[c] = (clientNext[c] + clients) % len(pool)
		q.PerQuery = append(q.PerQuery, qs)
		clientFree[c] = qs.Completion
	}
	return q.finish(), nil
}

// LoadPool precomputes per-query device-load vectors for RunClosed.
func LoadPool(a decluster.GroupAllocator, queries []query.Query) ([][]int, error) {
	pool := make([][]int, len(queries))
	for i, q := range queries {
		if err := q.Validate(a.FileSystem()); err != nil {
			return nil, fmt.Errorf("analysis: query %d: %w", i, err)
		}
		pool[i] = convolve.Loads(a, q)
	}
	return pool, nil
}

// FromQueries builds jobs for a bucket-level query mix under an allocator,
// with the given arrival times (arrivals[i] pairs with queries[i]).
func FromQueries(a decluster.GroupAllocator, queries []query.Query, arrivals []time.Duration) ([]Job, error) {
	if len(queries) != len(arrivals) {
		return nil, fmt.Errorf("analysis: %d queries, %d arrivals", len(queries), len(arrivals))
	}
	pool, err := LoadPool(a, queries)
	if err != nil {
		return nil, err
	}
	jobs := make([]Job, len(pool))
	for i, loads := range pool {
		jobs[i] = Job{Arrival: arrivals[i], Loads: loads}
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
