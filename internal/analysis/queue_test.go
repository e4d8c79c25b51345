package analysis

import (
	"testing"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/field"
	"fxdist/internal/query"
	"fxdist/internal/workload"
)

// model with trivial arithmetic for hand-checkable expectations.
var unitModel = CostModel{PerQuery: 0, PerBucket: time.Second}

func TestRunSingleJob(t *testing.T) {
	stats, err := Run([]Job{{Arrival: 0, Loads: []int{2, 1, 0}}}, unitModel)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PerQuery[0].Response != 2*time.Second {
		t.Errorf("response = %v, want 2s", stats.PerQuery[0].Response)
	}
	if stats.Makespan != 2*time.Second {
		t.Errorf("makespan = %v", stats.Makespan)
	}
	if stats.DeviceBusy[0] != 2*time.Second || stats.DeviceBusy[2] != 0 {
		t.Errorf("device busy = %v", stats.DeviceBusy)
	}
	if stats.Utilization[0] != 1.0 {
		t.Errorf("utilization = %v", stats.Utilization)
	}
}

// Two jobs hitting the same device queue FIFO: the second waits.
func TestRunQueueing(t *testing.T) {
	jobs := []Job{
		{Arrival: 0, Loads: []int{3}},
		{Arrival: time.Second, Loads: []int{1}},
	}
	stats, err := Run(jobs, unitModel)
	if err != nil {
		t.Fatal(err)
	}
	// Job 1 arrives at 1s but device is busy until 3s; finishes at 4s.
	if got := stats.PerQuery[1].Completion; got != 4*time.Second {
		t.Errorf("job 1 completion = %v, want 4s", got)
	}
	if got := stats.PerQuery[1].Response; got != 3*time.Second {
		t.Errorf("job 1 response = %v, want 3s", got)
	}
}

// Arrival order is by time, not input order.
func TestRunSortsByArrival(t *testing.T) {
	jobs := []Job{
		{Arrival: 2 * time.Second, Loads: []int{1}},
		{Arrival: 0, Loads: []int{1}},
	}
	stats, err := Run(jobs, unitModel)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PerQuery[1].Completion != time.Second {
		t.Errorf("early job completion = %v, want 1s", stats.PerQuery[1].Completion)
	}
	if stats.PerQuery[0].Completion != 3*time.Second {
		t.Errorf("late job completion = %v, want 3s", stats.PerQuery[0].Completion)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, unitModel); err == nil {
		t.Error("empty job list accepted")
	}
	jobs := []Job{{Loads: []int{1}}, {Loads: []int{1, 2}}}
	if _, err := Run(jobs, unitModel); err == nil {
		t.Error("inconsistent device counts accepted")
	}
}

// Balanced declustering must beat skewed declustering under sustained
// load: FX vs Modulo on the Table 2 system with back-to-back whole-file
// queries.
func TestBalancedBeatsSkewedUnderLoad(t *testing.T) {
	fs := decluster.MustFileSystem([]int{4, 4}, 16)
	fx := decluster.MustFX(fs, field.WithKinds([]field.Kind{field.I, field.U}))
	md := decluster.NewModulo(fs)
	queries := make([]query.Query, 50)
	for i := range queries {
		queries[i] = query.All(2)
	}
	arrivals := UniformArrivals(50, time.Millisecond)
	run := func(a decluster.GroupAllocator) Stats {
		jobs, err := FromQueries(a, queries, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := Run(jobs, ParallelDisk)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	fxStats, mdStats := run(fx), run(md)
	if fxStats.MeanResponse >= mdStats.MeanResponse {
		t.Errorf("FX mean response %v not better than Modulo %v",
			fxStats.MeanResponse, mdStats.MeanResponse)
	}
	if fxStats.Makespan > mdStats.Makespan {
		t.Errorf("FX makespan %v worse than Modulo %v", fxStats.Makespan, mdStats.Makespan)
	}
}

// Total device busy time is conserved across allocators (declustering
// moves work, it does not create or destroy it).
func TestWorkConservation(t *testing.T) {
	fs := decluster.MustFileSystem([]int{8, 8, 4}, 8)
	fx := decluster.MustFX(fs)
	md := decluster.NewModulo(fs)
	queries, err := workload.BucketQueries(fs.Sizes, 30, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := UniformArrivals(30, time.Millisecond)
	sum := func(a decluster.GroupAllocator) time.Duration {
		jobs, err := FromQueries(a, queries, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := Run(jobs, unitModel)
		if err != nil {
			t.Fatal(err)
		}
		var total time.Duration
		for _, b := range stats.DeviceBusy {
			total += b
		}
		return total
	}
	if sum(fx) != sum(md) {
		t.Error("total work differs between allocators")
	}
}

func TestFromQueriesValidation(t *testing.T) {
	fs := decluster.MustFileSystem([]int{4, 4}, 8)
	fx := decluster.MustFX(fs)
	if _, err := FromQueries(fx, []query.Query{query.All(2)}, nil); err == nil {
		t.Error("arrival count mismatch accepted")
	}
	bad := query.New([]int{9, 0})
	if _, err := FromQueries(fx, []query.Query{bad}, []time.Duration{0}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestRunClosedValidation(t *testing.T) {
	if _, err := RunClosed(nil, 1, 1, unitModel); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := RunClosed([][]int{{1}}, 0, 1, unitModel); err == nil {
		t.Error("zero clients accepted")
	}
	if _, err := RunClosed([][]int{{1}}, 1, 0, unitModel); err == nil {
		t.Error("zero completions accepted")
	}
	if _, err := RunClosed([][]int{{1}, {1, 2}}, 1, 1, unitModel); err == nil {
		t.Error("inconsistent pool accepted")
	}
}

// One client: queries run back to back; makespan = sum of services.
func TestRunClosedSingleClient(t *testing.T) {
	pool := [][]int{{2}, {3}}
	stats, err := RunClosed(pool, 1, 4, unitModel) // 2,3,2,3 seconds
	if err != nil {
		t.Fatal(err)
	}
	if stats.Makespan != 10*time.Second {
		t.Errorf("makespan = %v, want 10s", stats.Makespan)
	}
	if stats.Utilization[0] != 1.0 {
		t.Errorf("utilization = %v, want 1", stats.Utilization[0])
	}
}

// More clients increase throughput until a device saturates.
func TestRunClosedThroughputRises(t *testing.T) {
	// Two devices, queries alternate hitting one device each.
	pool := [][]int{{4, 0}, {0, 4}}
	seq, err := RunClosed(pool, 1, 8, unitModel)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunClosed(pool, 2, 8, unitModel)
	if err != nil {
		t.Fatal(err)
	}
	if par.Makespan >= seq.Makespan {
		t.Errorf("2 clients (%v) not faster than 1 (%v)", par.Makespan, seq.Makespan)
	}
}

// Closed-loop comparison: FX sustains higher throughput than Modulo at
// the same multiprogramming level on the Table 2 grid.
func TestRunClosedFXBeatsModulo(t *testing.T) {
	fs := decluster.MustFileSystem([]int{4, 4}, 16)
	fx := decluster.MustFX(fs, field.WithKinds([]field.Kind{field.I, field.U}))
	md := decluster.NewModulo(fs)
	queries, err := workload.BucketQueries(fs.Sizes, 40, 0.3, 17)
	if err != nil {
		t.Fatal(err)
	}
	run := func(a decluster.GroupAllocator) Stats {
		pool, err := LoadPool(a, queries)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := RunClosed(pool, 4, 200, ParallelDisk)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	fxStats, mdStats := run(fx), run(md)
	if fxStats.Makespan > mdStats.Makespan {
		t.Errorf("FX makespan %v above Modulo %v", fxStats.Makespan, mdStats.Makespan)
	}
}

func TestLoadPoolValidation(t *testing.T) {
	fs := decluster.MustFileSystem([]int{4, 4}, 8)
	fx := decluster.MustFX(fs)
	if _, err := LoadPool(fx, []query.Query{query.New([]int{9, 0})}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestArrivalGenerators(t *testing.T) {
	u := UniformArrivals(4, time.Second)
	for i, a := range u {
		if a != time.Duration(i)*time.Second {
			t.Errorf("uniform arrival %d = %v", i, a)
		}
	}
	p1 := PoissonArrivals(100, time.Millisecond, 5)
	p2 := PoissonArrivals(100, time.Millisecond, 5)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("Poisson arrivals not deterministic for equal seeds")
		}
		if i > 0 && p1[i] < p1[i-1] {
			t.Fatal("Poisson arrivals not monotone")
		}
	}
	// Mean interarrival should approximate the requested mean.
	mean := p1[len(p1)-1] / 100
	if mean < 700*time.Microsecond || mean > 1300*time.Microsecond {
		t.Errorf("mean interarrival %v, want ~1ms", mean)
	}
}
