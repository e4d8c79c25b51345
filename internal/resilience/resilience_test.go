package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/query"
)

// Same seed and schedule must produce the identical fault sequence.
func TestInjectorDeterminism(t *testing.T) {
	sched := map[int]Schedule{0: {ErrorRate: 0.5}}
	seq := func() []bool {
		in := NewInjector("det", 7, sched)
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Before(context.Background(), 0) != nil
		}
		return out
	}
	a, b := seq(), seq()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d diverged across identical injectors", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("ErrorRate 0.5 produced %d/%d failures", fails, len(a))
	}
}

func TestInjectorPartitionAndClear(t *testing.T) {
	in := NewInjector("part", 1, map[int]Schedule{0: {Partition: true}})
	ctx := context.Background()
	if err := in.Before(ctx, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("partitioned device did not fail: %v", err)
	}
	// Unscheduled devices pass untouched.
	if err := in.Before(ctx, 1); err != nil {
		t.Fatalf("unscheduled device failed: %v", err)
	}
	in.Clear(0)
	if err := in.Before(ctx, 0); err != nil {
		t.Fatalf("cleared device still failing: %v", err)
	}
	in.Set(0, Schedule{Partition: true})
	if err := in.Before(ctx, 0); !errors.Is(err, ErrInjected) {
		t.Fatal("Set did not re-apply the partition")
	}
}

// FlapEvery=N alternates N successes with N failures, deterministically.
func TestInjectorFlap(t *testing.T) {
	in := NewInjector("flap", 1, map[int]Schedule{0: {FlapEvery: 2}})
	ctx := context.Background()
	want := []bool{false, false, true, true, false, false, true, true}
	for i, w := range want {
		got := in.Before(ctx, 0) != nil
		if got != w {
			t.Fatalf("op %d: failed=%v, want %v", i+1, got, w)
		}
	}
}

func TestInjectorLatency(t *testing.T) {
	in := NewInjector("lat", 1, map[int]Schedule{0: {Latency: 30 * time.Millisecond}})
	start := time.Now()
	if err := in.Before(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("latency injection slept only %v", d)
	}
	// A cancelled context cuts the sleep short.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	in.Set(1, Schedule{Latency: 10 * time.Second})
	start = time.Now()
	if err := in.Before(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ctx-cancelled delay returned %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("delay ignored the context deadline")
	}
}

func TestInjectorHangHonorsContext(t *testing.T) {
	in := NewInjector("hang", 1, map[int]Schedule{0: {Hang: true}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- in.Before(ctx, 0) }()
	select {
	case err := <-done:
		t.Fatalf("hang returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("hang returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hang did not release on cancellation")
	}
}

type innerDevice struct{ calls int }

func (d *innerDevice) Scan(ctx context.Context, q query.Query, pm mkhash.PartialMatch) (engine.Answer, error) {
	d.calls++
	return engine.Answer{Buckets: 5}, nil
}

func TestWrapFrontsDevices(t *testing.T) {
	inner := &innerDevice{}
	in := NewInjector("wrap", 1, map[int]Schedule{0: {Partition: true}})
	devs := in.Wrap([]engine.Device{inner, &innerDevice{}})
	if len(devs) != 2 {
		t.Fatalf("Wrap returned %d devices", len(devs))
	}
	if _, err := devs[0].Scan(context.Background(), query.Query{}, mkhash.PartialMatch{}); !errors.Is(err, ErrInjected) {
		t.Fatalf("wrapped partitioned device returned %v", err)
	}
	if inner.calls != 0 {
		t.Fatal("inner device reached despite injected failure")
	}
	ans, err := devs[1].Scan(context.Background(), query.Query{}, mkhash.PartialMatch{})
	if err != nil || ans.Buckets != 5 {
		t.Fatalf("healthy wrapped device: ans=%+v err=%v", ans, err)
	}
}

func TestReportCounters(t *testing.T) {
	in := NewInjector("rep", 1, map[int]Schedule{
		0: {Partition: true},
		2: {Latency: time.Microsecond},
	})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		in.Before(ctx, 0) //nolint:errcheck
	}
	in.Before(ctx, 2) //nolint:errcheck
	rep := in.Report()
	if rep.Name != "rep" || rep.Seed != 1 {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Devices) != 2 || rep.Devices[0].Device != 0 || rep.Devices[1].Device != 2 {
		t.Fatalf("devices not sorted: %+v", rep.Devices)
	}
	if rep.Devices[0].Ops != 3 || rep.Devices[0].Injected != 3 {
		t.Errorf("device 0 counters: %+v", rep.Devices[0])
	}
	if rep.Devices[1].Delayed != 1 || rep.Devices[1].Injected != 0 {
		t.Errorf("device 2 counters: %+v", rep.Devices[1])
	}

	// A cluster's snapshot lists its injector, and empty lists (not
	// null) for what it lacks.
	snap := SnapshotOf(nil, in)
	if len(snap.Injectors) != 1 || snap.Injectors[0].Name != "rep" || snap.Retry == nil || len(snap.Retry) != 0 {
		t.Fatalf("SnapshotOf(nil, in) = %+v", snap)
	}
}
