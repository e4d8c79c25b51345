package engine_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/plancache"
	"fxdist/internal/query"
)

func testSchema(t *testing.T) *mkhash.File {
	t.Helper()
	f := mkhash.MustNew(mkhash.Schema{
		Fields: []string{"a", "b"},
		Depths: []int{2, 2},
	})
	return f
}

func anyQuery(t *testing.T, f *mkhash.File) mkhash.PartialMatch {
	t.Helper()
	pm, err := f.Spec(map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

// fixedDevice answers every scan with a canned Answer.
type fixedDevice struct {
	ans engine.Answer
	err error
}

func (d fixedDevice) Scan(ctx context.Context, q query.Query, pm mkhash.PartialMatch) (engine.Answer, error) {
	return d.ans, d.err
}

// slowDevice blocks until its delay elapses or the context is cancelled.
type slowDevice struct {
	delay time.Duration
	ans   engine.Answer
}

func (d slowDevice) Scan(ctx context.Context, q query.Query, pm mkhash.PartialMatch) (engine.Answer, error) {
	select {
	case <-time.After(d.delay):
		return d.ans, nil
	case <-ctx.Done():
		return engine.Answer{}, ctx.Err()
	}
}

func rec(vals ...string) mkhash.Record { return mkhash.Record(vals) }

// planned completes cfg with what every executor needs beside its
// devices: the schema f, a Modulo allocator on f's grid over
// len(cfg.Devices) devices (a power of two) unless cfg names one, and a
// plan cache closed when the test ends. The fake devices of these tests
// declare no owner (engine.Owner), so the executor asks every one of
// them, whatever the plan counts.
func planned(tb testing.TB, f *mkhash.File, cfg engine.Config) engine.Config {
	tb.Helper()
	if cfg.Alloc == nil {
		fs, err := f.FileSystem(len(cfg.Devices))
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Alloc = decluster.NewModulo(fs)
	}
	cfg.Schema, cfg.Plans = f, plancache.New(obs.NewRegistry(), "engine-test")
	tb.Cleanup(cfg.Plans.Close)
	return cfg
}

func newExec(t *testing.T, f *mkhash.File, devs ...engine.Device) *engine.Executor {
	t.Helper()
	return resilient(t, f, engine.Config{}, devs...)
}

func TestRetrieveMergesUnderCostModel(t *testing.T) {
	f := testSchema(t)
	e := newExec(t, f,
		fixedDevice{ans: engine.Answer{Buckets: 2, Records: 5, Hits: []mkhash.Record{rec("x", "1")}}},
		fixedDevice{ans: engine.Answer{Buckets: 7, Records: 9, Hits: []mkhash.Record{rec("y", "2"), rec("z", "3")}}},
		fixedDevice{},
		fixedDevice{},
	)
	res, err := e.Retrieve(context.Background(), anyQuery(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 3 || res.Records[0][0] != "x" || res.Records[2][0] != "z" {
		t.Fatalf("merged records wrong: %v", res.Records)
	}
	if want := []int{2, 7, 0, 0}; !slices.Equal(res.DeviceBuckets, want) {
		t.Errorf("DeviceBuckets = %v, want %v", res.DeviceBuckets, want)
	}
	if want := []int{5, 9, 0, 0}; !slices.Equal(res.DeviceRecords, want) {
		t.Errorf("DeviceRecords = %v, want %v", res.DeviceRecords, want)
	}
	if res.LargestResponseSize != 7 {
		t.Errorf("LargestResponseSize = %d, want 7", res.LargestResponseSize)
	}
}

// Every failing device must be reported, not just the first.
func TestRetrieveReportsAllFailingDevices(t *testing.T) {
	f := testSchema(t)
	e := newExec(t, f,
		fixedDevice{err: errors.New("boom-0")},
		fixedDevice{ans: engine.Answer{Buckets: 1}},
		fixedDevice{err: errors.New("boom-2")},
		fixedDevice{},
	)
	_, err := e.Retrieve(context.Background(), anyQuery(t, f))
	if err == nil {
		t.Fatal("no error")
	}
	var df *engine.DeviceFailure
	if !errors.As(err, &df) {
		t.Fatalf("error %v does not unwrap to DeviceFailure", err)
	}
	for _, want := range []string{"device 0", "boom-0", "device 2", "boom-2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// rerouted builds an executor over devs with a Reroute and no retry
// controller — the form netdist dials over a replicated fleet without
// WithResilience.
func rerouted(t *testing.T, f *mkhash.File, reroute func(context.Context, int, error) engine.Device, devs ...engine.Device) *engine.Executor {
	t.Helper()
	return resilient(t, f, engine.Config{Reroute: reroute}, devs...)
}

func TestReroutePolicyReroutes(t *testing.T) {
	f := testSchema(t)
	var consulted atomic.Int32
	e := rerouted(t, f,
		func(ctx context.Context, dev int, scanErr error) engine.Device {
			consulted.Add(1)
			if dev != 1 {
				t.Errorf("reroute consulted for healthy device %d", dev)
			}
			return fixedDevice{ans: engine.Answer{Buckets: 3, Hits: []mkhash.Record{rec("b", "2")}}}
		},
		fixedDevice{ans: engine.Answer{Buckets: 1, Hits: []mkhash.Record{rec("a", "1")}}},
		fixedDevice{err: errors.New("dead")},
	)
	res, err := e.Retrieve(context.Background(), anyQuery(t, f))
	if err != nil {
		t.Fatalf("reroute did not rescue the retrieval: %v", err)
	}
	if consulted.Load() != 1 {
		t.Errorf("reroute consulted %d times, want 1", consulted.Load())
	}
	if res.DeviceBuckets[1] != 3 || len(res.Records) != 2 {
		t.Errorf("replacement answer not used: buckets=%v records=%d", res.DeviceBuckets, len(res.Records))
	}
}

// The reroute is single-shot: a replacement that fails too is not
// rerouted again, a reroute func that declines (netdist does for remote
// rejections) lets the failure stand, and a cancelled context is never
// rerouted.
func TestReroutePolicyLimits(t *testing.T) {
	f := testSchema(t)
	dead := fixedDevice{err: errors.New("dead")}

	var consulted atomic.Int32
	e := rerouted(t, f, func(context.Context, int, error) engine.Device {
		consulted.Add(1)
		return fixedDevice{err: errors.New("backup dead too")}
	}, dead)
	if _, err := e.Retrieve(context.Background(), anyQuery(t, f)); err == nil || !strings.Contains(err.Error(), "backup dead too") {
		t.Errorf("err = %v, want the replacement's failure", err)
	}
	if consulted.Load() != 1 {
		t.Errorf("reroute consulted %d times for one slot, want 1", consulted.Load())
	}

	e = rerouted(t, f, func(context.Context, int, error) engine.Device { return nil }, dead)
	if _, err := e.Retrieve(context.Background(), anyQuery(t, f)); err == nil || !strings.Contains(err.Error(), "dead") {
		t.Errorf("err = %v, want the declined failure to stand", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	e = rerouted(t, f, func(context.Context, int, error) engine.Device {
		t.Error("reroute consulted on a cancelled context")
		return nil
	}, cancelThenFail{cancel})
	if _, err := e.Retrieve(ctx, anyQuery(t, f)); err == nil {
		t.Error("cancelled retrieval succeeded")
	}
}

// cancelThenFail cancels the retrieval's context from inside the scan
// and then fails, so the executor sees a failure on a dead context.
type cancelThenFail struct{ cancel context.CancelFunc }

func (d cancelThenFail) Scan(ctx context.Context, q query.Query, pm mkhash.PartialMatch) (engine.Answer, error) {
	d.cancel()
	return engine.Answer{}, errors.New("dead")
}

// Cancelling mid-retrieve must return promptly with the context's error
// and leave no goroutines behind (satellite: context-deadline coverage).
func TestRetrieveCancelPromptNoLeak(t *testing.T) {
	f := testSchema(t)
	e := newExec(t, f,
		fixedDevice{ans: engine.Answer{Buckets: 1}},
		slowDevice{delay: 30 * time.Second},
	)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Retrieve(ctx, anyQuery(t, f))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the fan-out start
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Retrieve did not return promptly after cancel")
	}
	// The straggler worker must observe the cancel and exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRetrieveDeadline(t *testing.T) {
	f := testSchema(t)
	e := newExec(t, f, slowDevice{delay: 30 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := e.Retrieve(ctx, anyQuery(t, f))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(t0) > 2*time.Second {
		t.Fatalf("deadline not honored promptly (%v)", time.Since(t0))
	}
}

func TestWorkerPoolBounded(t *testing.T) {
	f := testSchema(t)
	var inflight, peak atomic.Int32
	probe := func() engine.Device {
		return fixedDeviceFunc(func(ctx context.Context) (engine.Answer, error) {
			n := inflight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inflight.Add(-1)
			return engine.Answer{Buckets: 1}, nil
		})
	}
	devs := make([]engine.Device, 8)
	for i := range devs {
		devs[i] = probe()
	}
	e := resilient(t, f, engine.Config{Workers: 2}, devs...)
	if _, err := e.Retrieve(context.Background(), anyQuery(t, f)); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("observed %d concurrent scans, pool bound is 2", p)
	}
}

// fixedDeviceFunc adapts a func to the Device interface.
type fixedDeviceFunc func(ctx context.Context) (engine.Answer, error)

func (f fixedDeviceFunc) Scan(ctx context.Context, q query.Query, pm mkhash.PartialMatch) (engine.Answer, error) {
	return f(ctx)
}

func TestRetrieveBatch(t *testing.T) {
	f := testSchema(t)
	e := newExec(t, f,
		fixedDevice{ans: engine.Answer{Buckets: 2, Records: 3, Hits: []mkhash.Record{rec("a", "1")}}},
		fixedDevice{ans: engine.Answer{Buckets: 4, Records: 1}},
	)
	pms := make([]mkhash.PartialMatch, 5)
	for i := range pms {
		pms[i] = anyQuery(t, f)
	}
	// One bad query in the middle: wrong arity fails at planning.
	pms[2] = make(mkhash.PartialMatch, 1)
	results, err := e.RetrieveBatch(context.Background(), pms)
	if err == nil {
		t.Fatal("bad query did not surface in the joined error")
	}
	if !strings.Contains(err.Error(), "query 2") {
		t.Errorf("joined error %q does not index the failing query", err)
	}
	if len(results) != len(pms) {
		t.Fatalf("got %d results for %d queries", len(results), len(pms))
	}
	for i, res := range results {
		if i == 2 {
			if len(res.Records) != 0 {
				t.Errorf("failed query %d has a non-zero result", i)
			}
			continue
		}
		if res.DeviceBuckets[0] != 2 || res.DeviceBuckets[1] != 4 || len(res.Records) != 1 {
			t.Errorf("query %d merged wrong: %+v", i, res)
		}
	}
}

// Two executors over the same devices differ only in the Reroute their
// Config names: the bare one fails, the rerouting one is rescued.
func TestPolicyChainIsTheOnlyDifference(t *testing.T) {
	f := testSchema(t)
	devs := []engine.Device{fixedDevice{err: errors.New("dead")}}
	if _, err := newExec(t, f, devs...).Retrieve(context.Background(), anyQuery(t, f)); err == nil {
		t.Fatal("bare executor should fail")
	}
	rescued := rerouted(t, f, func(context.Context, int, error) engine.Device {
		return fixedDevice{ans: engine.Answer{Buckets: 1}}
	}, devs...)
	if _, err := rescued.Retrieve(context.Background(), anyQuery(t, f)); err != nil {
		t.Fatalf("executor with a reroute failed: %v", err)
	}
}

// TestConfigValidation: the schema, the allocator and the plan cache are
// required, and there is one device per device of the allocator's grid.
func TestConfigValidation(t *testing.T) {
	f := testSchema(t)
	four := []engine.Device{fixedDevice{}, fixedDevice{}, fixedDevice{}, fixedDevice{}}
	good := planned(t, f, engine.Config{Devices: four})
	if _, err := engine.New(good); err != nil {
		t.Fatalf("complete config refused: %v", err)
	}
	for name, broken := range map[string]func(*engine.Config){
		"nil schema":      func(c *engine.Config) { c.Schema = nil },
		"nil allocator":   func(c *engine.Config) { c.Alloc = nil },
		"nil plan cache":  func(c *engine.Config) { c.Plans = nil },
		"3 devices for 4": func(c *engine.Config) { c.Devices = four[:3] },
		"no devices":      func(c *engine.Config) { c.Devices = nil },
		"8 devices for 4": func(c *engine.Config) { c.Devices = append(four, four...) },
	} {
		cfg := good
		broken(&cfg)
		if _, err := engine.New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func ExampleExecutor_RetrieveBatch() {
	f := mkhash.MustNew(mkhash.Schema{Fields: []string{"k"}, Depths: []int{1}})
	plans := plancache.New(obs.NewRegistry(), "engine-example")
	defer plans.Close()
	e, _ := engine.New(engine.Config{
		Schema:  f,
		Devices: []engine.Device{fixedDevice{ans: engine.Answer{Buckets: 1}}},
		Alloc:   decluster.NewModulo(decluster.MustFileSystem(f.Sizes(), 1)),
		Plans:   plans,
	})
	pm, _ := f.Spec(map[string]string{})
	results, _ := e.RetrieveBatch(context.Background(), []mkhash.PartialMatch{pm, pm})
	fmt.Println(len(results), results[0].LargestResponseSize)
	// Output: 2 1
}
