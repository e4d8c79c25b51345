package engine_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/query"
)

// flakyDevice fails its first failures scans, then succeeds.
type flakyDevice struct {
	failures int32
	calls    atomic.Int32
	ans      engine.Answer
}

func (d *flakyDevice) Scan(ctx context.Context, q query.Query, pm mkhash.PartialMatch) (engine.Answer, error) {
	if d.calls.Add(1) <= d.failures {
		return engine.Answer{}, errors.New("flaky")
	}
	return d.ans, nil
}

// retryNPolicy retries up to n attempts on the same device (Device nil
// keeps the slot's current device and its primary flag).
type retryNPolicy struct {
	n     int
	dev   engine.Device // when non-nil, Failure offers this replacement
	delay time.Duration
}

func (p *retryNPolicy) Allow(ctx context.Context, dev int) error { return nil }

func (p *retryNPolicy) Failure(ctx context.Context, at engine.Attempt) engine.Decision {
	if at.N >= p.n {
		return engine.Decision{}
	}
	return engine.Decision{Retry: true, Device: p.dev, Delay: p.delay}
}

func (p *retryNPolicy) Success(dev int, primary bool, elapsed time.Duration) {}

// resilient builds an executor over devs running under r.
func resilient(t *testing.T, f *mkhash.File, r engine.Resilience, devs ...engine.Device) *engine.Executor {
	t.Helper()
	e, err := engine.New(engine.Config{Schema: f, Devices: devs, Model: engine.MainMemory, Resilience: r})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// An empty Resilience (nil policy chain) must behave exactly like the
// bare executor: the failure stands, no retry loop engages.
func TestResilienceNilPoliciesFallsThrough(t *testing.T) {
	f := testSchema(t)
	d := resilient(t, f, engine.Resilience{}, fixedDevice{err: errors.New("dead")})
	if _, err := d.Retrieve(context.Background(), anyQuery(t, f)); err == nil {
		t.Fatal("empty resilience rescued a dead device")
	}
}

// A policy that re-asks the same failed device (Decision.Device nil)
// must re-run the same device and stop when the policy declines.
func TestPolicyRetriesSameDevice(t *testing.T) {
	f := testSchema(t)
	dev := &flakyDevice{failures: 2, ans: engine.Answer{Buckets: 1, Hits: []mkhash.Record{rec("a", "1")}}}
	e := resilient(t, f, engine.Resilience{Policies: []engine.Policy{&retryNPolicy{n: 5}}}, dev)
	res, err := e.Retrieve(context.Background(), anyQuery(t, f))
	if err != nil {
		t.Fatalf("retries did not rescue: %v", err)
	}
	if got := dev.calls.Load(); got != 3 {
		t.Errorf("device scanned %d times, want 3 (2 failures + success)", got)
	}
	if len(res.Records) != 1 {
		t.Errorf("records = %v", res.Records)
	}

	// Same policy, device that never recovers: the budget must bound it.
	dead := &flakyDevice{failures: 1 << 30}
	e2 := resilient(t, f, engine.Resilience{Policies: []engine.Policy{&retryNPolicy{n: 4}}}, dead)
	if _, err := e2.Retrieve(context.Background(), anyQuery(t, f)); err == nil {
		t.Fatal("dead device rescued")
	}
	if got := dead.calls.Load(); got != 4 {
		t.Errorf("dead device scanned %d times, want MaxAttempts=4", got)
	}
}

// A policy offering a replacement device must see the replacement's
// answer merged, and later attempts are non-primary.
func TestPolicyReplacementDevice(t *testing.T) {
	f := testSchema(t)
	alt := fixedDevice{ans: engine.Answer{Buckets: 2, Hits: []mkhash.Record{rec("b", "2")}}}
	e := resilient(t, f, engine.Resilience{Policies: []engine.Policy{&retryNPolicy{n: 3, dev: alt}}}, fixedDevice{err: errors.New("dead")})
	res, err := e.Retrieve(context.Background(), anyQuery(t, f))
	if err != nil {
		t.Fatalf("replacement did not rescue: %v", err)
	}
	if res.DeviceBuckets[0] != 2 || len(res.Records) != 1 {
		t.Errorf("replacement answer not used: %+v", res)
	}
}

// Cancelling during a policy backoff sleep must return promptly with
// the context's error and leave no goroutines behind.
func TestPolicyRetryCancelNoLeak(t *testing.T) {
	f := testSchema(t)
	e := resilient(t, f, engine.Resilience{
		Policies: []engine.Policy{&retryNPolicy{n: 1 << 30, delay: 30 * time.Second}},
	}, fixedDevice{err: errors.New("dead")})
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Retrieve(ctx, anyQuery(t, f))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the backoff sleep start
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Retrieve did not return promptly after cancel mid-backoff")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Partial mode: a retrieval where some devices fail returns the
// survivors' merged answer plus a PartialError manifest with coverage.
func TestPartialResult(t *testing.T) {
	f := testSchema(t)
	var gotCoverage float64
	var gotFailed []int
	e := resilient(t, f, engine.Resilience{
		Partial: true,
		OnPartial: func(c float64, failed []int) {
			gotCoverage, gotFailed = c, append([]int(nil), failed...)
		},
	},
		fixedDevice{ans: engine.Answer{Buckets: 1, Hits: []mkhash.Record{rec("a", "1")}}},
		fixedDevice{err: errors.New("dead")},
		fixedDevice{ans: engine.Answer{Buckets: 2, Hits: []mkhash.Record{rec("b", "2")}}},
	)
	res, err := e.Retrieve(context.Background(), anyQuery(t, f))
	if err == nil {
		t.Fatal("partial retrieval returned no error manifest")
	}
	var pe *engine.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err %v does not unwrap to PartialError", err)
	}
	if len(pe.Failed) != 1 || pe.Failed[1] == nil {
		t.Errorf("manifest = %v, want device 1", pe.Failed)
	}
	if len(res.Records) != 2 || len(pe.Res.Records) != 2 {
		t.Errorf("survivor records missing: res=%d pe=%d", len(res.Records), len(pe.Res.Records))
	}
	// |R(q)| for the all-free query is 2^(2+2)=16; survivors covered 1+2.
	if want := 3.0 / 16.0; pe.Coverage != want {
		t.Errorf("coverage = %v, want %v", pe.Coverage, want)
	}
	if gotCoverage != pe.Coverage || len(gotFailed) != 1 || gotFailed[0] != 1 {
		t.Errorf("OnPartial saw coverage=%v failed=%v", gotCoverage, gotFailed)
	}
	// DeviceFailure for the dead device must still unwrap.
	var df *engine.DeviceFailure
	if !errors.As(err, &df) || df.Device != 1 {
		t.Errorf("PartialError does not unwrap to the device failure: %v", err)
	}
}

// All devices failing must never degrade — that is a total failure.
func TestPartialNeedsSurvivors(t *testing.T) {
	f := testSchema(t)
	e := resilient(t, f, engine.Resilience{Partial: true},
		fixedDevice{err: errors.New("dead-0")},
		fixedDevice{err: errors.New("dead-1")},
	)
	_, err := e.Retrieve(context.Background(), anyQuery(t, f))
	if err == nil {
		t.Fatal("total failure returned nil error")
	}
	if _, ok := err.(*engine.TracedError); ok {
		err = errors.Unwrap(err)
	}
	var pe *engine.PartialError
	if errors.As(err, &pe) {
		t.Fatal("total failure degraded into a partial result")
	}
}

// stubHedger always plans the given backup after a fixed delay.
type stubHedger struct {
	backup engine.Device
	after  time.Duration
	hedged atomic.Int32
	won    atomic.Int32
}

func (h *stubHedger) Plan(dev int) (engine.Device, time.Duration, bool) {
	return h.backup, h.after, true
}
func (h *stubHedger) Hedged(dev int)                                    { h.hedged.Add(1) }
func (h *stubHedger) HedgeWon(dev int)                                  { h.won.Add(1) }
func (h *stubHedger) Observe(dev int, elapsed time.Duration, err error) {}

// A slow primary must lose to its hedged backup, and the hedger hooks
// must fire.
func TestHedgeBackupWins(t *testing.T) {
	f := testSchema(t)
	h := &stubHedger{
		backup: fixedDevice{ans: engine.Answer{Buckets: 9, Hits: []mkhash.Record{rec("h", "1")}}},
		after:  5 * time.Millisecond,
	}
	e := resilient(t, f, engine.Resilience{
		Policies: []engine.Policy{&retryNPolicy{n: 1}},
		Hedger:   h,
	}, slowDevice{delay: 30 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := e.Retrieve(ctx, anyQuery(t, f))
	if err != nil {
		t.Fatalf("hedge did not rescue the slow primary: %v", err)
	}
	if res.DeviceBuckets[0] != 9 {
		t.Errorf("backup answer not used: %v", res.DeviceBuckets)
	}
	if h.hedged.Load() != 1 || h.won.Load() != 1 {
		t.Errorf("hedged=%d won=%d, want 1/1", h.hedged.Load(), h.won.Load())
	}
}

// A fast primary must win before the hedge timer fires.
func TestHedgePrimaryWins(t *testing.T) {
	f := testSchema(t)
	h := &stubHedger{
		backup: fixedDevice{ans: engine.Answer{Buckets: 9}},
		after:  10 * time.Second,
	}
	e := resilient(t, f, engine.Resilience{
		Policies: []engine.Policy{&retryNPolicy{n: 1}},
		Hedger:   h,
	}, fixedDevice{ans: engine.Answer{Buckets: 1}})
	res, err := e.Retrieve(context.Background(), anyQuery(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceBuckets[0] != 1 {
		t.Errorf("primary answer not used: %v", res.DeviceBuckets)
	}
	if h.hedged.Load() != 0 {
		t.Errorf("hedge launched for a fast primary")
	}
}
