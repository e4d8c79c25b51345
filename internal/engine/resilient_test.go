package engine_test

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fxdist/internal/engine"
	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
	"fxdist/internal/pagestore"
	"fxdist/internal/query"
	"fxdist/internal/retry"
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

// resilient builds an executor over devs whose failure handling is the
// Retry, Reroute and Backup of cfg.
func resilient(t *testing.T, f *mkhash.File, cfg engine.Config, devs ...engine.Device) *engine.Executor {
	t.Helper()
	cfg.Devices, cfg.Model = devs, engine.MainMemory
	e, err := engine.New(planned(t, f, cfg))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// controller is a retry controller registered under the test's name,
// its backoff too short to slow the test unless cfg sets one.
func controller(t *testing.T, cfg retry.Config) *retry.Controller {
	t.Helper()
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase, cfg.BackoffMax = time.Microsecond, time.Microsecond
	}
	return retry.NewController(t.Name(), cfg)
}

// No controller and no Reroute must behave exactly like the bare
// executor: the failure stands, no retry loop engages.
func TestResilienceNilPoliciesFallsThrough(t *testing.T) {
	f := testSchema(t)
	d := resilient(t, f, engine.Config{}, fixedDevice{err: errors.New("dead")})
	if _, err := d.Retrieve(context.Background(), anyQuery(t, f)); err == nil {
		t.Fatal("empty resilience rescued a dead device")
	}
}

// The retry budget re-asks the same failed device and stops at
// MaxAttempts.
func TestPolicyRetriesSameDevice(t *testing.T) {
	f := testSchema(t)
	dev := &flakyDevice{failures: 2, ans: engine.Answer{Buckets: 1, Hits: []mkhash.Record{rec("a", "1")}}}
	rc := controller(t, retry.Config{MaxAttempts: 5})
	e := resilient(t, f, engine.Config{Retry: rc}, dev)
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
	if got := rc.Report().Retries; got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}

	// A device that never recovers: the budget must bound it.
	dead := &flakyDevice{failures: 1 << 30}
	e2 := resilient(t, f, engine.Config{Retry: controller(t, retry.Config{MaxAttempts: 4})}, dead)
	if _, err := e2.Retrieve(context.Background(), anyQuery(t, f)); err == nil {
		t.Fatal("dead device rescued")
	}
	if got := dead.calls.Load(); got != 4 {
		t.Errorf("dead device scanned %d times, want MaxAttempts=4", got)
	}
}

// A rerouted slot's later attempts are non-primary: the replacement's
// failure goes to the budget, which re-asks the replacement, and neither
// its failure nor its success touches the primary's breaker.
func TestPolicyReplacementDevice(t *testing.T) {
	f := testSchema(t)
	alt := &flakyDevice{failures: 1, ans: engine.Answer{Buckets: 2, Hits: []mkhash.Record{rec("b", "2")}}}
	rc := controller(t, retry.Config{MaxAttempts: 3, BreakerFailures: 2, BreakerCooldown: time.Hour})
	e := resilient(t, f, engine.Config{
		Retry:   rc,
		Reroute: func(context.Context, int, error) engine.Device { return alt },
	}, fixedDevice{err: errors.New("dead")})
	res, err := e.Retrieve(context.Background(), anyQuery(t, f))
	if err != nil {
		t.Fatalf("replacement did not rescue: %v", err)
	}
	if res.DeviceBuckets[0] != 2 || len(res.Records) != 1 || alt.calls.Load() != 2 {
		t.Errorf("replacement answer not used: %+v after %d calls", res, alt.calls.Load())
	}
	rep := rc.Report()
	if len(rep.Breakers) != 1 || rep.Breakers[0].Consecutive != 1 || rep.Breakers[0].State != "closed" {
		t.Errorf("breaker = %+v, want only the primary's failure charged", rep.Breakers)
	}
	if rep.Retries != 1 {
		t.Errorf("retries = %d, want the replacement's 1", rep.Retries)
	}
}

// A failed primary goes to the Reroute device at once: the budget, whose
// Cooldown here would sleep an hour, is not consulted for it.
func TestRerouteComesBeforeBackoff(t *testing.T) {
	f := testSchema(t)
	rc := controller(t, retry.Config{MaxAttempts: 3})
	e := resilient(t, f, engine.Config{
		Retry: rc,
		Reroute: func(context.Context, int, error) engine.Device {
			return fixedDevice{ans: engine.Answer{Buckets: 4}}
		},
	}, fixedDevice{err: &retry.Cooldown{After: time.Hour, Err: errors.New("shedding")}})
	t0 := time.Now()
	res, err := e.Retrieve(context.Background(), anyQuery(t, f))
	if err != nil || res.DeviceBuckets[0] != 4 {
		t.Fatalf("reroute did not answer: %v %+v", err, res)
	}
	if d := time.Since(t0); d > time.Second {
		t.Errorf("rerouted after %v, want no backoff", d)
	}
	if got := rc.Report().Retries; got != 0 {
		t.Errorf("budget granted %d retries before the reroute", got)
	}
}

// Cancelling during a backoff sleep must return promptly with the
// context's error and leave no goroutines behind.
func TestPolicyRetryCancelNoLeak(t *testing.T) {
	f := testSchema(t)
	e := resilient(t, f, engine.Config{Retry: controller(t, retry.Config{MaxAttempts: 1 << 30})},
		fixedDevice{err: &retry.Cooldown{After: 30 * time.Second, Err: errors.New("dead")}})
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
	rc := controller(t, retry.Config{Partial: true})
	e := resilient(t, f, engine.Config{Retry: rc},
		fixedDevice{ans: engine.Answer{Buckets: 1, Hits: []mkhash.Record{rec("a", "1")}}},
		fixedDevice{err: errors.New("dead")},
		fixedDevice{ans: engine.Answer{Buckets: 2, Hits: []mkhash.Record{rec("b", "2")}}},
		fixedDevice{},
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
	if rep := rc.Report(); rep.Partials != 1 || rep.LastCoverage != pe.Coverage {
		t.Errorf("controller saw %d partials at coverage %v", rep.Partials, rep.LastCoverage)
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
	e := resilient(t, f, engine.Config{Retry: controller(t, retry.Config{Partial: true})},
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

// hedging builds a hedging executor over a slow-looking device 0 and a
// fast device 1: the controller has seen 8 one-second scans of device 0
// and 8 one-microsecond scans of device 1, so device 0's next primary is
// raced against backup after hedgeMin.
func hedging(t *testing.T, f *mkhash.File, hedgeMin time.Duration, primary, backup engine.Device) (*engine.Executor, *retry.Controller) {
	t.Helper()
	rc := controller(t, retry.Config{MaxAttempts: 1, Hedge: true, HedgeMin: hedgeMin})
	for i := 0; i < 8; i++ {
		rc.Observe(0, time.Second, nil)
		rc.Observe(1, time.Microsecond, nil)
	}
	e := resilient(t, f, engine.Config{
		Retry:  rc,
		Backup: func(int) engine.Device { return backup },
	}, primary, fixedDevice{ans: engine.Answer{Buckets: 1}})
	return e, rc
}

// A slow primary must lose to its hedged backup, and the controller must
// count the hedge and the win.
func TestHedgeBackupWins(t *testing.T) {
	f := testSchema(t)
	e, rc := hedging(t, f, 5*time.Millisecond, slowDevice{delay: 30 * time.Second},
		fixedDevice{ans: engine.Answer{Buckets: 9, Hits: []mkhash.Record{rec("h", "1")}}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := e.Retrieve(ctx, anyQuery(t, f))
	if err != nil {
		t.Fatalf("hedge did not rescue the slow primary: %v", err)
	}
	if res.DeviceBuckets[0] != 9 {
		t.Errorf("backup answer not used: %v", res.DeviceBuckets)
	}
	if rep := rc.Report(); rep.Hedges != 1 || rep.HedgeWins != 1 {
		t.Errorf("hedged=%d won=%d, want 1/1", rep.Hedges, rep.HedgeWins)
	}
}

// logDevice answers with the hits of one pagestore bucket, collected
// still encoded into Answer.Found. Its sleep passes before the scan
// whatever ctx says: a primary already past its last context check,
// which finishes its scan after its hedge has won.
type logDevice struct {
	s     *pagestore.Store
	sleep time.Duration
}

func (d logDevice) Scan(ctx context.Context, q query.Query, pm mkhash.PartialMatch) (engine.Answer, error) {
	time.Sleep(d.sleep)
	ans := engine.Answer{Buckets: 1}
	if _, err := d.s.AppendMatching(1, pm, &ans.Found); err != nil {
		ans.Found.Release()
		return engine.Answer{}, err
	}
	return ans, nil
}

// A hedge's loser is discarded, not dropped: the slow primary answers
// after its backup won, and the slab it collected into goes back to
// mempool.Frames with the winner's — every retrieval gives back every
// slab it took.
func TestHedgeLoserGivesItsSlabBack(t *testing.T) {
	f := testSchema(t)
	s, err := pagestore.Open(filepath.Join(t.TempDir(), "device.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendRun(1, []mkhash.Record{rec("h", "1"), rec("h", "2")}); err != nil {
		t.Fatal(err)
	}
	const n = 5
	e, rc := hedging(t, f, 2*time.Millisecond, logDevice{s: s, sleep: 20 * time.Millisecond}, logDevice{s: s})
	before := mempool.Frames.Stats()
	for i := 0; i < n; i++ {
		if res, err := e.Retrieve(context.Background(), anyQuery(t, f)); err != nil || len(res.Records) != 2 {
			t.Fatalf("hedged retrieval: %d records, %v", len(res.Records), err)
		}
	}
	after := mempool.Frames.Stats()
	gets := after.Gets + after.Misses + after.Oversize - before.Gets - before.Misses - before.Oversize
	puts := after.Puts + after.Drops - before.Puts - before.Drops
	if rep := rc.Report(); rep.Hedges != n {
		t.Fatalf("%d hedges in %d retrievals", rep.Hedges, n)
	}
	// Per retrieval, each arm's run read and the slab it collected into.
	if gets < 4*n || puts != gets {
		t.Errorf("%d hedged retrievals took %d Frames slabs and gave %d back", n, gets, puts)
	}
}

// A fast primary must win before the hedge timer fires.
func TestHedgePrimaryWins(t *testing.T) {
	f := testSchema(t)
	e, rc := hedging(t, f, 10*time.Second, fixedDevice{ans: engine.Answer{Buckets: 1}},
		fixedDevice{ans: engine.Answer{Buckets: 9}})
	res, err := e.Retrieve(context.Background(), anyQuery(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceBuckets[0] != 1 {
		t.Errorf("primary answer not used: %v", res.DeviceBuckets)
	}
	if rep := rc.Report(); rep.Hedges != 0 {
		t.Errorf("hedge launched for a fast primary")
	}
}
