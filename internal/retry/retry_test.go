package retry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"fxdist/internal/obs"
)

// fakeClock is a manually advanced time source for breaker cooldowns.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerFullCycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	var trans []string
	b := NewBreaker(3, time.Second, clk.now, func(from, to State) {
		trans = append(trans, fmt.Sprintf("%v->%v", from, to))
	})

	// Closed passes and absorbs sub-threshold failures.
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker vetoed attempt %d: %v", i, err)
		}
		b.Failure()
	}
	if b.State() != Closed || b.Consecutive() != 2 {
		t.Fatalf("state=%v consecutive=%d, want closed/2", b.State(), b.Consecutive())
	}

	// Third consecutive failure opens it.
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state=%v after threshold failures, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker allowed an attempt: %v", err)
	}

	// Cooldown elapses: exactly one half-open probe passes.
	clk.advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe vetoed: %v", err)
	}
	if b.State() != HalfOpen {
		t.Fatalf("state=%v, want half-open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("second concurrent half-open probe admitted")
	}

	// Probe failure re-opens immediately and restarts the cooldown.
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state=%v after failed probe, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("re-opened breaker admitted an attempt before the new cooldown")
	}

	// Next cooldown, successful probe closes it.
	clk.advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe vetoed: %v", err)
	}
	b.Success()
	if b.State() != Closed || b.Consecutive() != 0 {
		t.Fatalf("state=%v consecutive=%d after good probe, want closed/0", b.State(), b.Consecutive())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed breaker vetoed: %v", err)
	}

	want := []string{
		"closed->open", "open->half-open", "half-open->open",
		"open->half-open", "half-open->closed",
	}
	if fmt.Sprint(trans) != fmt.Sprint(want) {
		t.Errorf("transitions = %v, want %v", trans, want)
	}
}

func TestBackoffBoundsAndDeterminism(t *testing.T) {
	base, max := 2*time.Millisecond, 16*time.Millisecond
	a := newBackoff(base, max)
	b := newBackoff(base, max)
	for attempt := 1; attempt <= 10; attempt++ {
		cap := base << (attempt - 1)
		if cap > max || cap <= 0 {
			cap = max
		}
		da, db := a.delay(attempt), b.delay(attempt)
		if da != db {
			t.Fatalf("attempt %d: two schedules diverged (%v vs %v)", attempt, da, db)
		}
		if da < 0 || da > cap {
			t.Fatalf("attempt %d: delay %v outside [0, %v]", attempt, da, cap)
		}
	}
}

func TestBudgetPolicy(t *testing.T) {
	c := NewController(obs.NewRegistry(), "test-budget", Config{MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond})
	ctx := context.Background()
	failed := errors.New("scan failed")

	if _, ok := c.Backoff(ctx, 1, failed); !ok {
		t.Fatal("budget declined a retryable first failure")
	}
	if _, ok := c.Backoff(ctx, 3, failed); ok {
		t.Fatal("budget retried past MaxAttempts")
	}
	if _, ok := c.Backoff(ctx, 1, ErrOpen); ok {
		t.Fatal("budget retried a breaker veto")
	}
	if _, ok := c.Backoff(ctx, 1, context.Canceled); ok {
		t.Fatal("budget retried after cancellation")
	}
	if _, ok := (*Controller)(nil).Backoff(ctx, 1, failed); ok {
		t.Fatal("a nil controller retried")
	}

	// A server Cooldown hint raises the backoff floor.
	cd := &Cooldown{After: 50 * time.Millisecond, Err: failed}
	if delay, ok := c.Backoff(ctx, 1, cd); !ok || delay < cd.After {
		t.Fatalf("cooldown hint not honored: retry=%v delay=%v", ok, delay)
	}

	// A retry that cannot finish before the deadline is declined.
	dctx, cancel := context.WithDeadline(ctx, c.now().Add(time.Millisecond))
	defer cancel()
	if _, ok := c.Backoff(dctx, 1, cd); ok {
		t.Fatal("budget scheduled a retry past the caller's deadline")
	}
	if rep := c.Report(); rep.Retries != 2 {
		t.Errorf("retries = %d, want the 2 the budget granted", rep.Retries)
	}
}

func TestBreakerPolicyChargesOnlyPrimary(t *testing.T) {
	c := NewController(obs.NewRegistry(), "test-charge", Config{BreakerFailures: 1, BreakerCooldown: time.Hour})

	// Backup failures and breaker vetoes never charge the breaker.
	c.Failure(0, false, errors.New("backup failed"))
	c.Failure(0, true, ErrOpen)
	if err := c.Allow(0); err != nil {
		t.Fatalf("breaker charged by non-primary/veto failures: %v", err)
	}

	// One primary failure (threshold 1) opens it.
	c.Failure(0, true, errors.New("real"))
	if err := c.Allow(0); !errors.Is(err, ErrOpen) {
		t.Fatalf("breaker did not open: %v", err)
	}
	if rep := c.Report(); rep.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", rep.Rejected)
	}

	// Only primary successes reset.
	c.Success(0, false)
	if c.breaker(0).State() != Open {
		t.Fatal("backup success closed the breaker")
	}

	// A nil controller gates nothing and charges nothing.
	var none *Controller
	none.Failure(0, true, errors.New("real"))
	none.Success(0, true)
	if err := none.Allow(0); err != nil {
		t.Fatalf("nil controller vetoed: %v", err)
	}
}

func TestProbeDrivesRecovery(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	c := NewController(obs.NewRegistry(), "test-probe", Config{BreakerFailures: 1, BreakerCooldown: time.Second})
	c.SetClock(clk.now)

	c.breaker(0).Failure()
	if c.breaker(0).State() != Open {
		t.Fatal("breaker not open")
	}

	// Probe during cooldown is vetoed and must not run fn.
	ran := false
	c.Probe(0, func() error { ran = true; return nil })
	if ran {
		t.Fatal("probe ran while the breaker was cooling down")
	}

	// After the cooldown a failing probe re-opens, a good one closes.
	clk.advance(time.Second)
	c.Probe(0, func() error { return errors.New("still down") })
	if c.breaker(0).State() != Open {
		t.Fatal("failed probe left the breaker non-open")
	}
	clk.advance(time.Second)
	c.Probe(0, func() error { return nil })
	if c.breaker(0).State() != Closed {
		t.Fatal("successful probe did not close the breaker")
	}
}

func TestHedgerOutlierGate(t *testing.T) {
	c := NewController(obs.NewRegistry(), "test-hedge", Config{Hedge: true, HedgeMin: 2 * time.Millisecond})

	// Too few samples: never hedge.
	if _, ok := c.HedgeAfter(0); ok {
		t.Fatal("hedged with no samples")
	}

	// Healthy peers at ~1ms, device 0 at 10ms; the gate opens at the
	// eighth sample of each, not before.
	for i := 0; i < 8; i++ {
		if _, ok := c.HedgeAfter(0); ok {
			t.Fatalf("hedged after %d samples, below the gate of 8", i)
		}
		c.Observe(0, 10*time.Millisecond, nil)
		c.Observe(1, time.Millisecond, nil)
		c.Observe(2, time.Millisecond, nil)
	}
	after, ok := c.HedgeAfter(0)
	if !ok {
		t.Fatal("outlier device not hedged")
	}
	// Delay = peers' p99 (1ms) floored at HedgeMin (2ms).
	if after != 2*time.Millisecond {
		t.Errorf("hedge delay = %v, want HedgeMin floor 2ms", after)
	}

	// A healthy device among healthy peers never hedges.
	if _, ok := c.HedgeAfter(1); ok {
		t.Fatal("healthy device hedged")
	}

	// Failures carry no latency sample: a failing-only device stays
	// below the observation gate.
	for i := 0; i < 8; i++ {
		c.Observe(3, 50*time.Millisecond, errors.New("failed"))
	}
	if _, ok := c.HedgeAfter(3); ok {
		t.Fatal("failure observations armed a hedge")
	}

	c.Hedged()
	c.HedgeWon()
	if rep := c.Report(); rep.Hedges != 1 || rep.HedgeWins != 1 {
		t.Errorf("hedges=%d wins=%d, want 1/1", rep.Hedges, rep.HedgeWins)
	}
}

func TestControllerReport(t *testing.T) {
	c := NewController(obs.NewRegistry(), "test-report-2", Config{BreakerFailures: 1, BreakerCooldown: time.Hour})
	c.breaker(1).Failure()
	c.Degraded(0.75)
	rep := c.Report()
	if rep.Backend != "test-report-2" || rep.Partials != 1 || rep.LastCoverage != 0.75 {
		t.Errorf("report = %+v", rep)
	}
	if len(rep.Breakers) != 1 || rep.Breakers[0].Device != 1 || rep.Breakers[0].State != "open" {
		t.Errorf("breaker report = %+v", rep.Breakers)
	}
	if rep.Transitions["open"] != 1 {
		t.Errorf("transitions = %v", rep.Transitions)
	}
}
