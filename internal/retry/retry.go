// Package retry is the adaptive retry layer the engine executor calls
// on every device attempt: exponential backoff with full jitter,
// per-device circuit breakers with half-open probing, deadline-aware
// retry budgets, and hedged requests against a backup device once a
// device's p99 breaches its peers'. It decides over device indices,
// attempt numbers, errors and durations and imports nothing of the
// engine, which owns the scan loop. One Controller exists per backend; it
// owns the breakers and the fxdist_resilience_* metrics and renders on
// /debug/resilience (via internal/resilience).
//
// The FX distribution makes every device load-bearing for every query —
// the paper's evenness guarantee means a single slow or dead device
// gates the whole retrieval — so this layer is what keeps tail latency
// and availability intact when devices misbehave.
package retry

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Config tunes one backend's resilience behaviour. The zero value gets
// sensible defaults from Normalize; tests inject small thresholds.
type Config struct {
	// MaxAttempts bounds attempts per device slot per retrieval,
	// replacements included (default 3; 1 disables retries).
	MaxAttempts int
	// BackoffBase is the cap of the first backoff interval; attempt n
	// sleeps a full-jitter duration in [0, min(BackoffMax,
	// BackoffBase<<(n-1))] (default 2ms).
	BackoffBase time.Duration
	// BackoffMax caps the backoff interval (default 250ms).
	BackoffMax time.Duration
	// BreakerFailures is the consecutive primary-failure count that
	// opens a device's circuit breaker; <= 0 disables breakers.
	BreakerFailures int
	// BreakerCooldown is how long an open breaker rejects attempts
	// before letting one half-open probe through (default 2s).
	BreakerCooldown time.Duration
	// Hedge enables hedged requests (needs a backup device source).
	Hedge bool
	// HedgeMin floors the hedge delay so healthy jitter never triggers
	// an immediate double-send (default 1ms).
	HedgeMin time.Duration
	// Partial enables graceful degradation: partial results with an
	// error manifest instead of all-or-nothing failures.
	Partial bool
}

// Normalize fills zero fields with the defaults.
func (c Config) Normalize() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 2 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 250 * time.Millisecond
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = time.Millisecond
	}
	return c
}

// Cooldown is an error carrying a server's load-shedding hint: the
// sender is overloaded and asks not to be re-contacted for After (the
// wire protocol's Retry-After). The retry budget honors After as the
// minimum backoff before the next attempt. Match with errors.As.
type Cooldown struct {
	After time.Duration
	Err   error
}

func (e *Cooldown) Error() string {
	return fmt.Sprintf("%v (retry after %v)", e.Err, e.After)
}

func (e *Cooldown) Unwrap() error { return e.Err }

// ErrOpen marks an attempt vetoed by an open circuit breaker; match
// with errors.Is. The retry budget never retries it (the breaker would
// veto again), but the engine's reroute still offers the device's backup.
var ErrOpen = errors.New("retry: circuit breaker open")

// backoff computes the full-jitter exponential backoff for attempt n
// (1-based): uniform in [0, min(max, base<<(n-1))]. Seeded with the
// constant 1 and guarded by its own mutex, so schedules are
// reproducible.
type backoff struct {
	base, max time.Duration
	mu        sync.Mutex
	rng       *rand.Rand
}

func newBackoff(base, max time.Duration) *backoff {
	return &backoff{base: base, max: max, rng: rand.New(rand.NewSource(1))}
}

func (b *backoff) delay(attempt int) time.Duration {
	cap := b.base
	for i := 1; i < attempt && cap < b.max; i++ {
		cap *= 2
	}
	if cap > b.max {
		cap = b.max
	}
	b.mu.Lock()
	d := time.Duration(b.rng.Int63n(int64(cap) + 1))
	b.mu.Unlock()
	return d
}
