package fxdist

import (
	"errors"
	"time"

	"fxdist/internal/engine"
	"fxdist/internal/resilience"
	"fxdist/internal/retry"
)

// FaultSchedule is one device's deterministic fault plan for a
// FaultInjector: injected errors, latency, hangs, flapping and
// partitions. See internal/resilience.Schedule for the decision order.
type FaultSchedule = resilience.Schedule

// FaultInjector applies per-device FaultSchedules at a backend's device
// seam. Build one with NewFaultInjector and install it with
// WithFaultInjector; Set/Clear mutate its schedules at runtime.
type FaultInjector = resilience.Injector

// NewFaultInjector builds a named, seeded fault injector; the name
// labels its row on the /debug/resilience of the cluster it is passed to
// (WithFaultInjector).
func NewFaultInjector(name string, seed int64, schedules map[int]FaultSchedule) *FaultInjector {
	return resilience.NewInjector(name, seed, schedules)
}

// ErrFaultInjected marks failures manufactured by a fault injector;
// match with errors.Is.
var ErrFaultInjected = resilience.ErrInjected

// ErrBreakerOpen marks a device attempt vetoed by its open circuit
// breaker; match with errors.Is.
var ErrBreakerOpen = retry.ErrOpen

// PartialResult is the graceful-degradation error returned (alongside a
// populated RetrieveResult) when WithPartialResults is set and some —
// but not all — devices failed: Res holds the surviving devices' merged
// answer, Failed the per-device error manifest, and Coverage the
// fraction of the query's |R(q)| buckets the survivors covered.
type PartialResult = engine.PartialError

// AsPartial unwraps a retrieval error into its PartialResult, reporting
// whether the retrieval was served degraded rather than failing
// outright.
func AsPartial(err error) (*PartialResult, bool) {
	var pe *engine.PartialError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// BackendResilience is one backend's resilience snapshot: retry, hedge
// and breaker counters plus per-device breaker states.
type BackendResilience = retry.Report

// InjectorReport is one fault injector's snapshot: per-device schedules
// and injection counters.
type InjectorReport = resilience.Report

// ResilienceReport is the programmatic /debug/resilience of one
// cluster: its retry controller and its fault injector, each listed when
// the cluster has one.
type ResilienceReport = resilience.Snapshot

// Resilience snapshots this cluster's resilience state.
func (c *Cluster) Resilience() ResilienceReport { return c.backend().Resilience() }

// WithRetryBudget enables adaptive retries on the cluster: up to
// maxAttempts attempts per device slot with full-jitter exponential
// backoff in [0, min(max, base<<n)], deadline-aware (a retry that would
// outlive the caller's context deadline is declined). Zero arguments
// keep the defaults (3 attempts, 2ms base, 250ms cap). Library API,
// exercised by TestChaosDistributedRetrieval.
func WithRetryBudget(maxAttempts int, base, max time.Duration) Option {
	return func(s *openSettings) {
		s.resilSet = true
		s.retryCfg.MaxAttempts = maxAttempts
		s.retryCfg.BackoffBase = base
		s.retryCfg.BackoffMax = max
	}
}

// WithCircuitBreaker adds per-device circuit breakers: failures
// consecutive primary failures open a device's breaker, which rejects
// attempts for cooldown and then admits a single half-open probe whose
// outcome closes or re-opens it. Breaker transitions surface in
// fxdist_resilience_breaker_* metrics and /debug/resilience. Library
// API, exercised by TestChaosDistributedRetrieval.
func WithCircuitBreaker(failures int, cooldown time.Duration) Option {
	return func(s *openSettings) {
		s.resilSet = true
		s.retryCfg.BreakerFailures = failures
		s.retryCfg.BreakerCooldown = cooldown
	}
}

// WithHedging enables hedged requests: when a device's observed p99
// latency breaches twice its peers', retrievals race a backup request
// (the ring successor's backup partition on the distributed backend, a
// second same-device scan locally) after a delay of the peers' p99,
// floored at min. The distributed backend hedges only over a replicated
// fleet: a plain deployment's successor holds no backup to race.
// Library API, exercised by TestChaosDistributedRetrieval.
func WithHedging(min time.Duration) Option {
	return func(s *openSettings) {
		s.resilSet = true
		s.retryCfg.Hedge = true
		s.retryCfg.HedgeMin = min
	}
}

// WithPartialResults enables graceful degradation: a retrieval on which
// some (not all) devices exhausted their retries returns the surviving
// devices' merged records plus a PartialResult error carrying the
// failure manifest and coverage fraction, instead of failing outright.
// Library API, exercised by TestChaosMemoryPartialResults.
func WithPartialResults() Option {
	return func(s *openSettings) {
		s.resilSet = true
		s.retryCfg.Partial = true
	}
}

// WithFaultInjector fronts every device with a fault injector (see
// NewFaultInjector) — chaos testing through the public facade; tests can
// mutate its schedules at runtime via Set/Clear. Library API, exercised
// by TestChaosDistributedRetrieval.
func WithFaultInjector(in *FaultInjector) Option {
	return func(s *openSettings) { s.injector = in }
}
