package retry

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"sync"
	"time"

	"fxdist/internal/obs"
)

// Controller is one cluster's resilience brain: it owns the per-device
// circuit breakers, the seeded backoff, the hedge latency windows and
// the fxdist_resilience_* instruments. The engine executor calls it on
// every device attempt, in one order: Allow gates the first attempt,
// Failure charges the breaker, the engine's reroute takes a failed
// primary at once, and only then Backoff decides a same-device retry.
// Each cluster builds its own; nothing else holds it.
type Controller struct {
	backend string
	cfg     Config
	now     func() time.Time
	bo      *backoff

	mu       sync.Mutex
	breakers map[int]*Breaker
	samples  map[int]*hedgeSamples
	// accumulated report state (counters are mirrored into obs)
	retries, rejected uint64
	hedges, hedgeWins uint64
	partials          uint64
	lastCoverage      float64
	transitions       map[string]uint64

	mRetries   *obs.Counter
	mRejected  *obs.Counter
	mHedges    *obs.Counter
	mHedgeWins *obs.Counter
	mPartials  *obs.Counter
	mCoverage  *obs.Gauge
	mTransTo   map[State]*obs.Counter
}

// NewController builds a cluster's controller, reporting under its
// backend label. The config is normalized; the obs instruments are
// idempotent by name+label, so every controller of a backend kind
// counts into the same series.
func NewController(backend string, cfg Config) *Controller {
	cfg = cfg.Normalize()
	r := obs.Default()
	bl := obs.L("backend", backend)
	c := &Controller{
		backend:     backend,
		cfg:         cfg,
		now:         time.Now,
		bo:          newBackoff(cfg.BackoffBase, cfg.BackoffMax),
		breakers:    make(map[int]*Breaker),
		samples:     make(map[int]*hedgeSamples),
		transitions: make(map[string]uint64),
		mRetries: r.Counter("fxdist_resilience_retries_total",
			"Device attempts re-run by the retry budget after a failure.", bl),
		mRejected: r.Counter("fxdist_resilience_rejected_total",
			"Device attempts vetoed by an open circuit breaker.", bl),
		mHedges: r.Counter("fxdist_resilience_hedges_total",
			"Backup requests launched against slow primary devices.", bl),
		mHedgeWins: r.Counter("fxdist_resilience_hedge_wins_total",
			"Hedged backup requests that beat their primary.", bl),
		mPartials: r.Counter("fxdist_resilience_partial_results_total",
			"Retrievals served degraded: some devices failed, the rest answered.", bl),
		mCoverage: r.Gauge("fxdist_resilience_coverage_fraction",
			"Fraction of |R(q)| covered by the most recent degraded retrieval.", bl),
		mTransTo: map[State]*obs.Counter{
			Closed: r.Counter("fxdist_resilience_breaker_transitions_total",
				"Circuit breaker state transitions, by destination state.", bl, obs.L("to", "closed")),
			HalfOpen: r.Counter("fxdist_resilience_breaker_transitions_total",
				"Circuit breaker state transitions, by destination state.", bl, obs.L("to", "half-open")),
			Open: r.Counter("fxdist_resilience_breaker_transitions_total",
				"Circuit breaker state transitions, by destination state.", bl, obs.L("to", "open")),
		},
	}
	return c
}

// SetClock injects the time source for the breakers' cooldown checks
// (tests); it must be called before any breaker exists.
func (c *Controller) SetClock(now func() time.Time) { c.now = now }

// Config returns the normalized configuration.
func (c *Controller) Config() Config { return c.cfg }

// breaker returns dev's circuit breaker, creating it on first use;
// nil when breakers are disabled or c is nil (no controller: the
// engine's calls through here are no-ops).
func (c *Controller) breaker(dev int) *Breaker {
	if c == nil || c.cfg.BreakerFailures <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[dev]
	if b == nil {
		g := obs.Default().Gauge("fxdist_resilience_breaker_state",
			"Circuit breaker state per device: 0 closed, 1 half-open, 2 open.",
			obs.L("backend", c.backend), obs.L("device", strconv.Itoa(dev)))
		b = NewBreaker(c.cfg.BreakerFailures, c.cfg.BreakerCooldown, c.now, func(from, to State) {
			g.Set(float64(int(to)))
			c.mTransTo[to].Inc()
			c.mu.Lock()
			c.transitions[to.String()]++
			c.mu.Unlock()
		})
		c.breakers[dev] = b
	}
	return b
}

// Lock order: breaker mutex → controller mutex (the transition
// callback). The controller never calls into a breaker while holding
// its own mutex — Report snapshots the breaker list under the lock and
// reads states after releasing it.

// Probe runs fn as a health probe for dev's breaker: vetoed while the
// breaker is cooling down, otherwise the outcome feeds the breaker like
// a primary attempt (a successful probe closes a half-open breaker —
// the coordinator's health prober drives recovery through here). With
// no breaker (or no controller) fn just runs.
func (c *Controller) Probe(dev int, fn func() error) {
	b := c.breaker(dev)
	if b == nil {
		fn() //nolint:errcheck // nothing to record the outcome against
		return
	}
	if b.Allow() != nil {
		return
	}
	if err := fn(); err != nil {
		b.Failure()
	} else {
		b.Success()
	}
}

// count bumps one report counter and its obs mirror.
func (c *Controller) count(n *uint64, m *obs.Counter) {
	m.Inc()
	c.mu.Lock()
	*n++
	c.mu.Unlock()
}

// Allow gates the first attempt on dev's slot: nil when its breaker
// passes (or there is none), ErrOpen — counted as a rejection — while
// it cools down. Nil-safe.
func (c *Controller) Allow(dev int) error {
	b := c.breaker(dev)
	if b == nil {
		return nil
	}
	err := b.Allow()
	if err != nil {
		c.count(&c.rejected, c.mRejected)
	}
	return err
}

// Failure records a failed attempt on dev's slot. Only a primary
// failure charges the breaker, and a breaker veto never does.
// Nil-safe.
func (c *Controller) Failure(dev int, primary bool, err error) {
	if !primary || errors.Is(err, ErrOpen) {
		return
	}
	if b := c.breaker(dev); b != nil {
		b.Failure()
	}
}

// Success records a successful attempt on dev's slot; only a primary's
// closes the breaker. Nil-safe.
func (c *Controller) Success(dev int, primary bool) {
	if !primary {
		return
	}
	if b := c.breaker(dev); b != nil {
		b.Success()
	}
}

// Backoff is the deadline-aware retry budget's answer to the slot's
// n-th failed attempt (1-based): a full-jitter exponential delay,
// raised to a server's Cooldown hint, before the same device is asked
// again. ok is false at MaxAttempts, for a breaker veto, a cancelled
// or expired context, when the delay would outlive ctx's deadline, and
// on a nil controller.
func (c *Controller) Backoff(ctx context.Context, n int, err error) (delay time.Duration, ok bool) {
	if c == nil || n >= c.cfg.MaxAttempts ||
		errors.Is(err, ErrOpen) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 0, false
	}
	delay = c.bo.delay(n)
	var cd *Cooldown
	if errors.As(err, &cd) && cd.After > delay {
		delay = cd.After
	}
	if dl, ok := ctx.Deadline(); ok && c.now().Add(delay).After(dl) {
		return 0, false
	}
	c.count(&c.retries, c.mRetries)
	return delay, true
}

// Degraded records one retrieval served as a partial result covering
// the given fraction of |R(q)|.
func (c *Controller) Degraded(coverage float64) {
	c.mPartials.Inc()
	c.mCoverage.Set(coverage)
	c.mu.Lock()
	c.partials++
	c.lastCoverage = coverage
	c.mu.Unlock()
}

// BreakerReport is one device's breaker state in a Report.
type BreakerReport struct {
	Device      int    `json:"device"`
	State       string `json:"state"`
	Consecutive int    `json:"consecutive_failures"`
}

// Report is one backend's resilience snapshot — the /debug/resilience
// payload alongside the fault injector reports.
type Report struct {
	Backend      string            `json:"backend"`
	MaxAttempts  int               `json:"max_attempts"`
	Retries      uint64            `json:"retries"`
	Rejected     uint64            `json:"rejected"`
	Hedges       uint64            `json:"hedges"`
	HedgeWins    uint64            `json:"hedge_wins"`
	Partials     uint64            `json:"partial_results"`
	LastCoverage float64           `json:"last_coverage,omitempty"`
	Transitions  map[string]uint64 `json:"breaker_transitions,omitempty"`
	Breakers     []BreakerReport   `json:"breakers,omitempty"`
}

// Report snapshots the controller.
func (c *Controller) Report() Report {
	c.mu.Lock()
	rep := Report{
		Backend:      c.backend,
		MaxAttempts:  c.cfg.MaxAttempts,
		Retries:      c.retries,
		Rejected:     c.rejected,
		Hedges:       c.hedges,
		HedgeWins:    c.hedgeWins,
		Partials:     c.partials,
		LastCoverage: c.lastCoverage,
	}
	if len(c.transitions) > 0 {
		rep.Transitions = make(map[string]uint64, len(c.transitions))
		for k, v := range c.transitions {
			rep.Transitions[k] = v
		}
	}
	devs := make([]int, 0, len(c.breakers))
	for dev := range c.breakers {
		devs = append(devs, dev)
	}
	breakers := make([]*Breaker, len(devs))
	sort.Ints(devs)
	for i, dev := range devs {
		breakers[i] = c.breakers[dev]
	}
	c.mu.Unlock()
	// Breaker state reads take each breaker's own lock; done outside
	// the controller lock to keep the order breaker→controller only.
	for i, b := range breakers {
		rep.Breakers = append(rep.Breakers, BreakerReport{
			Device:      devs[i],
			State:       b.State().String(),
			Consecutive: b.Consecutive(),
		})
	}
	return rep
}
