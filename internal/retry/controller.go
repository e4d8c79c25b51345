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

	reg      *obs.Registry
	mu       sync.Mutex
	breakers map[int]*Breaker
	samples  map[int]*hedgeSamples
	// lastCoverage is the report's and the coverage gauge's; the counts
	// are the registry's own instruments, which the report reads.
	lastCoverage float64

	retries, rejected *obs.Counter
	hedges, hedgeWins *obs.Counter
	partials          *obs.Counter
	transitions       [Open + 1]*obs.Counter // by destination state
}

// NewController builds a cluster's controller, reporting under its
// backend label in r, its cluster's registry. The config is normalized.
func NewController(r *obs.Registry, backend string, cfg Config) *Controller {
	cfg = cfg.Normalize()
	bl := obs.L("backend", backend)
	c := &Controller{
		backend:  backend,
		cfg:      cfg,
		now:      time.Now,
		bo:       newBackoff(cfg.BackoffBase, cfg.BackoffMax),
		reg:      r,
		breakers: make(map[int]*Breaker),
		samples:  make(map[int]*hedgeSamples),
		retries: r.Counter("fxdist_resilience_retries_total",
			"Device attempts re-run by the retry budget after a failure.", bl),
		rejected: r.Counter("fxdist_resilience_rejected_total",
			"Device attempts vetoed by an open circuit breaker.", bl),
		hedges: r.Counter("fxdist_resilience_hedges_total",
			"Backup requests launched against slow primary devices.", bl),
		hedgeWins: r.Counter("fxdist_resilience_hedge_wins_total",
			"Hedged backup requests that beat their primary.", bl),
		partials: r.Counter("fxdist_resilience_partial_results_total",
			"Retrievals served degraded: some devices failed, the rest answered.", bl),
	}
	for to := range c.transitions {
		c.transitions[to] = r.Counter("fxdist_resilience_breaker_transitions_total",
			"Circuit breaker state transitions, by destination state.", bl, obs.L("to", State(to).String()))
	}
	r.GaugeFunc("fxdist_resilience_coverage_fraction",
		"Fraction of |R(q)| covered by the most recent degraded retrieval.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.lastCoverage
		}, bl)
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
		b = NewBreaker(c.cfg.BreakerFailures, c.cfg.BreakerCooldown, c.now, func(_, to State) {
			c.transitions[to].Inc()
		})
		c.breakers[dev] = b
		c.reg.GaugeFunc("fxdist_resilience_breaker_state",
			"Circuit breaker state per device: 0 closed, 1 half-open, 2 open.",
			func() float64 { return float64(b.State()) },
			obs.L("backend", c.backend), obs.L("device", strconv.Itoa(dev)))
	}
	return b
}

// Lock order: the controller never calls into a breaker while holding
// its own mutex — Report snapshots the breaker list under the lock and
// reads states after releasing it — and the transition callback, run
// under the breaker's, only counts.

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
		c.rejected.Inc()
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
	c.retries.Inc()
	return delay, true
}

// Degraded records one retrieval served as a partial result covering
// the given fraction of |R(q)|.
func (c *Controller) Degraded(coverage float64) {
	c.partials.Inc()
	c.mu.Lock()
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
		Retries:      c.retries.Value(),
		Rejected:     c.rejected.Value(),
		Hedges:       c.hedges.Value(),
		HedgeWins:    c.hedgeWins.Value(),
		Partials:     c.partials.Value(),
		LastCoverage: c.lastCoverage,
	}
	for to, n := range c.transitions {
		if v := n.Value(); v > 0 {
			if rep.Transitions == nil {
				rep.Transitions = make(map[string]uint64, len(c.transitions))
			}
			rep.Transitions[State(to).String()] = v
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
	// the controller lock (see the lock order above).
	for i, b := range breakers {
		rep.Breakers = append(rep.Breakers, BreakerReport{
			Device:      devs[i],
			State:       b.State().String(),
			Consecutive: b.Consecutive(),
		})
	}
	return rep
}
