package retry

import (
	"sort"
	"time"
)

// sampleRing is the per-device latency window the hedge plan computes
// p99s over.
const sampleRing = 64

// recomputeEvery bounds how often a device's cached p99 is re-sorted.
const recomputeEvery = 16

// hedgeObservations is the per-device latency samples required before
// hedging can arm, for the device and for each peer it is compared with.
const hedgeObservations = 8

// hedgeSamples is one device's latency window. Hedging is outlier
// detection over these windows: a device is hedged only when its own p99
// breaches twice the worst peer's p99, and the hedge fires after that
// peer p99 (floored at HedgeMin) — so on a healthy cluster no hedge ever
// arms, and a genuinely slow device is raced against its backup almost
// immediately.
type hedgeSamples struct {
	ring  [sampleRing]time.Duration
	pos   int
	n     int
	since int // observations since the cached p99 was computed
	p99   time.Duration
}

// p99Of returns the 99th percentile of the ring's live window.
func (s *hedgeSamples) p99Of() time.Duration {
	if s.n == 0 {
		return 0
	}
	buf := make([]time.Duration, s.n)
	copy(buf, s.ring[:s.n])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := (len(buf)*99 + 99) / 100
	idx = min(idx, len(buf))
	return buf[idx-1]
}

// Observe records one completed primary scan of dev; failures carry no
// latency signal and are skipped.
func (c *Controller) Observe(dev int, elapsed time.Duration, err error) {
	if err != nil {
		return
	}
	c.mu.Lock()
	s := c.samples[dev]
	if s == nil {
		s = &hedgeSamples{}
		c.samples[dev] = s
	}
	s.ring[s.pos] = elapsed
	s.pos = (s.pos + 1) % sampleRing
	if s.n < sampleRing {
		s.n++
	}
	s.since++
	if s.since >= recomputeEvery || s.n <= recomputeEvery {
		s.p99 = s.p99Of()
		s.since = 0
	}
	c.mu.Unlock()
}

// HedgeAfter decides whether dev's next primary scan should be hedged:
// only once dev has enough samples, at least one peer has samples, and
// dev's p99 breaches twice the worst peer's p99. The returned delay is
// that peer p99 floored at HedgeMin — the backup starts as soon as every
// healthy device would have answered.
func (c *Controller) HedgeAfter(dev int) (time.Duration, bool) {
	c.mu.Lock()
	s := c.samples[dev]
	if s == nil || s.n < hedgeObservations {
		c.mu.Unlock()
		return 0, false
	}
	own := s.p99
	var peers time.Duration
	seen := false
	for d, ps := range c.samples {
		if d == dev || ps.n < hedgeObservations {
			continue
		}
		seen = true
		peers = max(peers, ps.p99)
	}
	c.mu.Unlock()
	if !seen || own <= 2*peers {
		return 0, false
	}
	return max(peers, c.cfg.HedgeMin), true
}

// Hedged records that a backup request was actually launched.
func (c *Controller) Hedged() { c.hedges.Inc() }

// HedgeWon records a backup that beat its primary.
func (c *Controller) HedgeWon() { c.hedgeWins.Inc() }
