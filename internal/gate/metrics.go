package gate

import (
	"sync/atomic"

	"fxdist/internal/obs"
)

// gateMetrics are the gate's instruments, in the gate's own registry
// (its /metrics renders them after its cluster's). Each count is kept
// here once: the gate's and the tenants' reports read these series.
type gateMetrics struct {
	reg     *obs.Registry
	batches *obs.Counter
	latency *obs.Histogram
	// coalesced counts queries that shared a dispatch with shape-mates,
	// unauthorized the requests no tenant's key admitted.
	coalesced, unauthorized counter
}

// newGateMetrics builds the gate's registry; inFlight is read when
// /metrics is scraped.
func newGateMetrics(inFlight func() float64) *gateMetrics {
	r := obs.NewRegistry()
	r.GaugeFunc("fxgate_inflight", "Requests currently in flight through the gate.", inFlight)
	return &gateMetrics{
		reg: r,
		batches: r.Counter("fxgate_batches_total",
			"Coalesced batch dispatches driven through RetrieveBatch."),
		latency: r.Histogram("fxgate_request_seconds",
			"End-to-end gate request latency.", nil),
	}
}

// The reasons a tenant's request is rejected, in the order of its
// rejection counters.
const (
	rateLimited = iota
	quota
	shed
	burn
)

var reasons = [...]string{rateLimited: "rate_limited", quota: "quota", shed: "shed", burn: "burn"}

// tenantSeries are one tenant's counters, by method (in the order of
// methods) and by rejection reason.
type tenantSeries struct {
	requests [len(methods)]counter
	rejected [len(reasons)]counter
}

// rejected counts one request rejected at the front door; a request no
// key admits is "unauthorized", under the empty tenant.
func rejected(r *obs.Registry, c *counter, tenant, reason string) {
	c.add(r, 1, "fxgate_rejected_total", "Requests rejected at the front door, by tenant and reason.",
		obs.L("tenant", tenant), obs.L("reason", reason))
}

// counter is one series of the registry, looked up on its first use —
// so /metrics shows only series something has counted in — and held
// from then on: counting costs an atomic load and an add.
type counter struct{ c atomic.Pointer[obs.Counter] }

// add adds n to the series of r. The registry, name, help and labels
// are read on the first call only; racing first calls resolve the same
// series.
func (c *counter) add(r *obs.Registry, n uint64, name, help string, labels ...obs.Label) {
	ctr := c.c.Load()
	if ctr == nil {
		ctr = r.Counter(name, help, labels...)
		c.c.Store(ctr)
	}
	ctr.Add(n)
}

// value is the series' count: 0 before its first use.
func (c *counter) value() uint64 {
	if ctr := c.c.Load(); ctr != nil {
		return ctr.Value()
	}
	return 0
}
