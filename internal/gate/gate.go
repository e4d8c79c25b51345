// Package gate is fxdist's multi-tenant front door: a persistent-
// connection serving tier that speaks the public client contract
// (JSON-RPC 2.0, package client) in front of one fxdist.Cluster.
//
// The gate authenticates tenants by API key, enforces per-tenant token
// buckets and in-flight quotas, sheds load when the cluster's SLO burn
// rate says a query shape is over budget, and — its reason to exist —
// coalesces concurrent requests across tenants: retrievals of a shape
// that arrive while a dispatch of that shape is in flight leave
// together through one Cluster.RetrieveBatch when it returns, so the
// plan cache compiles each shape once and the engine fans out once per
// batch (coalesce.go has the rule). Results are demultiplexed back to
// each tenant, and per-tenant wide events are preserved via
// fxdist.ContextWithCallers. See DESIGN §11.
package gate

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fxdist"
)

// Config assembles a Gate.
type Config struct {
	// Cluster is the serving cluster (required). The gate owns nothing:
	// callers open and close the cluster.
	Cluster *fxdist.Cluster
	// File is the multi-key hashed file's schema view, used to compile
	// map-form queries to PartialMatch specs and to answer fx.explain
	// (required).
	File *fxdist.File
	// Allocator, when set, lets fx.explain report exact per-device loads
	// by group convolution.
	Allocator fxdist.GroupAllocator
	// Tenants declares the tenant set (at least one).
	Tenants []TenantConfig
	// MaxBatch bounds one coalesced dispatch (default 64).
	MaxBatch int
	// MaxInFlight bounds requests in flight across all tenants; beyond
	// it the front door sheds with 429/Retry-After before touching the
	// cluster. 0 disables.
	MaxInFlight int
	// ShedRetryAfter is the Retry-After hint for front-door sheds
	// (default 500ms).
	ShedRetryAfter time.Duration
	// BurnShedThreshold enables SLO-burn admission control: when a query
	// shape's rolling burn rate (Cluster.BurnRate) meets or
	// exceeds it, new queries of that shape are rejected with
	// 429/Retry-After until the burn decays. 0 disables. 1.0 means "shed
	// exactly when the shape is burning its whole error budget".
	BurnShedThreshold float64
	// BurnRetryAfter is the Retry-After hint for burn sheds (default 1s).
	BurnRetryAfter time.Duration
}

const (
	defaultMaxBatch       = 64
	defaultShedRetryAfter = 500 * time.Millisecond
	defaultBurnRetryAfter = time.Second
)

// Gate is the serving tier. Create with New, serve its HTTP handler
// (ServeHTTP), stop with Close.
type Gate struct {
	cfg     Config
	tenants *tenantSet
	co      coalescer
	start   time.Time

	inFlight atomic.Int64

	// Dispatch accounting: batches counts dispatches (each one
	// Cluster.RetrieveBatch call), coalescedQ the queries that shared a
	// dispatch with at least one other request's query, directBatch the
	// dispatches that were one tenant's explicit fx.retrieveBatch,
	// rejects the requests turned away, by reason.
	batches     atomic.Uint64
	coalescedQ  atomic.Uint64
	directBatch atomic.Uint64
	rejects     [len(reasons)]atomic.Uint64

	shedMu sync.Mutex // guards cfg.MaxInFlight and cfg.ShedRetryAfter

	metrics *gateMetrics
}

// New builds a Gate over an open cluster.
func New(cfg Config) (*Gate, error) {
	if cfg.Cluster == nil {
		return nil, errors.New("gate: Config.Cluster is required")
	}
	if cfg.File == nil {
		return nil, errors.New("gate: Config.File is required")
	}
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("gate: at least one tenant is required")
	}
	ts, err := newTenantSet(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	if cfg.ShedRetryAfter <= 0 {
		cfg.ShedRetryAfter = defaultShedRetryAfter
	}
	if cfg.BurnRetryAfter <= 0 {
		cfg.BurnRetryAfter = defaultBurnRetryAfter
	}
	g := &Gate{
		cfg:     cfg,
		tenants: ts,
		start:   time.Now(),
		metrics: newGateMetrics(),
	}
	g.co.backlog = make(map[string][]*pending)
	return g, nil
}

// Close refuses further retrievals. In-flight dispatches finish;
// queries still waiting in a backlog are failed with overloaded.
func (g *Gate) Close() { g.co.close() }

// SetShedding re-arms the front door's global in-flight shed at
// runtime, symmetric with netdist.Server.SetShedding.
func (g *Gate) SetShedding(maxInFlight int, retryAfter time.Duration) {
	g.shedMu.Lock()
	g.cfg.MaxInFlight = maxInFlight
	if retryAfter > 0 {
		g.cfg.ShedRetryAfter = retryAfter
	}
	g.shedMu.Unlock()
}

// shedConfig reads the (mutable) front-door shed settings.
func (g *Gate) shedConfig() (int, time.Duration) {
	g.shedMu.Lock()
	defer g.shedMu.Unlock()
	return g.cfg.MaxInFlight, g.cfg.ShedRetryAfter
}

// shapeOf derives the query-shape key straight from a spec: 's' per
// specified field, '*' per unspecified.
func shapeOf(pm fxdist.PartialMatch) string {
	var b strings.Builder
	b.Grow(len(pm))
	for _, v := range pm {
		if v == nil {
			b.WriteByte('*')
		} else {
			b.WriteByte('s')
		}
	}
	return b.String()
}

// admitShape applies SLO-burn admission control for one query shape.
func (g *Gate) admitShape(shape string) *fxdist.Error {
	if g.cfg.BurnShedThreshold <= 0 {
		return nil
	}
	rate := g.cfg.Cluster.BurnRate(shape)
	if rate < g.cfg.BurnShedThreshold {
		return nil
	}
	g.rejects[burn].Add(1)
	e := fxdist.NewError(fxdist.ErrCodeOverloaded,
		fmt.Sprintf("shape %s over SLO burn budget (burn rate %.2f)", shape, rate))
	e.RetryAfter = g.cfg.BurnRetryAfter
	return e
}

// spec compiles a decoded query into the cluster's PartialMatch.
func (g *Gate) spec(query [][2]string) (fxdist.PartialMatch, *fxdist.Error) {
	pm, err := g.cfg.File.SpecPairs(query)
	if err != nil {
		return nil, fxdist.NewError(fxdist.ErrCodeInvalidQuery, err.Error())
	}
	return pm, nil
}

// retrieve serves one tenant query, returning the engine result plus
// the size of the dispatch it rode in (1 when it ran alone).
func (g *Gate) retrieve(ctx context.Context, t *tenant, pm fxdist.PartialMatch) (fxdist.RetrieveResult, int, error) {
	shape := shapeOf(pm)
	if e := g.admitShape(shape); e != nil {
		return fxdist.RetrieveResult{}, 0, e
	}
	start := time.Now()
	res, batch, err := g.do(ctx, t, shape, pm)
	t.observe(shape, time.Since(start), batch > 1, err)
	return res, batch, err
}

// retrieveBatch serves an explicit tenant batch as one dispatch of its
// own (the caller already batched; queueing behind its shapes' backlogs
// would only add latency), with every query attributed to the tenant.
func (g *Gate) retrieveBatch(ctx context.Context, t *tenant, pms []fxdist.PartialMatch) ([]fxdist.RetrieveResult, []error) {
	shapes := make([]string, len(pms))
	errs := make([]error, len(pms))
	run := make([]fxdist.PartialMatch, 0, len(pms))
	runIdx := make([]int, 0, len(pms))
	for i, pm := range pms {
		shapes[i] = shapeOf(pm)
		if e := g.admitShape(shapes[i]); e != nil {
			errs[i] = e
			continue
		}
		run = append(run, pm)
		runIdx = append(runIdx, i)
	}
	results := make([]fxdist.RetrieveResult, len(pms))
	start := time.Now()
	if len(run) > 0 {
		g.directBatch.Add(1)
		rs, per := g.dispatch(fxdist.ContextWithCaller(ctx, t.cfg.Name), run)
		for j, i := range runIdx {
			results[i] = rs[j]
			errs[i] = errAt(per, j)
		}
	}
	elapsed := time.Since(start)
	for i := range pms {
		t.observe(shapes[i], elapsed, false, errs[i])
	}
	return results, errs
}
