// Package gate is fxdist's multi-tenant front door: a persistent-
// connection serving tier that speaks the public client contract
// (JSON-RPC 2.0, package client) in front of one fxdist.Cluster.
//
// The gate authenticates tenants by API key, enforces per-tenant token
// buckets and in-flight quotas, sheds load when the cluster's SLO burn
// rate says a query shape is over budget, and attributes every query to
// its tenant: on /debug/tenants, in the fxgate_* series and, through the
// caller's context, in the engine's wide events. Every fx.retrieve is
// one dispatch of its own, on its caller's goroutine and under its
// caller's context; an fx.retrieveBatch is one dispatch of the tenant's
// queries. The plan cache already compiles each shape once, and a
// query's cost is its own fan-out (DESIGN §11).
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
	"fxdist/internal/engine"
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
	// by group convolution while its M is the cluster's (a rescale moves
	// the cluster past it).
	Allocator fxdist.GroupAllocator
	// Tenants declares the tenant set (at least one).
	Tenants []TenantConfig
	// MaxInFlight bounds requests in flight across all tenants; beyond
	// it the front door sheds with 429/Retry-After before touching the
	// cluster. 0 disables. Fixed at New, as is ShedRetryAfter.
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
	defaultShedRetryAfter = 500 * time.Millisecond
	defaultBurnRetryAfter = time.Second
)

// Gate is the serving tier. Create with New, serve its HTTP handler
// (ServeHTTP), stop with Close.
type Gate struct {
	cfg      Config
	tenants  *tenantSet
	requests sync.Pool // recycled *request (ServeHTTP)
	start    time.Time

	inFlight atomic.Int64
	closed   atomic.Bool

	// directBatch counts the dispatches that were one tenant's explicit
	// fx.retrieveBatch, burnSheds the queries shed on their shape's SLO
	// burn; the other dispatch and rejection counts are the metrics'.
	directBatch atomic.Uint64
	burnSheds   atomic.Uint64

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
	}
	g.metrics = newGateMetrics(func() float64 { return float64(g.inFlight.Load()) })
	g.requests.New = func() any { return new(request) }
	return g, nil
}

// Close refuses further retrievals as overloaded ("gate shutting
// down"). Dispatches already in flight finish on their callers'
// goroutines: there is nothing for Close to wait for.
func (g *Gate) Close() { g.closed.Store(true) }

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
	g.burnSheds.Add(1)
	e := fxdist.NewError(fxdist.ErrCodeOverloaded,
		fmt.Sprintf("shape %s over SLO burn budget (burn rate %.2f)", shape, rate))
	e.RetryAfter = g.cfg.BurnRetryAfter
	return e
}

// spec compiles a decoded query into a PartialMatch pointing into it.
func (g *Gate) spec(query [][2]string, into fxdist.PartialMatch) (fxdist.PartialMatch, *fxdist.Error) {
	pm, err := g.cfg.File.SpecPairs(query, into)
	if err != nil {
		return nil, fxdist.NewError(fxdist.ErrCodeInvalidQuery, err.Error())
	}
	return pm, nil
}

// retrieve serves one tenant query in rq as a dispatch of its own.
func (g *Gate) retrieve(ctx context.Context, t *tenant, pm fxdist.PartialMatch, rq *request) (fxdist.RetrieveResult, error) {
	shape := shapeOf(pm)
	if e := g.admitShape(shape); e != nil {
		t.reject(g.metrics.reg, burn)
		return fxdist.RetrieveResult{}, e
	}
	start := time.Now()
	rq.caller, rq.pms[0] = engine.Caller{Context: ctx, Name: t.cfg.Name}, pm
	res, errs := g.dispatch(&rq.caller, rq.pms[:])
	err := errAt(errs, 0)
	t.observe(shape, time.Since(start), err)
	return res[0], err
}

// retrieveBatch serves an explicit tenant batch as one dispatch, with
// every query attributed to the tenant.
func (g *Gate) retrieveBatch(ctx context.Context, t *tenant, pms []fxdist.PartialMatch, rq *request) ([]fxdist.RetrieveResult, []error) {
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
		rq.caller = engine.Caller{Context: ctx, Name: t.cfg.Name}
		rs, per := g.dispatch(&rq.caller, run)
		for j, i := range runIdx {
			results[i] = rs[j]
			errs[i] = errAt(per, j)
		}
	}
	elapsed := time.Since(start)
	for i := range pms {
		t.observe(shapes[i], elapsed, errs[i])
	}
	return results, errs
}

// dispatch is the gate's only road to the cluster: one
// Cluster.RetrieveBatch, its joined error split back into one per
// query, so a failure stays with the query — and the tenant — it
// belongs to. Attribution rides ctx. A closed gate refuses every query.
func (g *Gate) dispatch(ctx context.Context, pms []fxdist.PartialMatch) ([]fxdist.RetrieveResult, []error) {
	if g.closed.Load() {
		errs := make([]error, len(pms))
		for i := range errs {
			errs[i] = fxdist.NewError(fxdist.ErrCodeOverloaded, "gate shutting down")
		}
		return make([]fxdist.RetrieveResult, len(pms)), errs
	}
	g.metrics.batches.Inc()
	res, err := g.cfg.Cluster.RetrieveBatch(ctx, pms)
	return res, splitBatchError(err, len(pms))
}

// splitBatchError demultiplexes Cluster.RetrieveBatch's joined error
// (one *fxdist.QueryError per failed query) into per-query errors, nil
// when no query failed. A cause that names no query lands on every slot
// that has none.
func splitBatchError(err error, n int) []error {
	if err == nil {
		return nil
	}
	per := make([]error, n)
	var rest []error
	var walk func(error)
	walk = func(e error) {
		if joined, ok := e.(interface{ Unwrap() []error }); ok {
			for _, sub := range joined.Unwrap() {
				walk(sub)
			}
			return
		}
		var qe *fxdist.QueryError
		if errors.As(e, &qe) && qe.Index >= 0 && qe.Index < n {
			per[qe.Index] = qe.Err
			return
		}
		rest = append(rest, e)
	}
	walk(err)
	if len(rest) > 0 {
		fallback := errors.Join(rest...)
		for i := range per {
			if per[i] == nil {
				per[i] = fallback
			}
		}
	}
	return per
}

// errAt is query i's error in a splitBatchError result.
func errAt(errs []error, i int) error {
	if errs == nil {
		return nil
	}
	return errs[i]
}
