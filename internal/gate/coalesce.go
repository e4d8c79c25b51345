package gate

import (
	"context"
	"errors"
	"sync"

	"fxdist"
	"fxdist/internal/engine"
)

// Coalescing is group commit: batches form from backlog, not from
// waiting. A query whose shape has no dispatch in flight is dispatched
// at once, alone, on its caller's goroutine and under its caller's
// context. Queries of that shape arriving meanwhile append to the
// shape's bounded backlog and leave together when the dispatch
// returns: the backlog is chunked at MaxBatch and every chunk is one
// Cluster.RetrieveBatch — with fxdist.ContextWithCallers carrying each
// query's tenant so the engine's wide events stay per-tenant — under a
// background context, because no single waiter's cancellation may take
// its batch-mates' answers away. What arrives during that round forms
// the next one; a shape with an empty backlog forgets its state. A lone
// caller therefore pays nothing for coalescing, and a busy shape costs
// one plan-cache lookup and one engine fan-out wave per chunk, however
// many tenants fed it.
//
// Invariants: per shape at most one round (the leader's dispatch, or
// the chunks of one drained backlog) is in flight; the backlog never
// exceeds 4×MaxBatch; outcome channels are buffered, so neither a
// waiter that gave up nor Close can stall the demux.

// pending is one query waiting in a shape's backlog.
type pending struct {
	tenant string
	pm     fxdist.PartialMatch
	done   chan outcome // buffered 1: the sender never blocks
}

// outcome is what a round hands back to one of its waiters.
type outcome struct {
	res   fxdist.RetrieveResult
	batch int // size of the dispatch this query rode in
	err   error
}

// coalescer is the per-shape backlog state. A shape has an entry
// exactly while one of its rounds is in flight.
type coalescer struct {
	mu      sync.Mutex
	closed  bool
	backlog map[string][]*pending
	rounds  sync.WaitGroup // follower rounds: the goroutines Close waits for
}

func errShuttingDown() error {
	return fxdist.NewError(fxdist.ErrCodeOverloaded, "gate shutting down")
}

// do answers one query by the rule above, returning the size of the
// dispatch it rode in, from rq's memory. A follower's context cancels
// only its wait: the query may still be served inside its round, and the
// outcome is then dropped.
func (g *Gate) do(ctx context.Context, t *tenant, shape string, pm fxdist.PartialMatch, rq *request) (fxdist.RetrieveResult, int, error) {
	co := &g.co
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return fxdist.RetrieveResult{}, 0, errShuttingDown()
	}
	waiting, busy := co.backlog[shape]
	if !busy {
		co.backlog[shape] = nil
		co.mu.Unlock()
		rq.caller, rq.pms[0] = engine.Caller{Context: ctx, Name: t.cfg.Name}, pm
		res, errs := g.dispatch(&rq.caller, rq.pms[:])
		g.next(shape)
		return res[0], 1, errAt(errs, 0)
	}
	if len(waiting) >= 4*g.cfg.MaxBatch {
		co.mu.Unlock()
		// The shape's dispatches are running far behind its arrivals.
		e := fxdist.NewError(fxdist.ErrCodeOverloaded, "coalescing backlog full")
		e.RetryAfter = g.cfg.ShedRetryAfter
		return fxdist.RetrieveResult{}, 0, e
	}
	rq.wait.tenant, rq.wait.pm = t.cfg.Name, pm
	co.backlog[shape] = append(waiting, &rq.wait)
	co.mu.Unlock()
	select {
	case out := <-rq.wait.done:
		return out.res, out.batch, out.err
	case <-ctx.Done():
		return fxdist.RetrieveResult{}, 0, fxdist.Classify(ctx.Err())
	}
}

// next ends a shape's round: with nothing waiting the shape forgets its
// state, otherwise the backlog leaves as the next round.
func (g *Gate) next(shape string) {
	co := &g.co
	co.mu.Lock()
	round := co.backlog[shape]
	if len(round) == 0 {
		delete(co.backlog, shape)
		co.mu.Unlock()
		return
	}
	co.backlog[shape] = nil
	co.rounds.Add(1) // under mu: Close either waits for this round or failed its waiters first
	co.mu.Unlock()
	go func() {
		defer co.rounds.Done()
		g.round(round)
		g.next(shape)
	}()
}

// round serves one drained backlog: chunked at MaxBatch, the chunks
// side by side.
func (g *Gate) round(waiters []*pending) {
	var rest sync.WaitGroup
	for len(waiters) > g.cfg.MaxBatch {
		chunk := waiters[:g.cfg.MaxBatch]
		waiters = waiters[g.cfg.MaxBatch:]
		rest.Add(1)
		go func() {
			defer rest.Done()
			g.serve(chunk)
		}()
	}
	g.serve(waiters)
	rest.Wait()
}

// serve dispatches one chunk of waiters and hands each its outcome.
func (g *Gate) serve(chunk []*pending) {
	pms := make([]fxdist.PartialMatch, len(chunk))
	callers := make([]string, len(chunk))
	for i, p := range chunk {
		pms[i], callers[i] = p.pm, p.tenant
	}
	if len(chunk) > 1 {
		g.metrics.coalesced.add(g.metrics.reg, uint64(len(chunk)), "fxgate_coalesced_queries_total",
			"Queries served inside a multi-query coalesced dispatch.")
	}
	res, errs := g.dispatch(fxdist.ContextWithCallers(context.Background(), callers), pms)
	for i, p := range chunk {
		p.done <- outcome{res[i], len(chunk), errAt(errs, i)}
	}
}

// dispatch is the gate's only road to the cluster: one
// Cluster.RetrieveBatch, its joined error split back into one per
// query, so a failure stays with the query — and the tenant — it
// belongs to. Attribution rides ctx.
func (g *Gate) dispatch(ctx context.Context, pms []fxdist.PartialMatch) ([]fxdist.RetrieveResult, []error) {
	g.metrics.batches.Inc()
	res, err := g.cfg.Cluster.RetrieveBatch(ctx, pms)
	return res, splitBatchError(err, len(pms))
}

// close refuses new arrivals, fails every waiting query and waits for
// the follower rounds already dispatched.
func (co *coalescer) close() {
	co.mu.Lock()
	co.closed = true
	for shape, waiting := range co.backlog {
		for _, p := range waiting {
			p.done <- outcome{err: errShuttingDown()}
		}
		co.backlog[shape] = nil
	}
	co.mu.Unlock()
	co.rounds.Wait()
}

// waiting counts the queries in a backlog right now.
func (co *coalescer) waiting() (n int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, w := range co.backlog {
		n += len(w)
	}
	return n
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
