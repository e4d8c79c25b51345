package engine

import (
	"context"
	"fmt"
	"time"

	"fxdist/internal/mkhash"
	"fxdist/internal/query"
)

// scanDevice runs one device slot's scan to completion under the
// executor's failure handling: the policy chain when one is configured,
// a bare scan otherwise. It runs on a pool worker; every retry of the
// slot stays on that worker (backoff sleeps are context-aware), so the
// pool bound holds across retries and a reroute happens at once rather
// than in a second fan-out wave.
func (e *Executor) scanDevice(ctx context.Context, dev int, q query.Query, pm mkhash.PartialMatch) (Answer, error) {
	if len(e.res.Policies) == 0 {
		return e.devs[dev].Scan(ctx, q, pm)
	}

	cur := e.devs[dev]
	primary := true
	for attempt := 1; ; attempt++ {
		var ans Answer
		var err error
		if attempt == 1 {
			err = e.allow(ctx, dev)
		}
		if err == nil {
			t0 := time.Now()
			ans, err = e.scanMaybeHedged(ctx, dev, cur, primary, q, pm)
			elapsed := time.Since(t0)
			if err == nil {
				for _, p := range e.res.Policies {
					p.Success(dev, primary, elapsed)
				}
				return ans, nil
			}
		}
		if ctx.Err() != nil {
			return Answer{}, err
		}
		at := Attempt{Device: dev, N: attempt, Primary: primary, Err: err}
		var dec Decision
		for _, p := range e.res.Policies {
			if d := p.Failure(ctx, at); d.Retry && !dec.Retry {
				dec = d
			}
		}
		if !dec.Retry {
			return Answer{}, err
		}
		if span := SpanFromContext(ctx); span != nil {
			span.Event(fmt.Sprintf("retry: device %d attempt %d after %v (cause: %v)", dev, attempt+1, dec.Delay, err))
		}
		if dec.Delay > 0 {
			t := time.NewTimer(dec.Delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return Answer{}, ctx.Err()
			}
		}
		if dec.Device != nil {
			cur = dec.Device
			primary = false
		}
	}
}

// allow asks every policy whether the first attempt on dev may proceed
// (circuit breakers veto here). A veto becomes the attempt's error and
// flows through the Failure chain, where a reroute policy can still
// offer the device's backup.
func (e *Executor) allow(ctx context.Context, dev int) error {
	for _, p := range e.res.Policies {
		if err := p.Allow(ctx, dev); err != nil {
			if span := SpanFromContext(ctx); span != nil {
				span.Event(fmt.Sprintf("breaker: device %d attempt vetoed: %v", dev, err))
			}
			return err
		}
	}
	return nil
}

// hedgeResult is one arm of a hedged scan.
type hedgeResult struct {
	ans   Answer
	err   error
	hedge bool
}

// scanMaybeHedged scans d, racing it against the hedger's backup when
// the slot's primary device is breaching its peers' tail latency. Only
// primary attempts hedge — replacement devices are already the backup
// path. Both arms share a cancellable child context; the first success
// cancels the loser, and the buffered channel lets an abandoned arm
// finish without leaking.
func (e *Executor) scanMaybeHedged(ctx context.Context, dev int, d Device, primary bool, q query.Query, pm mkhash.PartialMatch) (Answer, error) {
	h := e.res.Hedger
	if h == nil || !primary {
		return d.Scan(ctx, q, pm)
	}
	backup, after, ok := h.Plan(dev)
	if !ok || backup == nil {
		t0 := time.Now()
		ans, err := d.Scan(ctx, q, pm)
		h.Observe(dev, time.Since(t0), err)
		return ans, err
	}

	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The arms run as raw goroutines, not pool tasks: a hedge queued
	// behind a full pool could deadlock the very retrieval it serves.
	ch := make(chan hedgeResult, 2)
	t0 := time.Now()
	go func() {
		ans, err := d.Scan(hctx, q, pm)
		ch <- hedgeResult{ans: ans, err: err}
	}()
	timer := time.NewTimer(after)
	defer timer.Stop()

	span := SpanFromContext(ctx)
	hedged := false
	var primErr error
	outstanding := 1
	for {
		select {
		case r := <-ch:
			outstanding--
			if !r.hedge {
				h.Observe(dev, time.Since(t0), r.err)
			}
			if r.err == nil {
				if r.hedge {
					h.HedgeWon(dev)
					if span != nil {
						span.Event(fmt.Sprintf("hedge: backup won for device %d after %v", dev, time.Since(t0)))
					}
				}
				return r.ans, nil
			}
			if !r.hedge {
				primErr = r.err
				if !hedged {
					return Answer{}, primErr
				}
			}
			if outstanding == 0 {
				// Both arms failed: report the primary's cause.
				if primErr == nil {
					primErr = r.err
				}
				return Answer{}, primErr
			}
		case <-timer.C:
			hedged = true
			outstanding++
			h.Hedged(dev)
			if span != nil {
				span.Event(fmt.Sprintf("hedge: launching backup for device %d after %v", dev, after))
			}
			go func() {
				ans, err := backup.Scan(hctx, q, pm)
				ch <- hedgeResult{ans: ans, err: err, hedge: true}
			}()
		case <-ctx.Done():
			return Answer{}, ctx.Err()
		}
	}
}
