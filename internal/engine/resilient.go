package engine

import (
	"context"
	"fmt"
	"time"

	"fxdist/internal/mkhash"
	"fxdist/internal/query"
)

// scanDevice runs one device slot's scan to completion under the
// executor's failure handling, one decision sequence: the retry
// controller's breaker gates the first attempt; a failure charges it
// (primaries only), then a failed primary goes to the Reroute device at
// once, and otherwise the controller's budget backs off and re-asks the
// same device. With neither a controller nor a Reroute the scan is bare.
// It runs on a pool worker; every retry of the slot stays on that worker
// (backoff sleeps are context-aware), so the pool bound holds across
// retries and a reroute happens at once rather than in a second fan-out
// wave.
func (e *Executor) scanDevice(ctx context.Context, dev int, q query.Query, pm mkhash.PartialMatch) (Answer, error) {
	if e.retry == nil && e.reroute == nil {
		return e.devs[dev].Scan(ctx, q, pm)
	}

	cur := e.devs[dev]
	primary := true
	span := SpanFromContext(ctx)
	for attempt := 1; ; attempt++ {
		var ans Answer
		var err error
		if attempt == 1 {
			if err = e.retry.Allow(dev); err != nil && span != nil {
				span.Event(fmt.Sprintf("breaker: device %d attempt vetoed: %v", dev, err))
			}
		}
		if err == nil {
			if ans, err = e.scanMaybeHedged(ctx, dev, cur, primary, q, pm); err == nil {
				e.retry.Success(dev, primary)
				return ans, nil
			}
		}
		if ctx.Err() != nil {
			return Answer{}, err
		}
		e.retry.Failure(dev, primary, err)
		var delay time.Duration
		var alt Device
		if primary && e.reroute != nil {
			alt = e.reroute(ctx, dev, err)
		}
		if alt != nil {
			cur, primary = alt, false
		} else if d, ok := e.retry.Backoff(ctx, attempt, err); ok {
			delay = d
		} else {
			return Answer{}, err
		}
		if span != nil {
			span.Event(fmt.Sprintf("retry: device %d attempt %d after %v (cause: %v)", dev, attempt+1, delay, err))
		}
		if delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return Answer{}, ctx.Err()
			}
		}
	}
}

// hedgeResult is one arm of a hedged scan.
type hedgeResult struct {
	ans   Answer
	err   error
	hedge bool
}

// scanMaybeHedged scans d, racing it against the Backup device when the
// retry controller finds the slot's primary breaching its peers' tail
// latency. Only primary attempts hedge — replacement devices are already
// the backup path. Both arms share a cancellable child context; the
// first success cancels the loser, which is waited out before the scan
// returns: an arm still running would read the call, and annotate its
// span, after the call went back to the pool for another query.
func (e *Executor) scanMaybeHedged(ctx context.Context, dev int, d Device, primary bool, q query.Query, pm mkhash.PartialMatch) (Answer, error) {
	if e.backup == nil || !primary {
		return d.Scan(ctx, q, pm)
	}
	after, ok := e.retry.HedgeAfter(dev)
	if !ok {
		t0 := time.Now()
		ans, err := d.Scan(ctx, q, pm)
		e.retry.Observe(dev, time.Since(t0), err)
		return ans, err
	}
	backup := e.backup(dev)

	hctx, cancel := context.WithCancel(ctx)
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
	defer func() {
		cancel()
		for ; outstanding > 0; outstanding-- {
			<-ch
		}
	}()
	for {
		select {
		case r := <-ch:
			outstanding--
			if !r.hedge {
				e.retry.Observe(dev, time.Since(t0), r.err)
			}
			if r.err == nil {
				if r.hedge {
					e.retry.HedgeWon()
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
			e.retry.Hedged()
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
