package engine

import (
	"context"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"

	"fxdist/internal/mkhash"
)

// DualReader answers retrievals during a live rescale window by racing
// the old-epoch and new-epoch read paths. The first complete answer
// wins and is returned to the caller — queries never wait on the
// migration — while the loser finishes in the background so the two
// answers can be cross-checked record-for-record. Any divergence is a
// migration bug (a bucket installed on the wrong owner, a stale view
// answering past cutover) and is counted and surfaced to the rescale
// driver, which refuses to release the old epoch while mismatches
// exist.
//
// The cross-check is order-insensitive: retrieval results are grouped
// by device, and the two epochs assign buckets to different devices by
// construction, so the comparison hashes each record independently and
// sums the hashes (a commutative multiset digest). Collisions would
// need two distinct record multisets with equal FNV sums — not a
// concern for a consistency tripwire.
type DualReader struct {
	// Old and New answer one retrieval on the pre- and post-rescale
	// cluster respectively.
	Old func(ctx context.Context, pm mkhash.PartialMatch) (Result, error)
	New func(ctx context.Context, pm mkhash.PartialMatch) (Result, error)

	started    atomic.Uint64
	completed  atomic.Uint64
	mismatches atomic.Uint64
	oldWins    atomic.Uint64
	newWins    atomic.Uint64

	wg sync.WaitGroup
}

// DualReadStats is a snapshot of a DualReader's counters.
type DualReadStats struct {
	// Started is the number of dual reads issued.
	Started uint64 `json:"started"`
	// Completed is the number whose background cross-check finished.
	Completed uint64 `json:"completed"`
	// Mismatches is the number of diverging answers observed.
	Mismatches uint64 `json:"mismatches"`
	// OldWins / NewWins count which epoch answered first.
	OldWins uint64 `json:"old_wins"`
	NewWins uint64 `json:"new_wins"`
}

// Stats snapshots the reader's counters.
func (d *DualReader) Stats() DualReadStats {
	return DualReadStats{
		Started:    d.started.Load(),
		Completed:  d.completed.Load(),
		Mismatches: d.mismatches.Load(),
		OldWins:    d.oldWins.Load(),
		NewWins:    d.newWins.Load(),
	}
}

// Drain blocks until every in-flight background cross-check has
// finished. Call before reading final Stats at cutover.
func (d *DualReader) Drain() { d.wg.Wait() }

type dualAnswer struct {
	res Result
	err error
	old bool
}

// Retrieve races both epochs and returns the first successful answer.
// If the winner fails, the loser's answer is used instead; the query
// fails only when both paths fail. The slower successful answer is
// cross-checked against the returned one in the background.
func (d *DualReader) Retrieve(ctx context.Context, pm mkhash.PartialMatch) (Result, error) {
	d.started.Add(1)
	ch := make(chan dualAnswer, 2)
	run := func(f func(context.Context, mkhash.PartialMatch) (Result, error), old bool) {
		res, err := f(ctx, pm)
		ch <- dualAnswer{res: res, err: err, old: old}
	}
	go run(d.Old, true)
	go run(d.New, false)

	first := <-ch
	winner := first
	if first.err != nil {
		// The fast path failed; fall back to the slow one synchronously.
		second := <-ch
		if second.err != nil {
			d.completed.Add(1)
			return Result{}, first.err
		}
		winner = second
		d.recordWin(winner.old)
		d.completed.Add(1)
		return winner.res, nil
	}
	d.recordWin(winner.old)

	// Cross-check against the loser off the caller's path. The winner's
	// digest is taken now: once we return, the caller may Release its
	// lease and the pooled record memory is rewritten under us.
	wsum := multisetDigest(winner.res.Records)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer d.completed.Add(1)
		second := <-ch
		if second.err != nil {
			// The loser failing is availability noise (the rescale may be
			// killing its servers under fault injection), not divergence.
			return
		}
		defer second.res.Release()
		if multisetDigest(second.res.Records) != wsum {
			d.mismatches.Add(1)
		}
	}()
	return winner.res, nil
}

func (d *DualReader) recordWin(old bool) {
	if old {
		d.oldWins.Add(1)
	} else {
		d.newWins.Add(1)
	}
}

// CloneRecords deep-copies recs, including the field strings — arena
// results and wire frames build those with unsafe.String over pooled
// slabs, so a shallow copy would still dangle after the slab is reused.
func CloneRecords(recs []mkhash.Record) []mkhash.Record {
	out := make([]mkhash.Record, len(recs))
	for i, r := range recs {
		rec := make(mkhash.Record, len(r))
		for j, f := range r {
			rec[j] = strings.Clone(f)
		}
		out[i] = rec
	}
	return out
}

// multisetDigest hashes each record independently (fields length-
// prefixed, field order significant) and sums the hashes mod 2^64, so
// two results with the same records in any order digest equally.
func multisetDigest(recs []mkhash.Record) uint64 {
	var sum uint64
	var buf [10]byte
	for _, r := range recs {
		h := fnv.New64a()
		for _, f := range r {
			n := putUvarint(buf[:], uint64(len(f)))
			h.Write(buf[:n]) //nolint:errcheck // hash.Hash never errors
			h.Write([]byte(f))
		}
		sum += h.Sum64()
	}
	return sum
}

func putUvarint(b []byte, v uint64) int {
	i := 0
	for v >= 0x80 {
		b[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	b[i] = byte(v)
	return i + 1
}
