package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"fxdist"
	"fxdist/internal/gate"
	"fxdist/internal/mempool"
)

// Harness constants. Nothing here is time-triggered: syncs, content
// checks and read-your-write checks fire on operation counts, so the
// operation sequence is the same on every run.
const (
	segments      = 10  // equal slices of the timed window
	contentEvery  = 64  // every n-th read compares the full record content
	syncEvery     = 256 // every n-th insert of a client syncs the device logs
	readBackEvery = 64  // every n-th insert of a client is read back
	maxErrs       = 5   // failure messages kept per client and segment
)

// clientState is one closed-loop client's position in its streams. It
// carries over from warm-up into the timed window and from segment to
// segment, so a client never reissues an insert key.
type clientState struct {
	seq     int // operations issued
	reads   int
	inserts int
}

// clientLog is what one client records during one segment; clients
// share nothing while they run.
type clientLog struct {
	lat       []uint32 // per-operation latency in nanoseconds, correct ops only
	late      int      // correct ops that completed after the segment closed
	attempted int      // every operation issued, late ones too
	failed    int
	errs      []string
}

func (l *clientLog) observe(end, t0, t1 time.Time, err error) {
	l.attempted++
	if err != nil {
		// A failure counts whenever it completes: timeouts and stalls
		// are the failures most likely to outlive a segment.
		l.failed++
		if len(l.errs) < maxErrs {
			l.errs = append(l.errs, err.Error())
		}
		return // a failed operation gets no latency sample
	}
	if t1.After(end) {
		// Started inside the segment, completed after it closed: not
		// part of its throughput or latency, but its CPU time and
		// allocations are in the segment's totals.
		l.late++
		return
	}
	ns := t1.Sub(t0).Nanoseconds()
	if ns > int64(^uint32(0)) {
		ns = int64(^uint32(0))
	}
	l.lat = append(l.lat, uint32(ns))
}

// loop is one closed-loop client: it issues its next operation only
// after the previous one returned, until end.
func (r *runner) loop(ctx context.Context, c int, st *clientState, log *clientLog, end time.Time) {
	stream := r.streams[c]
	for {
		if r.w.writeEvery > 0 && st.seq%r.w.writeEvery == r.w.writeEvery-1 {
			rec := insertRecord(r.w.rel, r.opt.seed, c, st.inserts)
			t0 := time.Now()
			if !t0.Before(end) {
				return
			}
			n := st.inserts
			st.seq++
			st.inserts++
			err := r.stack.insert(rec, n%syncEvery == syncEvery-1)
			t1 := time.Now()
			if err == nil && n%readBackEvery == readBackEvery-1 {
				err = r.stack.checkInserted(ctx, rec)
			}
			log.observe(end, t0, t1, err)
			continue
		}
		q := &stream[st.reads%len(stream)]
		t0 := time.Now()
		if !t0.Before(end) {
			return
		}
		n := st.reads
		st.seq++
		st.reads++
		ans, err := r.stack.read(ctx, c, q)
		t1 := time.Now()
		if err == nil {
			err = checkAnswer(q, ans, n%contentEvery == 0)
		}
		log.observe(end, t0, t1, err)
	}
}

// checkAnswer compares an answer with the oracle: the record count
// always, the content digest when full is set.
func checkAnswer(q *poolQuery, ans answer, full bool) error {
	if ans.count() != q.want {
		return fmt.Errorf("wrong answer: %d records for %v, oracle has %d", ans.count(), q.pairs, q.want)
	}
	if full && ans.digest() != q.digest {
		return fmt.Errorf("wrong answer: content of %d records for %v differs from the oracle", q.want, q.pairs)
	}
	return nil
}

// burst drives every client for d, each recording into its own log.
func (r *runner) burst(ctx context.Context, d time.Duration, logs []*clientLog) {
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range r.streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.loop(ctx, c, &r.states[c], logs[c], end)
		}(c)
	}
	wg.Wait()
}

// newLogs returns one empty log per client, with room for sampleCap
// samples each.
func (r *runner) newLogs(sampleCap int) []*clientLog {
	logs := make([]*clientLog, len(r.streams))
	for c := range logs {
		logs[c] = &clientLog{lat: make([]uint32, 0, sampleCap)}
	}
	return logs
}

// cpuTime is the user plus system CPU time of the process so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// counters are the cumulative counts read from the program's public
// reports around a window.
type counters struct {
	mem        runtime.MemStats
	plan       fxdist.PlanCacheStats
	gate       gate.Report
	poolGets   uint64 // slabs served from a pool
	poolAsks   uint64 // slabs asked for
	eventsSeen uint64
}

func (r *runner) readCounters() counters {
	var k counters
	runtime.ReadMemStats(&k.mem)
	k.plan = r.stack.cluster.PlanCache()
	if r.stack.gate != nil {
		k.gate = r.stack.gate.Report()
	}
	for _, p := range mempool.Report() {
		k.poolGets += p.Gets
		k.poolAsks += p.Gets + p.Misses + p.Oversize
	}
	k.eventsSeen = fxdist.QueryLogStatsFor(r.stack.cluster.Kind()).Seen
	return k
}

// segment is one equal slice of the timed window: the clients' merged
// samples and the process CPU time it used.
type segment struct {
	lat  []uint32
	late int // correct ops that outlived the segment
	cpu  time.Duration
}

// windowResult is one timed window.
type windowResult struct {
	segs          [segments]segment
	seconds       float64 // window length
	attempted     int
	failed        int
	errs          []string
	before, after counters
}

func (w *windowResult) ok() int { return w.attempted - w.failed }

// runWindow is the timed window: ten closed-loop segments with the
// process CPU time read at their boundaries, and the program's counters
// read around the whole.
func (r *runner) runWindow(ctx context.Context, window time.Duration, sampleCap int) (*windowResult, error) {
	res := &windowResult{seconds: window.Seconds()}
	// Sample buffers exist before the counters are read, so they do not
	// count as the program's allocations.
	var logs [segments][]*clientLog
	for i := range logs {
		logs[i] = r.newLogs(sampleCap)
	}
	runtime.GC()
	res.before = r.readCounters()
	for i := range res.segs {
		cpu0, err := cpuTime()
		if err != nil {
			return nil, err
		}
		r.burst(ctx, window/segments, logs[i])
		cpu1, err := cpuTime()
		if err != nil {
			return nil, err
		}
		res.segs[i].cpu = cpu1 - cpu0
	}
	res.after = r.readCounters()
	for i := range res.segs {
		for _, l := range logs[i] {
			res.attempted += l.attempted
			res.failed += l.failed
			res.errs = append(res.errs, l.errs...)
			res.segs[i].lat = append(res.segs[i].lat, l.lat...)
			res.segs[i].late += l.late
		}
	}
	return res, nil
}
