package engine_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/query"
	"fxdist/internal/retry"
)

// TestKeptStagesOutliveTheCall keeps one result's Stages and runs 100
// more retrievals through the same executor: the kept stages must read as
// they did. Stages that alias the call's buffer read the next query's (or
// zeros) once the call is recycled.
func TestKeptStagesOutliveTheCall(t *testing.T) {
	f := testSchema(t)
	devs := make([]engine.Device, 4)
	for dev := range devs {
		devs[dev] = fixedDevice{ans: engine.Answer{Buckets: 1, Records: 1}}
	}
	e, err := engine.New(planned(t, f, engine.Config{
		Devices: devs, Model: engine.MainMemory, Instr: privateBundle("kept-stages", len(devs)),
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Retrieve(context.Background(), anyQuery(t, f))
	if err != nil {
		t.Fatal(err)
	}
	kept := res.Stages
	want := slices.Clone(kept)
	if len(kept) != 5 || kept[0].Stage != obs.StagePlan {
		t.Fatalf("stages = %+v, want plan, fanout, merge, audit and device.scan", kept)
	}
	for i := 0; i < 100; i++ {
		if _, err := e.Retrieve(context.Background(), anyQuery(t, f)); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(kept, want) {
		t.Errorf("kept stages changed under later retrievals:\n got %+v\nwant %+v", kept, want)
	}
}

// foreignCtx is a context of a type the context package does not know. A
// child derived from a call begun under it is watched by a goroutine of
// the context package's own, which may read the call after the child was
// cancelled and the call went back to the pool.
type foreignCtx struct {
	done chan struct{}
	once sync.Once
}

func newForeignCtx() *foreignCtx                  { return &foreignCtx{done: make(chan struct{})} }
func (f *foreignCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (f *foreignCtx) Done() <-chan struct{}       { return f.done }
func (f *foreignCtx) Value(any) any               { return nil }
func (f *foreignCtx) cancel()                     { f.once.Do(func() { close(f.done) }) }

func (f *foreignCtx) Err() error {
	select {
	case <-f.done:
		return context.Canceled
	default:
		return nil
	}
}

// ownDevice checks, for the whole of its scan, that the call it runs under
// is its own query's: the plan of the query's shape, one span whose trace
// no other query's scan has claimed, and a spec that stays the lowering of
// its filters. It derives a child context and cancels it before it
// returns, as netdist's round trip does, and answers one record naming
// its query.
type ownDevice struct {
	f       *mkhash.File
	step    time.Duration // between checks; 0 yields instead
	steps   int
	owners  *sync.Map // trace ID → the query ID its scans claimed it for
	active  *atomic.Int64
	problem func(format string, args ...any)
}

func (d ownDevice) Scan(ctx context.Context, q query.Query, pm mkhash.PartialMatch) (engine.Answer, error) {
	d.active.Add(1)
	defer d.active.Add(-1)
	id := *pm[0]
	want, err := d.f.BucketQuery(pm)
	if err != nil {
		return engine.Answer{}, err
	}
	shape := string(want.AppendShape(nil))
	plan, span := engine.PlanFromContext(ctx), engine.SpanFromContext(ctx)
	if plan == nil || plan.Shape != shape || span == nil {
		d.problem("query %s (shape %s) scans under plan %+v, span %v", id, shape, plan, span)
		return engine.Answer{}, nil
	}
	tid := span.Trace()
	if other, loaded := d.owners.LoadOrStore(tid, id); loaded && other != id {
		d.problem("trace %d is claimed by queries %s and %s", tid, other, id)
	}
	cctx, cancel := context.WithTimeout(ctx, time.Hour)
	defer cancel()
	for i := 0; i < d.steps; i++ {
		if p, s := engine.PlanFromContext(cctx), engine.SpanFromContext(cctx); p != plan || s != span || s.Trace() != tid {
			d.problem("query %s: the call changed mid-scan: plan %p → %p, trace %d → %d", id, plan, p, tid, s.Trace())
		}
		if !slices.Equal(q.Spec, want.Spec) {
			d.problem("query %s: spec %v changed to %v mid-scan", id, want.Spec, q.Spec)
		}
		if d.step == 0 {
			runtime.Gosched()
			continue
		}
		t := time.NewTimer(d.step)
		select {
		case <-t.C:
		case <-cctx.Done():
			t.Stop()
			return engine.Answer{}, cctx.Err()
		}
	}
	span.Event("scanned " + id)
	hits := engine.HitsPool().Get(1)
	hits[0] = mkhash.Record{id}
	return engine.Answer{Buckets: 1, Records: 1, Hits: hits}, nil
}

// TestCallRecycleHammer runs Retrieve and RetrieveBatch from 8 goroutines
// through one instrumented, traced executor whose retry controller hedges
// its slow device 0, under caller contexts of both the context package's
// types and a foreign one, a quarter of them cancelled at a random moment.
// Every device checks that the call it scans under stays its own query's
// (ownDevice), every answer holds only its own query's records, and -race
// watches the pooled calls, their done tokens, spans and specs.
func TestCallRecycleHammer(t *testing.T) {
	f := mkhash.MustNew(mkhash.Schema{Fields: []string{"id", "a", "b"}, Depths: []int{2, 2, 2}})
	var (
		owners   sync.Map
		active   atomic.Int64
		mu       sync.Mutex
		problems []string
	)
	problem := func(format string, args ...any) {
		mu.Lock()
		problems = append(problems, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	dev := func(step time.Duration, steps int) ownDevice {
		return ownDevice{f: f, step: step, steps: steps, owners: &owners, active: &active, problem: problem}
	}
	rc := controller(t, retry.Config{Hedge: true, HedgeMin: 100 * time.Microsecond})
	for i := 0; i < 8; i++ {
		rc.Observe(0, time.Second, nil)
		for d := 1; d < 4; d++ {
			rc.Observe(d, time.Microsecond, nil)
		}
	}
	backup := dev(0, 4)
	e, err := engine.New(planned(t, f, engine.Config{
		Devices: []engine.Device{dev(200*time.Microsecond, 5), dev(0, 4), dev(0, 4), dev(0, 4)},
		Model:   engine.MainMemory,
		Instr:   privateBundle("recycle-hammer", 4),
		Tracer:  obs.NewTracer(64),
		Span:    "test.retrieve",
		Retry:   rc,
		Backup:  func(int) engine.Device { return backup },
	}))
	if err != nil {
		t.Fatal(err)
	}

	iterations := 150
	if testing.Short() {
		iterations = 30
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 33))
			query := func(i, j int) (string, mkhash.PartialMatch) {
				id := fmt.Sprintf("w%d-%d-%d", w, i, j)
				pm := mkhash.PartialMatch{&id, nil, nil}
				for k := 1; k < len(pm); k++ {
					if rng.IntN(2) == 0 {
						v := fmt.Sprintf("v%d", rng.IntN(8))
						pm[k] = &v
					}
				}
				return id, pm
			}
			check := func(id string, res engine.Result) {
				if owner, ok := owners.Load(res.TraceID); ok && owner != id {
					problem("query %s got trace %d, which query %s's scans claimed", id, res.TraceID, owner)
				}
				for _, r := range res.Records {
					if r[0] != id {
						problem("query %s got query %s's record", id, r[0])
					}
				}
			}
			for i := 0; i < iterations; i++ {
				var ctx context.Context
				var cancel func()
				if rng.IntN(2) == 0 {
					fc := newForeignCtx()
					ctx, cancel = fc, fc.cancel
				} else {
					ctx, cancel = context.WithCancel(context.Background())
				}
				if rng.IntN(4) == 0 {
					time.AfterFunc(time.Duration(rng.IntN(400))*time.Microsecond, cancel)
				}
				if rng.IntN(3) == 0 {
					ids := make([]string, 1+rng.IntN(4))
					pms := make([]mkhash.PartialMatch, len(ids))
					for j := range ids {
						ids[j], pms[j] = query(i, j)
					}
					results, _ := e.RetrieveBatch(ctx, pms)
					for j, res := range results {
						check(ids[j], res)
					}
				} else {
					id, pm := query(i, 0)
					if res, err := e.Retrieve(ctx, pm); err == nil {
						check(id, res)
					}
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	// Abandoned calls' stragglers exit on their next context check.
	for deadline := time.Now().Add(10 * time.Second); active.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, p := range problems[:min(len(problems), 10)] {
		t.Error(p)
	}
	if rep := rc.Report(); rep.Hedges == 0 {
		t.Errorf("the controller never hedged device 0: %+v", rep)
	}
}
