package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"fxdist/internal/decluster"
	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/plancache"
	"fxdist/internal/query"
	"fxdist/internal/retry"
	"fxdist/internal/telemetry"
)

// Config assembles an Executor.
type Config struct {
	// Schema hashes value-level queries into bucket queries.
	Schema *mkhash.File
	// Devices are the cluster's parallel devices, in device order: one
	// per device of Alloc's grid.
	Devices []Device
	// Span names the spans Instr's tracer opens, one per retrieval (e.g.
	// "storage.retrieve"); "" opens none.
	Span string
	// Workers bounds the worker pool; 0 means max(len(Devices), GOMAXPROCS).
	Workers int
	// Retry, if set, is the backend's retry controller: circuit breakers,
	// the backoff budget, hedging and partial results (scanDevice). Nil
	// with no Reroute scans each device once, bare.
	Retry *retry.Controller
	// Reroute, if set, names the device that answers in place of device
	// dev's failed primary (a breaker veto included): the slot moves
	// there at once, before any backoff; a nil answer lets the failure
	// stand. netdist's failover is the one user.
	Reroute func(ctx context.Context, dev int, err error) Device
	// Backup, if set and Retry hedges, is the device a slow primary of
	// device dev is raced against.
	Backup func(dev int) Device
	// Instr, if set, is the backend's reporting bundle: every finished
	// retrieval's query record goes to it — cluster metrics, bound/SLO
	// audit, stage costs, slowest-8, wide-event ring — and its one keep
	// decision also drives tail-based trace retention and histogram
	// exemplars (see report); its tracer holds the retrieval spans. Nil
	// turns all of it off, the spans included.
	Instr *telemetry.Instruments
	// Alloc is the group allocator behind Devices (required). Its grid is
	// what bucket queries are validated and counted against, and every
	// plan is compiled under it: per-device qualified-bucket counts, which
	// decide the devices a query is sent to.
	Alloc decluster.GroupAllocator
	// Plans caches the compiled plans per query shape (required): a hit
	// skips validation, |R(q)|, the bound and the counts. It belongs to
	// this executor alone.
	Plans *plancache.Cache
}

// Executor is the single retrieval code path shared by every backend:
// plan (validate once) → bounded fan-out over Devices → merge of their
// answers. Executors are cheap and safe for concurrent use.
type Executor struct {
	schema *mkhash.File
	fs     decluster.FileSystem
	devs   []Device
	in     *telemetry.Instruments
	span   string
	alloc  decluster.GroupAllocator
	plans  *plancache.Cache
	pool   *pool
	calls  sync.Pool // recycled *call (begin, recycle)
	// owned[dev]: Devices[dev] declares (Owner) that it serves device
	// dev's buckets alone, so a plan's zero count may stand in for asking.
	owned []bool

	retry   *retry.Controller
	reroute func(ctx context.Context, dev int, err error) Device
	backup  func(dev int) Device // nil unless retry hedges
	partial bool                 // retry serves partial results
}

// Owner is implemented by a Device that serves the buckets of exactly one
// device of the allocator: the executor does not ask it for a query whose
// plan counts no qualified bucket there. A device that also answers for
// another owner (the replicated cluster's: its ring predecessor's backups,
// a zero answer when failed) does not implement it and is always asked.
type Owner interface {
	Owner() int
}

// New builds an Executor from cfg.
func New(cfg Config) (*Executor, error) {
	switch {
	case cfg.Schema == nil:
		return nil, errors.New("engine: config needs a schema")
	case cfg.Alloc == nil:
		return nil, errors.New("engine: config needs an allocator")
	case cfg.Plans == nil:
		return nil, errors.New("engine: config needs a plan cache")
	}
	fs := cfg.Alloc.FileSystem()
	if len(cfg.Devices) != fs.M {
		return nil, fmt.Errorf("engine: %d devices for an allocator over %d", len(cfg.Devices), fs.M)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = max(len(cfg.Devices), runtime.GOMAXPROCS(0))
	}
	owned := make([]bool, len(cfg.Devices))
	for dev, d := range cfg.Devices {
		o, ok := d.(Owner)
		owned[dev] = ok && o.Owner() == dev
	}
	var rc retry.Config
	if cfg.Retry != nil {
		rc = cfg.Retry.Config()
	}
	if !rc.Hedge {
		cfg.Backup = nil
	}
	return &Executor{
		owned:   owned,
		schema:  cfg.Schema,
		fs:      fs,
		devs:    cfg.Devices,
		in:      cfg.Instr,
		span:    cfg.Span,
		alloc:   cfg.Alloc,
		plans:   cfg.Plans,
		pool:    newPool(workers),
		retry:   cfg.Retry,
		reroute: cfg.Reroute,
		backup:  cfg.Backup,
		partial: rc.Partial,
	}, nil
}

// Plans returns the executor's plan cache.
func (e *Executor) Plans() *plancache.Cache { return e.plans }

// Instruments returns the executor's reporting bundle (nil without one).
func (e *Executor) Instruments() *telemetry.Instruments { return e.in }

// Retry returns the executor's retry controller (nil without one).
func (e *Executor) Retry() *retry.Controller { return e.retry }

// callKey carries the in-flight call to the device adapters — the call is
// their context, and Value answers callKey with it — which read the trace
// span off it, to attach protocol events, and the plan's shape, to
// attribute the round trip (both the netdist remote device).
type callKey struct{}

// parent is the caller's context, read under ctxMu: a deadline timer of a
// child derived from the call may look it up after the call recycled.
func (c *call) parent() context.Context {
	c.ctxMu.RLock()
	defer c.ctxMu.RUnlock()
	return c.ctx
}

func (c *call) setParent(ctx context.Context) {
	c.ctxMu.Lock()
	c.ctx = ctx
	c.ctxMu.Unlock()
}

func (c *call) Deadline() (time.Time, bool) { return c.parent().Deadline() }
func (c *call) Done() <-chan struct{}       { return c.parent().Done() }
func (c *call) Err() error                  { return c.parent().Err() }

func (c *call) Value(key any) any {
	if key == (callKey{}) {
		return c
	}
	return c.parent().Value(key)
}

// AfterFunc is what the context package calls, instead of starting a
// watcher goroutine, for a child of a call under a context type it does not
// know. f may read Err after the call recycled, so the call is pinned.
func (c *call) AfterFunc(f func()) (stop func() bool) {
	c.pinned.Store(true)
	return context.AfterFunc(c.parent(), f)
}

func callFromContext(ctx context.Context) *call {
	c, _ := ctx.Value(callKey{}).(*call)
	return c
}

// SpanFromContext returns the retrieval span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *obs.Span {
	if c := callFromContext(ctx); c != nil {
		return c.span
	}
	return nil
}

// PlanFromContext returns the retrieval's plan carried by ctx, or nil.
func PlanFromContext(ctx context.Context) *plancache.Plan {
	if c := callFromContext(ctx); c != nil {
		return c.plan
	}
	return nil
}

// planFor returns q's retrieval plan and whether it was a cache hit. The
// plan is compiled once per shape, so the fan-out and the auditor always
// agree on the strict bound, and a hit skips validation entirely: sound
// because engine queries come from Schema.BucketQueryInto, which only
// produces in-range values, and the cache belongs to this executor and
// its one allocator.
func (e *Executor) planFor(q query.Query) (*plancache.Plan, bool, error) {
	var key [16]byte // the shape of up to 16 fields stays on the stack
	return e.plans.Get(q.AppendShape(key[:0]), func() (*plancache.Plan, error) {
		if err := q.Validate(e.fs); err != nil {
			return nil, err
		}
		return plancache.Compile(e.alloc, q, 0), nil
	})
}

// callerKey carries the retrieval's caller attribution (a gateway
// tenant name, a batch job id, ...) through the context; callersKey
// carries a batch-aligned slice for a batch run on behalf of several
// callers.
type callerKey struct{}
type callersKey struct{}

// Caller is ContextWithCaller's context: retrievals under it are Name's.
// Its owner may keep it in memory it reuses once nothing reads it.
type Caller struct {
	context.Context
	Name string
}

// Value answers callerKey with c: a pointer boxes for free, a name not.
func (c *Caller) Value(key any) any {
	if key == (callerKey{}) {
		return c
	}
	return c.Context.Value(key)
}

// AfterFunc registers a child on the parent: no watcher keeps c.
func (c *Caller) AfterFunc(f func()) (stop func() bool) { return context.AfterFunc(c.Context, f) }

// ContextWithCaller returns ctx attributing retrievals to caller.
func ContextWithCaller(ctx context.Context, caller string) context.Context {
	if caller == "" {
		return ctx
	}
	return &Caller{Context: ctx, Name: caller}
}

// callerFromContext returns the caller attribution carried by ctx, or
// "".
func callerFromContext(ctx context.Context) string {
	if c, _ := ctx.Value(callerKey{}).(*Caller); c != nil {
		return c.Name
	}
	return ""
}

// ContextWithCallers returns ctx attributing the queries of a batch
// retrieval to callers, index-aligned with the batch: query i of a
// RetrieveBatch under this context is attributed to callers[i]. This is
// how a gateway drives one engine batch on behalf of many tenants and
// still gets per-tenant wide events.
func ContextWithCallers(ctx context.Context, callers []string) context.Context {
	if len(callers) == 0 {
		return ctx
	}
	return context.WithValue(ctx, callersKey{}, callers)
}

// callersFromContext returns the batch-aligned caller attributions
// carried by ctx, or nil.
func callersFromContext(ctx context.Context) []string {
	c, _ := ctx.Value(callersKey{}).([]string)
	return c
}

// call is one in-flight fan-out: per-device answer slots plus an atomic
// countdown whose last settle sends the done token (buffer 1). A waiter
// that gives up early abandons its call to the remaining tasks. Pooled
// (recycle), a call keeps its fields across queries (slots, spec array,
// span and spill buffer, chunks); only callState is zeroed.
type call struct {
	callState
	e *Executor

	done    chan struct{}
	answers []Answer
	errs    []error
	devDur  []time.Duration
	spec    [16]int
	traced  obs.Span
	counts  chunk[int] // each Result's DeviceBuckets and DeviceRecords
	records chunk[mkhash.Record]
	leases  chunk[lease]
	rels    chunk[func()]
	results chunk[Result] // a batch's results, carved from its first call

	ctxMu sync.RWMutex // the call is a context.Context over ctx (parent)
	ctx   context.Context
}

// callState is a call's per-query state, zeroed when the call recycles.
type callState struct {
	q  query.Query
	pm mkhash.PartialMatch

	started  time.Time       // retrieval entry: the plan stage starts here
	span     *obs.Span       // &traced when the executor traces, else nil
	plan     *plancache.Plan // shape, |R(q)|, bound and verdict for every report
	planHit  bool
	finished bool   // finish took the done token
	h        int    // the plan's fold of q: device dev holds plan.Count(h, dev)
	caller   string // attribution for the wide-event query log
	pending  atomic.Int64
	pinned   atomic.Bool // a child of the call is watched past its scan (AfterFunc)

	// Cost-attribution state, populated only when the executor has a
	// reporting bundle (instr true): lastStamp walks the clock from stage
	// boundary to stage boundary, stages (a window of samples) collects
	// the breakdown as each stage closes, and rec is the query record
	// while only the call reads it (report).
	instr     bool
	lastStamp time.Time
	stages    []obs.StageSample
	samples   [5]obs.StageSample // plan, fanout, merge, audit, device.scan
	rec       obs.QueryRecord
}

// chunk is the chunk (cap) a call carves one kind of Result slice from
// and what it has carved (len): the first is exactly the first window,
// each later one double the last up to 4 KB, and a larger window is its
// own make. A window is capped and never handed out twice.
type chunk[T any] []T

func (k *chunk[T]) carve(n int) []T {
	c, limit := *k, k.limit()
	if n > limit {
		return make([]T, n)
	}
	if n > cap(c)-len(c) {
		c = make([]T, 0, min(max(2*cap(c), n), limit))
	}
	*k = c[:len(c)+n]
	return c[len(c) : len(c)+n : len(c)+n]
}

// limit is the longest window a chunk carves: 4 KB of T.
func (chunk[T]) limit() int { return 4 << 10 / int(unsafe.Sizeof(*new(T))) }

// settled reports whether every device task has finished — finish took
// the done token, or the countdown reads zero: the happens-before edge
// that makes the per-device slices safe to read. An abandoned call is not.
func (c *call) settled() bool { return c.finished || c.pending.Load() == 0 }

// closeStage ends the stage that has run since the previous stage
// boundary (the retrieval's entry, for the first) and appends its wall
// time to the call's breakdown. No-op on uninstrumented calls.
func (c *call) closeStage(stage string) {
	if !c.instr {
		return
	}
	now := time.Now()
	c.stages = append(c.stages, obs.StageSample{Stage: stage, Wall: now.Sub(c.lastStamp)})
	c.lastStamp = now
}

// begin plans one query and launches its fan-out without waiting: the
// scans of the active devices — {h·g : counts[g] > 0}, and any that does
// not declare its owner — are queued on the shared pool. A device not
// asked keeps a zero answer: it reports as the device with no qualified
// bucket it is. The plan rides the call, the devices' context. A query
// that dies before fan-out has no plan, hence no record: it is reported to
// the cluster metrics alone.
func (e *Executor) begin(ctx context.Context, pm mkhash.PartialMatch, caller string) (*call, error) {
	if e.in != nil {
		e.in.Metrics.Started()
	}
	m := len(e.devs)
	c, _ := e.calls.Get().(*call) // with pooling off (mempool.SetEnabled) every call is new
	if c == nil || !mempool.Enabled() {
		c = &call{e: e, done: make(chan struct{}, 1), answers: make([]Answer, m), errs: make([]error, m), devDur: make([]time.Duration, m)}
	}
	c.setParent(ctx)
	now := time.Now()
	c.pm, c.started, c.lastStamp, c.caller, c.instr = pm, now, now, caller, e.in != nil
	// Lowering hashes the values into bucket coordinates; range
	// validation happens once per shape inside planFor, not per retrieval.
	var err error
	if c.q, err = e.schema.BucketQueryInto(pm, c.spec[:]); err == nil {
		c.plan, c.planHit, err = e.planFor(c.q)
	}
	if err != nil {
		if c.instr {
			e.in.Metrics.PlanFailed(time.Since(c.started))
		}
		return nil, err
	}
	c.stages = c.samples[:0]
	c.closeStage(obs.StagePlan)
	if c.instr && e.span != "" {
		c.span = &c.traced
		e.in.Tracer.Begin(c.span, e.span, 0, 0)
	}
	c.pending.Store(int64(m))
	c.h = c.plan.Fold(c.q)
	for dev := 0; dev < m; dev++ {
		if e.owned[dev] && c.plan.Count(c.h, dev) == 0 {
			c.settle() // not asked: its answer stays zero
			continue
		}
		e.pool.submit(task{c: c, dev: dev})
	}
	return c, nil
}

// settle marks one device finished; the last one sends the done token.
func (c *call) settle() {
	if c.pending.Add(-1) == 0 {
		c.done <- struct{}{}
	}
}

// scan is one device task: the device's scan under the executor's failure
// handling, into the call's slot for it.
func (c *call) scan(dev int) {
	defer c.settle()
	if err := c.Err(); err != nil {
		c.errs[dev] = err
		return
	}
	start := time.Now()
	c.answers[dev], c.errs[dev] = c.e.scanDevice(c, dev, c.q, c.pm)
	c.devDur[dev] = time.Since(start)
}

// consolidate turns the call's per-device answers into one Result:
// failure triage, graceful degradation, or the plain merge.
func (e *Executor) consolidate(ctx context.Context, c *call) (Result, error) {
	var failures []error
	for dev, err := range c.errs {
		if err != nil {
			failures = append(failures, &DeviceFailure{Device: dev, Err: err})
		}
	}
	if len(failures) > 0 {
		if e.partial && len(failures) < len(c.errs) && ctx.Err() == nil {
			return e.degrade(c)
		}
		discardAnswers(c.answers...)
		return Result{}, errors.Join(failures...)
	}
	return c.merge(nil), nil
}

// discardAnswers recycles the hit frames, slabs and lent memory of
// answers never merged (a retrieval failed outright, a hedge's loser).
// Only called once every device task has finished — never on an
// abandoned call — and once per answer: the call zeroes its slots when
// it recycles.
func discardAnswers(answers ...Answer) {
	for _, a := range answers {
		if a.Release != nil {
			a.Release()
		}
		hitsPool.Put(a.Hits)
		a.Found.Release()
	}
}

// merge folds the call's answers into a Result; failed[dev], when
// non-nil, marks devices whose answers are skipped.
//
// Records consolidate in one pass into a single exactly-sized window the
// caller owns — sized by summing the per-device hit counts first — and
// the per-device hit frames are drained back to the pool; encoded hits
// (Answer.Found) build through one builder reserved for them all. What
// the devices lent (Answer.Release) folds into the result's lease, carved
// like the slices; a result nothing was lent to carries none. A leased
// window too wide for a chunk is a hits slab the lease gives back.
func (c *call) merge(failed map[int]error) Result {
	m := len(c.answers)
	counts := c.counts.carve(2 * m)
	res := Result{
		DeviceBuckets: counts[:m:m], // capped: an append cannot reach DeviceRecords
		DeviceRecords: counts[m:],
	}
	total, fields, bytes, lent := 0, 0, 0, 0
	for dev := range c.answers {
		a := &c.answers[dev]
		if failed[dev] != nil {
			continue
		}
		res.DeviceBuckets[dev] = a.Buckets
		res.DeviceRecords[dev] = a.Records
		res.LargestResponseSize = max(res.LargestResponseSize, a.Buckets)
		n, f, b := a.Found.Size()
		total, fields, bytes = total+len(a.Hits)+n, fields+f, bytes+b
		if a.Release != nil {
			lent++
		}
	}
	if lent > 0 {
		res.lease = &c.leases.carve(1)[0]
		res.lease.rels = c.rels.carve(lent)[:0]
	}
	switch {
	case res.lease != nil && total > c.records.limit():
		res.lease.window = hitsPool.Get(total)
		res.Records = res.lease.window[:0:total]
	case total > 0:
		res.Records = c.records.carve(total)[:0]
	}
	var build mempool.RecordBuilder
	build.Reserve(fields, bytes)
	for dev := range c.answers {
		a := &c.answers[dev]
		if failed[dev] != nil {
			// A failed device's answer is zero by convention; discard
			// defensively in case an adapter returned one anyway.
			discardAnswers(*a)
			continue
		}
		res.Records = append(res.Records, a.Hits...)
		hitsPool.Put(a.Hits)
		_ = a.Found.Build(&build, func(r mkhash.Record) error { // fails only if fn does
			res.Records = append(res.Records, r)
			return nil
		})
		a.Found.Release()
		if a.Release != nil {
			res.lease.rels = append(res.lease.rels, a.Release)
		}
	}
	return res
}

// degrade builds the graceful-degradation answer for a partially failed
// fan-out: the merged result of the devices that answered, plus a
// *PartialError carrying the per-device error manifest and the fraction
// of |R(q)| the surviving devices covered.
func (e *Executor) degrade(c *call) (Result, error) {
	failed := make(map[int]error)
	for dev, err := range c.errs {
		if err != nil {
			failed[dev] = err
		}
	}
	res := c.merge(failed)
	covered := 0
	for _, b := range res.DeviceBuckets {
		covered += b
	}
	coverage := 1.0
	if rq := c.plan.RQ; rq > 0 {
		coverage = float64(covered) / float64(rq)
		coverage = min(coverage, 1)
	}
	c.span.Event(fmt.Sprintf("degraded: %d device(s) failed, coverage %.3f", len(failed), coverage))
	e.retry.Degraded(coverage)
	perr := &PartialError{Res: res, Failed: failed, Coverage: coverage}
	return res, perr
}

// report is the executor's one reporting path. It closes the call's
// span, builds the retrieval's single QueryRecord — shape, |R(q)|, bound
// and verdict from the plan, plus the devices whose answers disagree
// with it — and takes it through the bundle's three steps:
//
//  1. Audit — cluster metrics and the bound/placement/SLO audit, on
//     scalars and the merged bucket counts, inside the audit stage;
//  2. the audit stage closes, and Decide rules once, on scalars, whether
//     the record is kept. Only a kept query (or a flight) copies the
//     call's record and stages to the heap, one object, and pays for
//     per-device detail, error text (and, a flight, the span's events);
//  3. Commit — the sealed, immutable record goes to the store, which
//     keeps only a kept copy: the call's own record goes back with it.
//
// The same decision retains the trace and, for a retained one, gives the
// latency histogram an exemplar: bucket → trace ID → kept tree → event.
func (e *Executor) report(c *call, res Result, err error) {
	if err != nil {
		c.span.Event("error: " + err.Error())
	}
	c.span.End()
	in := e.in
	if in == nil {
		return
	}
	p := c.plan
	rec := &c.rec
	*rec = obs.QueryRecord{
		Backend:           in.Backend,
		Shape:             p.Shape,
		Tenant:            c.caller,
		TraceID:           c.span.Trace(),
		Start:             c.started,
		Elapsed:           time.Since(c.started),
		PlanCacheHit:      c.planHit,
		RQ:                p.RQ,
		Bound:             p.Bound,
		MaxDeviceBuckets:  p.MaxLoad,
		BoundViolation:    p.Violates(),
		WorstDevice:       p.WorstDevice(c.h),
		MismatchedDevices: c.mismatched(),
		DeviceBuckets:     res.DeviceBuckets, // the Audit step's; a kept copy drops it
		Failed:            err != nil,
	}
	var failed map[int]error
	if err != nil {
		var pe *PartialError
		if errors.As(err, &pe) {
			rec.Partial, rec.Coverage, failed = true, pe.Coverage, pe.Failed
		}
	}
	in.Audit(rec)

	c.closeStage(obs.StageAudit)
	rec.Elapsed = c.lastStamp.Sub(c.started)
	dec := in.Decide(rec)
	keep := dec.Kept || dec.Flight
	rec.Stages = c.stages
	if keep {
		kept := &keptRecord{QueryRecord: *rec}
		kept.DeviceBuckets = nil // the caller's: rec.Devices is the kept detail
		kept.Stages = kept.stages[:copy(kept.stages[:], c.stages)]
		rec = &kept.QueryRecord
	}
	// Both windows have room for device.scan: c.samples or kept.stages.
	rec.Stages = append(rec.Stages, obs.StageSample{Stage: obs.StageDeviceScan, Wall: c.deviceDetail(rec, keep)})
	if dec.Flight {
		// The span's annotation log is slow-query evidence: a shape holds a
		// handful of flights, the event ring up to a thousand records.
		rec.Events = c.span.Snapshot().Events
	}
	if keep {
		if err != nil {
			rec.Err = err.Error()
		}
		for dev := range failed {
			rec.FailedDevices = append(rec.FailedDevices, dev)
		}
		sort.Ints(rec.FailedDevices)
	}
	in.Commit(rec, dec)

	// Always-keep reasons lead Keep, so the tree is filed under the
	// strongest one.
	if dec.Kept && in.Tracer.Retain(rec.TraceID, rec.Keep[0]) {
		in.Metrics.Exemplar(rec)
	}
}

// keptRecord is a kept query's record and its Stages' array: one object.
type keptRecord struct {
	obs.QueryRecord
	stages [5]obs.StageSample
}

// mismatched returns the devices that declare their owner (a replicated
// one does not), did not fail, and answered for other buckets than the
// plan gives them; it allocates only for those, reads no unsettled call.
func (c *call) mismatched() (devs []int) {
	if !c.settled() {
		return nil
	}
	for dev, owned := range c.e.owned {
		if owned && c.errs[dev] == nil && c.answers[dev].Buckets != c.plan.Count(c.h, dev) {
			devs = append(devs, dev)
		}
	}
	return devs
}

// deviceDetail is the reporting path's reader of the call's per-device
// slices besides mismatched. An abandoned call's stragglers may still be
// writing them, so nothing is read unless the call settled: an unsettled
// call reports no per-device detail at all. It returns the summed scan
// time (the device.scan stage) and, when the query is kept, materialises
// rec.Devices.
func (c *call) deviceDetail(rec *obs.QueryRecord, keep bool) (scan time.Duration) {
	if !c.settled() {
		return 0
	}
	for _, d := range c.devDur {
		scan += d
	}
	if !keep {
		return scan
	}
	rec.Devices = make([]obs.QueryDevice, len(c.answers))
	for dev := range rec.Devices {
		d := obs.QueryDevice{Device: dev, Buckets: c.answers[dev].Buckets, Scan: c.devDur[dev]}
		if c.errs[dev] != nil {
			d.Err = c.errs[dev].Error()
		}
		rec.Devices[dev] = d
	}
	return scan
}

// seal stamps the call's trace ID onto the result and, on failure, wraps
// the error so log lines carry the trace ID.
func (c *call) seal(res Result, err error) (Result, error) {
	tid := c.span.Trace()
	res.TraceID = tid
	if err != nil {
		if pe, ok := err.(*PartialError); ok {
			pe.Res.TraceID = tid
		}
		if tid != 0 {
			err = &TracedError{TraceID: tid, Err: err}
		}
	}
	return res, err
}

// recycle zeroes the call and pools it once every device task finished.
// An abandoned call (stragglers may still write it) or a pinned one (a
// watcher may read it) is left to the collector: safe, just unrecycled.
func (e *Executor) recycle(c *call) {
	if !c.settled() || c.pinned.Load() || !mempool.Enabled() {
		return
	}
	if !c.finished {
		<-c.done // the last settle's token, sent after finish stopped waiting
	}
	clear(c.answers)
	clear(c.errs)
	clear(c.devDur)
	c.setParent(context.Background())
	c.callState = callState{}
	e.calls.Put(c)
}

// finish blocks until every device task of a launched call finished or
// ctx is cancelled, then turns the call into the caller's result: merge,
// report, seal, recycle. On cancellation it returns promptly with ctx's
// error; stragglers drain into the abandoned call and exit on their next
// context check. The fanout stage is the wait here, merge what follows.
func (e *Executor) finish(ctx context.Context, c *call) (res Result, err error) {
	select {
	case <-c.done:
		c.finished = true
	case <-ctx.Done():
		err = ctx.Err()
	}
	c.closeStage(obs.StageFanout)
	if err == nil {
		res, err = e.consolidate(ctx, c)
	}
	c.closeStage(obs.StageMerge)
	e.report(c, res, err)
	res, err = c.seal(res, err)
	e.recycle(c)
	return res, err
}

// Retrieve answers one value-level partial match query: validate once,
// fan out the active devices' inverse-mapped scans on the bounded pool,
// merge their answers. Cancelling ctx returns promptly with its
// error.
func (e *Executor) Retrieve(ctx context.Context, pm mkhash.PartialMatch) (Result, error) {
	c, err := e.begin(ctx, pm, callerFromContext(ctx))
	if err != nil {
		return Result{}, err
	}
	return e.finish(ctx, c)
}

// QueryError is one failed query of a batch retrieval: its index in the
// batch and the cause. A batch's error is the errors.Join of one per
// failed query, so a caller serving many waiters from one batch can
// hand each its own failure (errors.As) and leave the rest untouched.
type QueryError struct {
	Index int
	Err   error
}

func (e *QueryError) Error() string { return fmt.Sprintf("query %d: %v", e.Index, e.Err) }
func (e *QueryError) Unwrap() error { return e.Err }

// RetrieveBatch answers a batch of queries over the shared worker pool:
// every query's fan-out is launched up front, so devices pipeline across
// queries instead of idling at per-query barriers. Each query gets its
// own trace span and query record. Queries sharing a shape are
// deduped through the plan cache: the first occurrence compiles, the
// rest reuse its plan. The returned slice always has one Result per
// query; a failed query's is zero unless it degraded (PartialError:
// Release it), and it adds a *QueryError to the joined error.
func (e *Executor) RetrieveBatch(ctx context.Context, pms []mkhash.PartialMatch) ([]Result, error) {
	// The per-query error and call slices come from the pools, and each
	// finished query's call goes back before the next one completes.
	errs := errsPool.Get(len(pms))
	calls := callsPool.Get(len(pms))
	callers := callersFromContext(ctx)
	defCaller := callerFromContext(ctx)
	for i, pm := range pms {
		caller := defCaller
		if i < len(callers) {
			caller = callers[i]
		}
		calls[i], errs[i] = e.begin(ctx, pm, caller)
	}
	var results []Result
	if len(calls) > 0 && calls[0] != nil { // not finished: still this batch's alone
		results = calls[0].results.carve(len(pms))
	} else {
		results = make([]Result, len(pms))
	}
	for i, c := range calls {
		if c != nil {
			results[i], errs[i] = e.finish(ctx, c)
		}
	}
	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, &QueryError{Index: i, Err: err})
		}
	}
	errsPool.Put(errs)
	callsPool.Put(calls)
	if len(joined) > 0 {
		return results, errors.Join(joined...)
	}
	return results, nil
}
