package fxdist

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"fxdist/internal/audit"
	"fxdist/internal/engine"
	"fxdist/internal/netdist"
	"fxdist/internal/plancache"
	"fxdist/internal/rebalance"
	"fxdist/internal/resilience"
	"fxdist/internal/retry"
	"fxdist/internal/storage"
	"fxdist/internal/telemetry"
)

// Config selects what Open builds. Exactly one backend kind is implied
// by which fields are set:
//
//	File + Allocator                    in-memory cluster
//	File + Allocator + WithReplication  replicated in-memory cluster
//	Dir + File + Allocator              durable cluster, created under Dir
//	Dir                                 durable cluster, reopened from Dir
//	Addrs + File                        distributed coordinator (File is
//	                                    the schema; it may hold no records;
//	                                    the servers describe the allocator)
type Config struct {
	// File is the multi-key hashed file: schema plus records for the
	// in-memory kinds, schema only for the coordinator.
	File *File
	// Allocator is the declustering method, built for File's directory
	// sizes. Required except when reopening a durable cluster (its
	// allocator spec lives in the metadata snapshot) or dialing servers:
	// they describe the allocator they serve under, and one given here is
	// checked against theirs.
	Allocator GroupAllocator
	// Dir, when set, selects the durable backend rooted at this
	// directory.
	Dir string
	// Addrs, when set, selects the distributed backend; Addrs[i] must
	// serve device i.
	Addrs []string
}

// openSettings accumulates the functional options of Open.
type openSettings struct {
	model       CostModel
	modelSet    bool
	replicated  bool
	replicaMode ReplicaMode
	dialTimeout time.Duration
	failover    bool
	sloSet      bool
	slo         LatencySLO
	fileOpts    []FileOption
	rescaleJrnl string
	dialEpoch   int

	// Resilience (see resilience.go for the options).
	resilSet   bool
	retryCfg   retry.Config
	injector   *FaultInjector
	probeEvery time.Duration
	statsEvery time.Duration
}

// storageOpts lowers the resilience settings onto a local backend (its
// kind names the controller on /debug/resilience).
func (s *openSettings) storageOpts() []storage.Option {
	var opts []storage.Option
	if s.resilSet {
		opts = append(opts, storage.WithRetry(s.retryCfg))
	}
	if s.injector != nil {
		opts = append(opts, storage.WithInjector(s.injector))
	}
	return opts
}

// Option configures Open.
type Option func(*openSettings)

// WithCostModel prices each device's simulated work (default
// MainMemory). The coordinator backend attaches no cost model; the
// option is ignored there. Set by pmquery and fxpaper store|check.
func WithCostModel(m CostModel) Option {
	return func(s *openSettings) { s.model, s.modelSet = m, true }
}

// ReplicaMode selects the failover policy of a replicated cluster.
type ReplicaMode = storage.ReplicaMode

// Failover policies.
const (
	// ChainedFailover spreads a failed device's load around the ring
	// (max per-device load M/(M-1) of normal).
	ChainedFailover = storage.Chained
	// NaiveFailover serves all of a failed device's buckets from its one
	// backup holder (max load 2x normal).
	NaiveFailover = storage.Naive
)

// WithReplication selects the replicated in-memory backend: every
// bucket is stored on its primary device and the ring successor, under
// the given failover mode (e.g. ChainedFailover). Library API,
// exercised by TestPoolingDifferentialAcrossBackends.
func WithReplication(mode ReplicaMode) Option {
	return func(s *openSettings) { s.replicated, s.replicaMode = true, mode }
}

// WithDialTimeout bounds each per-device request of the distributed
// backend; zero (the default) waits indefinitely. Library API,
// exercised by TestPublicReplicatedFailover.
func WithDialTimeout(d time.Duration) Option {
	return func(s *openSettings) { s.dialTimeout = d }
}

// WithStatsPull makes the distributed backend's coordinator pull every
// device server's metrics snapshot each interval, keeping the federated
// fleet view on /debug/cluster fresh. Ignored on other backend kinds.
// Set by fxnode query -stats-pull.
func WithStatsPull(interval time.Duration) Option {
	return func(s *openSettings) { s.statsEvery = interval }
}

// WithFailover puts the ring-successor reroute on every retrieval of
// the distributed backend: when a device's server is unreachable, its
// successor answers from the backup copy (requires servers deployed
// with replication, e.g. DeployReplicatedLocal). The
// choice is made once, when Open dials, and holds for every retrieval
// the cluster serves — single, batched, behind a gate, or inside a
// rescale window. Set by examples/distributed.
func WithFailover() Option {
	return func(s *openSettings) { s.failover = true }
}

// WithLatencySLO sets the default latency objective for every query
// shape of the cluster's backend: at least goal (e.g. 0.99) of queries
// must complete within target. Per-shape overrides go through
// Cluster.SetShapeLatencySLO. Set by fxnode query -slo and fxgate -slo.
func WithLatencySLO(target time.Duration, goal float64) Option {
	return func(s *openSettings) { s.sloSet, s.slo = true, LatencySLO{Target: target, Goal: goal} }
}

// WithFileOptions passes file options (e.g. WithFieldHash) through to
// the schema reconstruction when reopening a durable cluster whose file
// was built with custom field hashes. Library API; its lowering,
// storage.WithFileOptions, is exercised by TestCheckDetectsHashMismatch.
func WithFileOptions(opts ...FileOption) Option {
	return func(s *openSettings) { s.fileOpts = append(s.fileOpts, opts...) }
}

// WithRescale sets the default journal path for live rescales started
// with Cluster.Rescale: migration progress persists there, so a
// coordinator killed mid-rescale resumes from the journal instead of
// re-streaming every bucket. Only meaningful on the distributed
// backend. Set by fxnode rescale -journal.
func WithRescale(journalPath string) Option {
	return func(s *openSettings) { s.rescaleJrnl = journalPath }
}

// WithDialEpoch pins the distributed coordinator's requests to the
// fleet's serving epoch. Every completed live rescale advances the
// servers' epoch by one, and servers reject requests naming any other
// epoch (a stale coordinator fanning out over the pre-rescale device
// set would otherwise silently return partial answers). A coordinator
// that lived through the rescale is re-pinned automatically; use this
// to dial a fleet from a fresh process after n rescales. Zero, the
// default, matches a fleet that has never rescaled. Set by fxnode
// query -epoch and scripts/rescale_chaos.go.
func WithDialEpoch(epoch int) Option {
	return func(s *openSettings) { s.dialEpoch = epoch }
}

// backend is what the facade needs of a cluster kind to serve queries
// and report on them. All four kinds retrieve through their own
// engine.Executor and build their own instruments, so their method sets
// already agree; the typed accessors reach everything else.
type backend interface {
	RetrieveContext(ctx context.Context, pm PartialMatch) (RetrieveResult, error)
	RetrieveBatch(ctx context.Context, pms []PartialMatch) ([]RetrieveResult, error)
	M() int
	PlanCache() *plancache.Cache
	Instruments() *telemetry.Instruments
	Resilience() resilience.Snapshot
}

var (
	_ backend = (*MemoryCluster)(nil)
	_ backend = (*DurableCluster)(nil)
	_ backend = (*ReplicatedCluster)(nil)
	_ backend = (*Coordinator)(nil)
)

// Cluster is the unified handle over every backend kind — in-memory,
// replicated, durable, distributed — built by Open. All kinds retrieve
// through the same engine executor and plan cache, so the handle offers
// one surface: RetrieveContext (canonical), Retrieve, RetrieveBatch,
// SLO and audit knobs, and plan-cache introspection. Backend-specific
// operations (durable inserts, replica failure injection, coordinator
// stats pulls) are reachable through the typed accessors Memory, Durable,
// Replicated and Coordinator.
type Cluster struct {
	kind string
	file *File // schema source; nil only for reopened durable clusters

	// coordMu guards be, the one reference to the kind's cluster value.
	// Only the distributed kind ever rewrites it: Rescale swaps in the
	// new epoch's coordinator at cutover while retrievals are in flight.
	coordMu sync.RWMutex
	be      backend

	// resc is the live rescale, nil outside a rescale window; its
	// routing intercepts retrievals during dual-read. rescaleJournal is
	// the default journal path (WithRescale); dialOpts are the options
	// the coordinator was dialed with, reused for the new epoch's
	// coordinator so timeouts, the failure handling (failover, retry
	// budgets), result ownership and injectors survive a rescale.
	resc           atomic.Pointer[Rescale]
	rescaleJournal string
	dialOpts       []DialOption
	// driver is the cluster's latest rescale's migration driver, which
	// /debug/rescale reports and steers; nil before the first.
	driver atomic.Pointer[rebalance.Driver]
}

// Backend kinds reported by Cluster.Kind.
const (
	KindMemory     = "memory"
	KindDurable    = "durable"
	KindReplicated = "replicated"
	KindNetdist    = "netdist"
)

// Open builds a cluster of the backend kind cfg implies (see Config)
// and applies the options. It is the single entry point for every
// backend (the pre-Open constructor zoo — NewCluster, DialCluster and
// friends — was removed after a deprecation cycle; see README for the
// migration table).
func Open(cfg Config, opts ...Option) (*Cluster, error) {
	var s openSettings
	for _, opt := range opts {
		opt(&s)
	}
	model := MainMemory
	if s.modelSet {
		model = s.model
	}

	c := &Cluster{file: cfg.File}
	switch {
	case len(cfg.Addrs) > 0:
		if cfg.Dir != "" || s.replicated {
			return nil, errors.New("fxdist: Addrs selects the distributed backend; it cannot combine with Dir or WithReplication")
		}
		if cfg.File == nil {
			return nil, errors.New("fxdist: the distributed backend needs Config.File as the query schema")
		}
		var dialOpts []DialOption
		if s.dialTimeout > 0 {
			dialOpts = append(dialOpts, WithRequestTimeout(s.dialTimeout))
		}
		if s.resilSet {
			dialOpts = append(dialOpts, netdist.WithResilience(s.retryCfg))
		}
		if s.injector != nil {
			dialOpts = append(dialOpts, netdist.WithInjector(s.injector))
		}
		if s.failover {
			dialOpts = append(dialOpts, netdist.WithFailover())
		}
		if s.dialEpoch > 0 {
			dialOpts = append(dialOpts, netdist.WithEpoch(s.dialEpoch))
		}
		if cfg.Allocator != nil {
			spec, err := DescribeAllocator(cfg.Allocator)
			if err != nil {
				return nil, err
			}
			dialOpts = append(dialOpts, netdist.WithSpec(spec))
		}
		coord, err := netdist.Dial(cfg.File, cfg.Addrs, dialOpts...)
		if err != nil {
			return nil, err
		}
		if s.probeEvery > 0 {
			coord.StartHealthProbes(s.probeEvery)
		}
		if s.statsEvery > 0 {
			coord.StartStatsPull(s.statsEvery)
		}
		c.kind, c.be = KindNetdist, coord
		c.rescaleJournal = s.rescaleJrnl
		c.dialOpts = dialOpts

	case cfg.Dir != "":
		if s.replicated {
			return nil, errors.New("fxdist: the durable backend does not support WithReplication")
		}
		if cfg.File != nil {
			if cfg.Allocator == nil {
				return nil, errors.New("fxdist: creating a durable cluster needs Config.Allocator")
			}
			dur, err := storage.CreateDurable(cfg.Dir, cfg.File, cfg.Allocator, model, s.storageOpts()...)
			if err != nil {
				return nil, err
			}
			c.kind, c.be = KindDurable, dur
		} else {
			sopts := append(s.storageOpts(), storage.WithFileOptions(s.fileOpts...))
			dur, err := storage.OpenDurable(cfg.Dir, model, sopts...)
			if err != nil {
				return nil, err
			}
			c.kind, c.be = KindDurable, dur
		}

	case s.replicated:
		if cfg.File == nil || cfg.Allocator == nil {
			return nil, errors.New("fxdist: the replicated backend needs Config.File and Config.Allocator")
		}
		repl, err := storage.NewReplicated(cfg.File, cfg.Allocator, s.replicaMode, model, s.storageOpts()...)
		if err != nil {
			return nil, err
		}
		c.kind, c.be = KindReplicated, repl

	default:
		if cfg.File == nil || cfg.Allocator == nil {
			return nil, errors.New("fxdist: the in-memory backend needs Config.File and Config.Allocator")
		}
		mem, err := storage.NewCluster(cfg.File, cfg.Allocator, model, s.storageOpts()...)
		if err != nil {
			return nil, err
		}
		c.kind, c.be = KindMemory, mem
	}

	if s.sloSet {
		c.SetLatencySLO(s.slo.Target, s.slo.Goal)
	}
	openClusters.Lock()
	openClusters.set[c] = struct{}{}
	openClusters.Unlock()
	return c, nil
}

// openClusters is the set of clusters Open built and Close has not
// closed yet. It backs ResetCostProfilers and QueryLogStatsFor, the two
// process-wide calls bench/fxload makes, and nothing else: every other
// report is one cluster's own.
var openClusters = struct {
	sync.Mutex
	set map[*Cluster]struct{}
}{set: make(map[*Cluster]struct{})}

// eachOpen runs f on every open cluster.
func eachOpen(f func(c *Cluster)) {
	openClusters.Lock()
	all := make([]*Cluster, 0, len(openClusters.set))
	for c := range openClusters.set {
		all = append(all, c)
	}
	openClusters.Unlock()
	for _, c := range all {
		f(c)
	}
}

// Kind returns the backend kind: "memory", "durable", "replicated" or
// "netdist".
func (c *Cluster) Kind() string { return c.kind }

// Memory returns the underlying in-memory cluster, nil for other kinds.
func (c *Cluster) Memory() *MemoryCluster { return as[*MemoryCluster](c) }

// Durable returns the underlying durable cluster, nil for other kinds.
func (c *Cluster) Durable() *DurableCluster { return as[*DurableCluster](c) }

// Replicated returns the underlying replicated cluster, nil for other
// kinds.
func (c *Cluster) Replicated() *ReplicatedCluster { return as[*ReplicatedCluster](c) }

// Coordinator returns the underlying distributed coordinator, nil for
// other kinds. During a rescale the handle is swapped at cutover; see
// Cluster.Rescale.
func (c *Cluster) Coordinator() *Coordinator { return as[*Coordinator](c) }

// backend reads the serving backend under the swap lock.
func (c *Cluster) backend() backend {
	c.coordMu.RLock()
	defer c.coordMu.RUnlock()
	return c.be
}

// as is the serving backend as its concrete kind T, nil for the others.
func as[T backend](c *Cluster) T {
	t, _ := c.backend().(T)
	return t
}

// M returns the device count.
func (c *Cluster) M() int { return c.backend().M() }

// Spec builds a value-level partial match query against the cluster's
// schema: pairs of (field name, value); unmentioned fields are
// unspecified.
func (c *Cluster) Spec(pairs map[string]string) (PartialMatch, error) {
	if dur := c.Durable(); dur != nil {
		return dur.Spec(pairs)
	}
	return c.file.Spec(pairs)
}

// RetrieveContext answers one value-level partial match query. It is
// the canonical retrieval entry point on every backend kind; Retrieve
// is its context.Background() wrapper. The distributed backend carries
// no cost model, so its results leave Response, TotalWork and
// DeviceTime zero. A degraded retrieval (WithPartialResults) carries the
// surviving devices' answer alongside its PartialResult error.
func (c *Cluster) RetrieveContext(ctx context.Context, pm PartialMatch) (RetrieveResult, error) {
	// A live rescale window intercepts retrievals: dual reads while
	// both epochs serve, new-epoch reads once the old one drains.
	if r := c.resc.Load(); r != nil {
		if res, err, handled := r.retrieve(ctx, pm); handled {
			return res, err
		}
	}
	return c.backend().RetrieveContext(ctx, pm)
}

// Retrieve is RetrieveContext with context.Background().
func (c *Cluster) Retrieve(pm PartialMatch) (RetrieveResult, error) {
	return c.RetrieveContext(context.Background(), pm)
}

// RetrieveBatch answers a batch of queries, pipelining their fan-outs
// over the shared worker pool (see engine.Executor.RetrieveBatch).
// Queries sharing a shape reuse one cached plan. The slice always has
// one result per query; a failed query's is zero and its failure is a
// *QueryError in the joined error.
func (c *Cluster) RetrieveBatch(ctx context.Context, pms []PartialMatch) ([]RetrieveResult, error) {
	// During a rescale window, run the batch query-by-query through
	// the epoch-aware path (dual reads don't batch across epochs). One
	// query's failure is its own: the rest of the batch still runs. Each
	// query keeps its own caller (ContextWithCallers), so a gate round's
	// wide events carry their tenants through the window too.
	if r := c.resc.Load(); r != nil && r.intercepting() {
		out := make([]RetrieveResult, len(pms))
		var failed []error
		callers := engine.CallersFromContext(ctx)
		for i, pm := range pms {
			qctx := ctx
			if i < len(callers) {
				qctx = ContextWithCaller(ctx, callers[i])
			}
			res, err := c.RetrieveContext(qctx, pm)
			if err != nil {
				failed = append(failed, &QueryError{Index: i, Err: err})
				continue
			}
			out[i] = res
		}
		return out, errors.Join(failed...)
	}
	return c.backend().RetrieveBatch(ctx, pms)
}

// Close releases the backend's resources: its plan cache on every kind,
// plus device logs for durable clusters and server connections for
// coordinators.
func (c *Cluster) Close() error {
	openClusters.Lock()
	delete(openClusters.set, c)
	openClusters.Unlock()
	switch be := c.backend().(type) {
	case *Coordinator:
		if r := c.resc.Load(); r != nil {
			r.closeNew()
		}
		be.Close()
	case interface{ Close() error }: // memory, replicated, durable
		return be.Close()
	}
	return nil
}

// PlanCacheStats is a point-in-time snapshot of one cluster's plan
// cache: hit/miss/eviction counters and the resident plans.
type PlanCacheStats = plancache.Snapshot

// PlanCache snapshots the cluster's plan cache.
func (c *Cluster) PlanCache() PlanCacheStats { return c.backend().PlanCache().Stats() }

// SetLatencySLO sets the default latency objective for every query
// shape this cluster serves: at least goal (e.g. 0.99) of queries must
// complete within target. It is this cluster's alone; during a rescale
// it reaches the new epoch too, whose bundle becomes the cluster's at
// cutover.
func (c *Cluster) SetLatencySLO(target time.Duration, goal float64) {
	for _, in := range c.bundles() {
		in.SetSLO(audit.SLO{Target: target, Goal: goal})
	}
}

// SetShapeLatencySLO overrides the latency objective for one query
// shape of this cluster.
func (c *Cluster) SetShapeLatencySLO(shape string, target time.Duration, goal float64) {
	for _, in := range c.bundles() {
		in.SetShapeSLO(shape, audit.SLO{Target: target, Goal: goal})
	}
}

// bundles are the reporting bundles an objective set now must reach:
// the serving backend's, and a live rescale's new epoch's.
func (c *Cluster) bundles() []*telemetry.Instruments {
	ins := []*telemetry.Instruments{c.backend().Instruments()}
	if r := c.resc.Load(); r != nil {
		ins = append(ins, r.newCoord.Instruments())
	}
	return ins
}

// OptimalityReport snapshots this cluster's strict-optimality audit:
// per-shape violation counts against the paper's ceil(|R(q)|/M) bound
// and SLO state.
func (c *Cluster) OptimalityReport() BackendAudit {
	return c.backend().Instruments().AuditReport()
}

// BurnRate is one query shape's current SLO burn rate on this cluster
// (OptimalityReport's slo_burn_rate for the shape, without the report):
// the number a front door's admission control reads per request. 0
// without an objective or before the shape was served.
func (c *Cluster) BurnRate(shape string) float64 { return c.backend().Instruments().BurnRate(shape) }
