package fxdist

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"fxdist/internal/audit"
	"fxdist/internal/netdist"
	"fxdist/internal/plancache"
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
//	                                    the schema; it may hold no records)
type Config struct {
	// File is the multi-key hashed file: schema plus records for the
	// in-memory kinds, schema only for the coordinator.
	File *File
	// Allocator is the declustering method, built for File's directory
	// sizes. Required except when reopening a durable cluster (its
	// allocator spec lives in the metadata snapshot) or dialing servers
	// (they run their own inverse mapping).
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
	shapeSLOs   map[string]LatencySLO
	cacheSize   int // 0 = default, < 0 = disabled
	fileOpts    []FileOption
	noPool      bool
	arena       bool
	rescaleJrnl string
	dialEpoch   int

	// Resilience (see resilience.go for the options).
	resilSet    bool
	retryCfg    retry.Config
	faultSet    bool
	faultSeed   int64
	faultScheds map[int]FaultSchedule
	injector    *FaultInjector
	probeEvery  time.Duration
	statsEvery  time.Duration
}

// storageOpts lowers the resilience settings onto one local backend
// kind (the kind names the controller and injector on
// /debug/resilience).
func (s *openSettings) storageOpts(kind string) []storage.Option {
	var opts []storage.Option
	if s.resilSet {
		opts = append(opts, storage.WithRetry(s.retryCfg))
	}
	if in := s.buildInjector(kind); in != nil {
		opts = append(opts, storage.WithInjector(in))
	}
	if s.noPool {
		opts = append(opts, storage.WithoutMemPool())
	}
	if s.arena {
		opts = append(opts, storage.WithArenaResults())
	}
	return opts
}

func (s *openSettings) buildInjector(kind string) *FaultInjector {
	if s.injector != nil {
		return s.injector
	}
	if s.faultSet {
		return NewFaultInjector(kind, s.faultSeed, s.faultScheds)
	}
	return nil
}

// Option configures Open.
type Option func(*openSettings)

// WithCostModel prices each device's simulated work (default
// MainMemory). The coordinator backend attaches no cost model; the
// option is ignored there.
func WithCostModel(m CostModel) Option {
	return func(s *openSettings) { s.model, s.modelSet = m, true }
}

// WithReplication selects the replicated in-memory backend: every
// bucket is stored on its primary device and the ring successor, under
// the given failover mode (e.g. ChainedFailover).
func WithReplication(mode ReplicaMode) Option {
	return func(s *openSettings) { s.replicated, s.replicaMode = true, mode }
}

// WithDialTimeout bounds each per-device request of the distributed
// backend; zero (the default) waits indefinitely.
func WithDialTimeout(d time.Duration) Option {
	return func(s *openSettings) { s.dialTimeout = d }
}

// WithStatsPull makes the distributed backend's coordinator pull every
// device server's metrics snapshot each interval, keeping the federated
// fleet view on /debug/cluster fresh. Ignored on other backend kinds.
func WithStatsPull(interval time.Duration) Option {
	return func(s *openSettings) { s.statsEvery = interval }
}

// WithFailover routes the distributed backend's retrievals through the
// ring-successor retry policy: when a device's server is unreachable,
// its successor answers from the backup copy (requires servers deployed
// with replication, e.g. DeployReplicatedLocal).
func WithFailover() Option {
	return func(s *openSettings) { s.failover = true }
}

// WithLatencySLO sets the default latency objective for every query
// shape of the cluster's backend: at least goal (e.g. 0.99) of queries
// must complete within target.
func WithLatencySLO(target time.Duration, goal float64) Option {
	return func(s *openSettings) { s.sloSet, s.slo = true, LatencySLO{Target: target, Goal: goal} }
}

// WithShapeLatencySLO overrides the latency objective for one query
// shape ('s' per specified field, '*' per unspecified — e.g. "s**").
func WithShapeLatencySLO(shape string, target time.Duration, goal float64) Option {
	return func(s *openSettings) {
		if s.shapeSLOs == nil {
			s.shapeSLOs = make(map[string]LatencySLO)
		}
		s.shapeSLOs[shape] = LatencySLO{Target: target, Goal: goal}
	}
}

// WithPlanCacheSize bounds the cluster's plan cache to n shapes
// (LRU-evicted beyond it). n = 0 keeps the default (256); n < 0
// disables the cache entirely, taking the uncached retrieval path.
func WithPlanCacheSize(n int) Option {
	return func(s *openSettings) {
		if n < 0 {
			s.cacheSize = -1
		} else {
			s.cacheSize = n
		}
	}
}

// WithoutPlanCache disables the cluster's plan cache; equivalent to
// WithPlanCacheSize(-1).
func WithoutPlanCache() Option { return WithPlanCacheSize(-1) }

// WithFileOptions passes file options (e.g. WithFieldHash) through to
// the schema reconstruction when reopening a durable cluster whose file
// was built with custom field hashes.
func WithFileOptions(opts ...FileOption) Option {
	return func(s *openSettings) { s.fileOpts = append(s.fileOpts, opts...) }
}

// WithoutMemPool disables the cluster's buffer pools on every backend
// kind: hit frames, fan-out scratch, page frames, wire frames, and
// decode arenas all fall back to plain allocation. Results are
// byte-identical either way — this is the A/B switch for differential
// testing and for ruling pooling out when chasing a corruption bug.
func WithoutMemPool() Option {
	return func(s *openSettings) { s.noPool = true }
}

// WithArenaResults opts into zero-copy result ownership: retrievals
// lease their record slabs from the pools, and the caller returns them
// with RetrieveResult.Release once done reading. After Release the
// Records (and, on the durable and distributed backends, the field
// strings they point at) are invalid. Callers that never Release simply
// fall back to the garbage collector — correct, just slower. Ignored
// under WithoutMemPool. Without this option results are plain
// caller-owned allocations and Release is a no-op.
func WithArenaResults() Option {
	return func(s *openSettings) { s.arena = true }
}

// WithRescale sets the default journal path for live rescales started
// with Cluster.Rescale: migration progress persists there, so a
// coordinator killed mid-rescale resumes from the journal instead of
// re-streaming every bucket. Only meaningful on the distributed
// backend.
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
// default, matches a fleet that has never rescaled.
func WithDialEpoch(epoch int) Option {
	return func(s *openSettings) { s.dialEpoch = epoch }
}

// Cluster is the unified handle over every backend kind — in-memory,
// replicated, durable, distributed — built by Open. All kinds retrieve
// through the same engine executor and plan cache, so the handle offers
// one surface: RetrieveContext (canonical), Retrieve, RetrieveBatch,
// SLO and audit knobs, and plan-cache introspection. Backend-specific
// operations (durable inserts, replica failure injection, distributed
// failover) are reachable through the typed accessors Memory, Durable,
// Replicated and Coordinator.
type Cluster struct {
	kind     string
	file     *File // schema source; nil only for reopened durable clusters
	mem      *MemoryCluster
	dur      *DurableCluster
	repl     *ReplicatedCluster
	failover bool

	// coordMu guards coord, which Rescale swaps at cutover while
	// retrievals are in flight.
	coordMu sync.RWMutex
	coord   *Coordinator

	// resc is the live rescale, nil outside a rescale window; its
	// routing intercepts retrievals during dual-read. rescaleJournal is
	// the default journal path (WithRescale); dialOpts are the options
	// the coordinator was dialed with, reused for the new epoch's
	// coordinator so timeouts, retry budgets, pooling and injectors
	// survive a rescale.
	resc           atomic.Pointer[Rescale]
	rescaleJournal string
	dialOpts       []DialOption
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
		if in := s.buildInjector(KindNetdist); in != nil {
			dialOpts = append(dialOpts, netdist.WithInjector(in))
		}
		if s.noPool {
			dialOpts = append(dialOpts, netdist.WithoutMemPool())
		}
		if s.arena {
			dialOpts = append(dialOpts, netdist.WithArenaResults())
		}
		if s.dialEpoch > 0 {
			dialOpts = append(dialOpts, netdist.WithEpoch(s.dialEpoch))
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
		c.kind, c.coord, c.failover = KindNetdist, coord, s.failover
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
			dur, err := storage.CreateDurable(cfg.Dir, cfg.File, cfg.Allocator, model, s.storageOpts(KindDurable)...)
			if err != nil {
				return nil, err
			}
			c.kind, c.dur = KindDurable, dur
		} else {
			sopts := append(s.storageOpts(KindDurable), storage.WithFileOptions(s.fileOpts...))
			dur, err := storage.OpenDurable(cfg.Dir, model, sopts...)
			if err != nil {
				return nil, err
			}
			c.kind, c.dur = KindDurable, dur
		}

	case s.replicated:
		if cfg.File == nil || cfg.Allocator == nil {
			return nil, errors.New("fxdist: the replicated backend needs Config.File and Config.Allocator")
		}
		repl, err := storage.NewReplicated(cfg.File, cfg.Allocator, s.replicaMode, model, s.storageOpts(KindReplicated)...)
		if err != nil {
			return nil, err
		}
		c.kind, c.repl = KindReplicated, repl

	default:
		if cfg.File == nil || cfg.Allocator == nil {
			return nil, errors.New("fxdist: the in-memory backend needs Config.File and Config.Allocator")
		}
		mem, err := storage.NewCluster(cfg.File, cfg.Allocator, model, s.storageOpts(KindMemory)...)
		if err != nil {
			return nil, err
		}
		c.kind, c.mem = KindMemory, mem
	}

	if pc := c.planCache(); pc != nil {
		switch {
		case s.cacheSize < 0:
			pc.SetEnabled(false)
		case s.cacheSize > 0:
			pc.Resize(s.cacheSize)
		}
	}
	if s.sloSet {
		c.SetLatencySLO(s.slo.Target, s.slo.Goal)
	}
	for shape, slo := range s.shapeSLOs {
		c.SetShapeLatencySLO(shape, slo.Target, slo.Goal)
	}
	return c, nil
}

// Kind returns the backend kind: "memory", "durable", "replicated" or
// "netdist".
func (c *Cluster) Kind() string { return c.kind }

// Memory returns the underlying in-memory cluster, nil for other kinds.
func (c *Cluster) Memory() *MemoryCluster { return c.mem }

// Durable returns the underlying durable cluster, nil for other kinds.
func (c *Cluster) Durable() *DurableCluster { return c.dur }

// Replicated returns the underlying replicated cluster, nil for other
// kinds.
func (c *Cluster) Replicated() *ReplicatedCluster { return c.repl }

// Coordinator returns the underlying distributed coordinator, nil for
// other kinds. During a rescale the handle is swapped at cutover; see
// Cluster.Rescale.
func (c *Cluster) Coordinator() *Coordinator { return c.coordinator() }

// coordinator reads the current coordinator under the swap lock.
func (c *Cluster) coordinator() *Coordinator {
	c.coordMu.RLock()
	defer c.coordMu.RUnlock()
	return c.coord
}

// M returns the device count.
func (c *Cluster) M() int {
	switch c.kind {
	case KindMemory:
		return c.mem.M()
	case KindDurable:
		return c.dur.M()
	case KindReplicated:
		return c.repl.M()
	default:
		return c.coordinator().M()
	}
}

// Spec builds a value-level partial match query against the cluster's
// schema: pairs of (field name, value); unmentioned fields are
// unspecified.
func (c *Cluster) Spec(pairs map[string]string) (PartialMatch, error) {
	if c.kind == KindDurable {
		return c.dur.Spec(pairs)
	}
	return c.file.Spec(pairs)
}

// RetrieveContext answers one value-level partial match query. It is
// the canonical retrieval entry point on every backend kind; Retrieve
// is its context.Background() wrapper. The distributed backend carries
// no cost model, so its results leave Response, TotalWork and
// DeviceTime zero; with WithFailover set it routes through the
// ring-successor retry policy.
func (c *Cluster) RetrieveContext(ctx context.Context, pm PartialMatch) (RetrieveResult, error) {
	switch c.kind {
	case KindMemory:
		return c.mem.RetrieveContext(ctx, pm)
	case KindDurable:
		return c.dur.RetrieveContext(ctx, pm)
	case KindReplicated:
		return c.repl.RetrieveContext(ctx, pm)
	default:
		// A live rescale window intercepts retrievals: dual reads while
		// both epochs serve, new-epoch reads once the old one drains.
		if r := c.resc.Load(); r != nil {
			if res, err, handled := r.retrieve(ctx, pm); handled {
				return res, err
			}
		}
		var res DistributedResult
		var err error
		if c.failover {
			res, err = c.coordinator().RetrieveWithFailoverContext(ctx, pm)
		} else {
			res, err = c.coordinator().RetrieveContext(ctx, pm)
		}
		// A degraded retrieval (WithPartialResults) carries the surviving
		// devices' answer alongside its PartialResult error.
		return fromDistributed(res), err
	}
}

// Retrieve is RetrieveContext with context.Background().
func (c *Cluster) Retrieve(pm PartialMatch) (RetrieveResult, error) {
	return c.RetrieveContext(context.Background(), pm)
}

// RetrieveBatch answers a batch of queries, pipelining their fan-outs
// over the shared worker pool (see engine.Executor.RetrieveBatch).
// Queries sharing a shape reuse one cached plan.
func (c *Cluster) RetrieveBatch(ctx context.Context, pms []PartialMatch) ([]RetrieveResult, error) {
	switch c.kind {
	case KindMemory:
		return c.mem.RetrieveBatch(ctx, pms)
	case KindDurable:
		return c.dur.RetrieveBatch(ctx, pms)
	case KindReplicated:
		return c.repl.RetrieveBatch(ctx, pms)
	default:
		// During a rescale window, run the batch query-by-query through
		// the epoch-aware path (dual reads don't batch across epochs).
		if r := c.resc.Load(); r != nil && r.intercepting() {
			out := make([]RetrieveResult, len(pms))
			for i, pm := range pms {
				res, err := c.RetrieveContext(ctx, pm)
				if err != nil {
					return out, err
				}
				out[i] = res
			}
			return out, nil
		}
		dres, err := c.coordinator().RetrieveBatch(ctx, pms)
		out := make([]RetrieveResult, len(dres))
		for i, r := range dres {
			out[i] = fromDistributed(r)
		}
		return out, err
	}
}

// fromDistributed lifts a coordinator result onto the unified result
// type (no cost model on the wire, so the time fields stay zero). The
// arena lease rides along so Release keeps working through the facade.
func fromDistributed(r DistributedResult) RetrieveResult {
	res := RetrieveResult{
		TraceID:             r.TraceID,
		Records:             r.Records,
		DeviceBuckets:       r.DeviceBuckets,
		DeviceRecords:       r.DeviceRecords,
		LargestResponseSize: r.LargestResponseSize,
		Stages:              r.Stages,
	}
	res.SetLease(r.Lease())
	return res
}

// Close releases the backend's resources: device logs for durable
// clusters, server connections for coordinators; a no-op for the
// in-memory kinds.
func (c *Cluster) Close() error {
	switch c.kind {
	case KindDurable:
		return c.dur.Close()
	case KindNetdist:
		if r := c.resc.Load(); r != nil {
			r.closeNew()
		}
		c.coordinator().Close()
	}
	return nil
}

// planCache returns the backend's plan cache handle.
func (c *Cluster) planCache() *plancache.Cache {
	switch c.kind {
	case KindMemory:
		return c.mem.PlanCache()
	case KindDurable:
		return c.dur.PlanCache()
	case KindReplicated:
		return c.repl.PlanCache()
	default:
		return c.coordinator().PlanCache()
	}
}

// PlanCacheStats is a point-in-time snapshot of one cluster's plan
// cache: hit/miss/eviction counters and the resident plans.
type PlanCacheStats = plancache.Snapshot

// PlanCache snapshots the cluster's plan cache.
func (c *Cluster) PlanCache() PlanCacheStats { return c.planCache().Stats() }

// SetLatencySLO sets the default latency objective for every query
// shape served by this cluster's backend kind: at least goal (e.g.
// 0.99) of queries must complete within target. The objective is
// backend-wide (all clusters of one kind share an auditor).
func (c *Cluster) SetLatencySLO(target time.Duration, goal float64) {
	telemetry.SetSLO(c.kind, audit.SLO{Target: target, Goal: goal})
}

// SetShapeLatencySLO overrides the latency objective for one query
// shape of this cluster's backend kind.
func (c *Cluster) SetShapeLatencySLO(shape string, target time.Duration, goal float64) {
	telemetry.For(c.kind).Audit.SetShapeSLO(shape, audit.SLO{Target: target, Goal: goal})
}

// OptimalityReport snapshots the strict-optimality audit of this
// cluster's backend kind: per-shape violation counts against the
// paper's ceil(|R(q)|/M) bound and SLO state.
func (c *Cluster) OptimalityReport() BackendAudit {
	return telemetry.For(c.kind).Audit.Report()
}

// ResetAudit zeroes the accumulated audit state of this cluster's
// backend kind (mirrored Prometheus counters stay monotonic;
// configured SLOs are kept).
func (c *Cluster) ResetAudit() { telemetry.For(c.kind).Audit.Reset() }

// PlanCacheReport snapshots every live plan cache in the process,
// sorted by backend — the programmatic /debug/plancache.
func PlanCacheReport() []PlanCacheStats { return plancache.Report() }
