package fxdist

import (
	"context"
	"net/http"

	"fxdist/internal/audit"
	"fxdist/internal/engine"
	"fxdist/internal/mempool"
	"fxdist/internal/obs"
	"fxdist/internal/plancache"
	"fxdist/internal/rebalance"
	"fxdist/internal/resilience"
	"fxdist/internal/telemetry"
)

// Observability: the runtime introspection surface. Every hot path in
// the distributed stack (netdist coordinator and device servers, the
// durable and replicated clusters, the pagestore logs) reports into the
// metric registry and trace ring of what it measures — a cluster's or a
// device server's (a gate has a registry); everything a cluster knows
// about its own queries (metrics, traces, audit, costs, flights, events,
// plan cache, resilience, rescale, fleet) it holds itself and serves on
// its DebugHandler. The commands expose the handler of what they opened
// via -metrics-addr.

// MetricPoint is one metric sample: name, kind, labels and either a
// scalar value (counters, gauges) or a histogram snapshot.
type MetricPoint = obs.Point

// MetricHistogram is a point-in-time histogram copy with quantile
// estimation (Quantile(0.99) etc.).
type MetricHistogram = obs.HistogramSnapshot

// Metrics returns the registry behind this cluster's /metrics: the
// serving backend's, read at each call (a rescale's cutover swaps it).
// Snapshot lists its points; WritePrometheus renders them.
func (c *Cluster) Metrics() *obs.Registry { return c.backend().Instruments().Registry }

// DebugEndpoint is one path of a debug handler: its pattern, the line
// the /debug/ index shows for it, and its handler.
type DebugEndpoint = obs.Endpoint

// DebugEndpoints are the paths DebugHandler mounts beside /metrics and
// /debug/pprof/: the process-wide /debug/mempool, then this cluster's
// own views — /debug/traces, /debug/optimality, /debug/hotpath,
// /debug/flight, /debug/events, /debug/plancache, /debug/resilience, /debug/rescale and /debug/cluster
// (an empty map on every kind but a stats-pulling netdist cluster). A
// front door that adds its own views (the gate's /debug/tenants) mounts
// these with them, and its /metrics renders Metrics before its own
// registry. Each reads the serving backend at request time, so after a
// rescale's cutover they show the new epoch.
func (c *Cluster) DebugEndpoints() []DebugEndpoint {
	eps := append([]DebugEndpoint{mempool.Endpoint()}, telemetry.Endpoints(func() *telemetry.Instruments { return c.backend().Instruments() })...)
	return append(eps,
		plancache.Endpoint(func() *plancache.Cache { return c.backend().PlanCache() }),
		resilience.Endpoint(c.Resilience),
		rebalance.Endpoint(c.kind, c.driver.Load),
		telemetry.FleetEndpoint(func() *telemetry.Federator {
			if co := c.Coordinator(); co != nil {
				return co.Federator()
			}
			return nil
		}),
	)
}

// DebugHandler serves this cluster's observability: its /metrics
// (Metrics), /debug/pprof/ and DebugEndpoints. Every document holds this
// cluster alone.
func (c *Cluster) DebugHandler() http.Handler {
	return obs.HandlerFor(append(c.DebugEndpoints(), obs.MetricsEndpoint(c.Metrics))...)
}

// tracer is the serving backend's tracer, read at each call (a rescale's
// cutover swaps it with the bundle).
func (c *Cluster) tracer() *obs.Tracer { return c.backend().Instruments().Tracer }

// TraceSpan is a completed or in-flight query trace: coordinator fan-out
// and device-server spans correlate via RequestID, and parent→child
// links (TraceID/Parent) join one query's spans — the cluster's and each
// device server's, every owner keeping its own — into a tree by trace ID.
type TraceSpan = obs.SpanSnapshot

// RecentTraces returns up to n of this cluster's recent query spans,
// most recent first (the programmatic /debug/traces).
func (c *Cluster) RecentTraces(n int) []TraceSpan { return c.tracer().Recent(n) }

// TraceTree is one span and the spans that ran under it. A netdist
// query's tree on its cluster is the coordinator's retrieval span; each
// device server's /debug/traces holds its netdist.serve child, whose
// trace ID and parent are the root's.
type TraceTree = obs.SpanTree

// RecentTraceTrees groups up to n of this cluster's recent spans into
// parent→child trees, most recent root first (the programmatic
// /debug/traces?tree=1).
func (c *Cluster) RecentTraceTrees(n int) []TraceTree { return c.tracer().Trees(n) }

// Online optimality auditing: every retrieval on every backend is
// compared against the paper's strict-optimality bound ceil(|R(q)|/M),
// aggregated by query shape (the set of unspecified fields). A cluster
// serves its own on /debug/optimality (Cluster.DebugHandler).

// ShapeAudit is one (backend, query shape) row of the audit: violation
// counts, max/mean deviation from the bound, worst offender device, and
// the shape's latency-SLO counters.
type ShapeAudit = audit.ShapeReport

// BackendAudit is every query shape one cluster has served.
type BackendAudit = audit.BackendReport

// LatencySLO is a per-shape latency objective: at least Goal (e.g. 0.99)
// of a shape's queries must complete within Target.
type LatencySLO = audit.SLO

// Wide-event query log: one structured event per retrieval, head+tail
// sampled per shape with always-keep rules for errors, SLO-slow and
// bound-violating queries. The same data is served on /debug/events.

// QueryEvent is one wide event — everything known about a single
// retrieval: shape, backend, plan-cache hit, per-stage costs, per-device
// bucket counts against the strict bound, trace id, and error/partial
// manifest.
type QueryEvent = telemetry.Event

// QueryLogStats summarises one backend's event log: seen/kept counts
// and the (fixed) sampling policy — ring of 1024, the first 8 of a
// shape, then 1 in 16.
type QueryLogStats = telemetry.LogStats

// ContextWithCaller attributes every retrieval under ctx to caller (a
// tenant name, a job id, ...): the wide-event query log records it as
// the event's tenant, so per-caller slices of the telemetry reports
// fall out of the same event stream.
func ContextWithCaller(ctx context.Context, caller string) context.Context {
	return engine.ContextWithCaller(ctx, caller)
}

// ContextWithCallers attributes the queries of one RetrieveBatch under
// ctx to callers, index-aligned with the batch (query i is attributed
// to callers[i]) — the seam a gateway uses to drive one engine batch
// on behalf of many tenants and still get per-tenant wide events.
func ContextWithCallers(ctx context.Context, callers []string) context.Context {
	return engine.ContextWithCallers(ctx, callers)
}

// QueryEvents returns up to n recent kept events of this cluster, most
// recent first.
func (c *Cluster) QueryEvents(n int) []QueryEvent { return c.backend().Instruments().Events(n) }

// QueryLogStatsFor sums the event-log statistics of every open cluster
// of one backend kind ("memory", "durable", "replicated", "netdist").
// It reads the process's set of open clusters, which exists for it and
// ResetCostProfilers alone (bench/fxload calls both).
func QueryLogStatsFor(kind string) QueryLogStats {
	st := QueryLogStats{Backend: kind}
	eachOpen(func(c *Cluster) {
		if c.kind != kind {
			return
		}
		s := c.backend().Instruments().LogStats()
		st.Seen, st.Kept = st.Seen+s.Seen, st.Kept+s.Kept
		st.Capacity, st.HeadPerShape, st.SampleEvery = s.Capacity, s.HeadPerShape, s.SampleEvery
		st.Shapes = append(st.Shapes, s.Shapes...)
	})
	return st
}

// Metrics federation: a netdist coordinator pulls every device server's
// metrics snapshot over the wire (Coordinator.StartStatsPull or
// WithStatsPull) and merges them into a fleet view on its cluster's
// /debug/cluster.

// FleetReport is one fleet's merged view: per-node liveness/lag rows,
// summed counters and merged histograms, and the worst-of digests
// (bound discrepancy, SLO burn) fxtop leads with.
type FleetReport = telemetry.ClusterReport

// FleetNodeStats is one node's self-description and metric snapshot as
// pulled over the wire.
type FleetNodeStats = telemetry.NodeStats

// Tail-based trace retention: a cluster's trace ring is a short staging
// window; a query whose wide event is kept (errors, SLO-slow, bound
// violations, plus the per-shape head and 1-in-16 sample) has the
// cluster's spans of it copied into a buffer of the newest 64 before the
// ring evicts them — one decision, so a kept event's trace_id resolves
// here while it is among the newest 64 kept. Histogram exemplars link
// latency buckets to the retained trace ids (see /metrics?exemplars=1).

// RetainedTrace is one kept span tree plus why it was kept ("error",
// "slow", "bound", "head" or "sample").
type RetainedTrace = obs.RetainedTrace

// RetainedTraces returns up to n of this cluster's retained traces, most
// recently kept first (the programmatic /debug/traces?retained=1).
func (c *Cluster) RetainedTraces(n int) []RetainedTrace { return c.tracer().Retained(n) }

// RetainedTraceByID looks one of this cluster's retained traces up by
// trace id — the recovery path from a histogram exemplar's trace_id to
// the full tree.
func (c *Cluster) RetainedTraceByID(traceID uint64) (RetainedTrace, bool) {
	return c.tracer().RetainedTrace(traceID)
}

// SetLogLevel tunes the runtime logger: "debug", "info", "warn",
// "error" or "off". The default is "warn", which keeps routine
// recovery/compaction events (logged at info) quiet.
func SetLogLevel(level string) error {
	l, err := obs.ParseLevel(level)
	if err != nil {
		return err
	}
	obs.SetLogLevel(l)
	return nil
}
