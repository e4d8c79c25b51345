package fxdist

import (
	"context"
	"io"
	"net/http"

	"fxdist/internal/audit"
	"fxdist/internal/engine"
	"fxdist/internal/obs"
	"fxdist/internal/telemetry"
)

// Observability: the runtime introspection surface. Every hot path in
// the distributed stack (netdist coordinator and device servers, the
// durable and replicated clusters, the pagestore logs) reports into a
// process-wide metric registry and trace ring; this file is the
// embedder's API to it. cmd/fxnode and cmd/pmquery expose the same data
// over HTTP via -metrics-addr.

// MetricPoint is one metric sample: name, kind, labels and either a
// scalar value (counters, gauges) or a histogram snapshot.
type MetricPoint = obs.Point

// MetricHistogram is a point-in-time histogram copy with quantile
// estimation (Quantile(0.99) etc.).
type MetricHistogram = obs.HistogramSnapshot

// MetricsSnapshot returns the current value of every registered metric,
// sorted by name then labels — the programmatic equivalent of scraping
// /metrics.
func MetricsSnapshot() []MetricPoint { return obs.Default().Snapshot() }

// WriteMetricsPrometheus renders all metrics in the Prometheus text
// exposition format.
func WriteMetricsPrometheus(w io.Writer) error { return obs.Default().WritePrometheus(w) }

// WriteMetricsJSON renders all metrics as an expvar-style JSON object.
func WriteMetricsJSON(w io.Writer) error { return obs.Default().WriteJSON(w) }

// MetricsHandler serves /metrics (Prometheus text), /debug/vars
// (JSON), /debug/traces (recent query spans) and /debug/pprof/.
func MetricsHandler() http.Handler { return obs.Handler() }

// ServeMetrics starts MetricsHandler on addr (":0" picks a free port),
// returning the bound address and a shutdown function.
func ServeMetrics(addr string) (string, func(), error) { return obs.ListenAndServe(addr) }

// TraceSpan is a completed or in-flight query trace: coordinator fan-out
// and device-server spans correlate via RequestID, and parent→child
// links (TraceID/Parent) stitch one query's spans into a tree even
// across processes.
type TraceSpan = obs.SpanSnapshot

// RecentTraces returns up to n recent query spans, most recent first.
func RecentTraces(n int) []TraceSpan { return obs.DefaultTracer().Recent(n) }

// TraceTree is one span and the spans that ran under it — for a netdist
// query: the coordinator's retrieval span as root with one device-server
// span per device as children.
type TraceTree = obs.SpanTree

// RecentTraceTrees groups up to n recent spans into parent→child trees,
// most recent root first (the programmatic /debug/traces?tree=1).
func RecentTraceTrees(n int) []TraceTree { return obs.DefaultTracer().Trees(n) }

// Online optimality auditing: every retrieval on every backend is
// compared against the paper's strict-optimality bound ceil(|R(q)|/M),
// aggregated by query shape (the set of unspecified fields). The same
// data is served on /debug/optimality by MetricsHandler.

// ShapeAudit is one (backend, query shape) row of the audit: violation
// counts, max/mean deviation from the bound, worst offender device, and
// the shape's latency-SLO counters.
type ShapeAudit = audit.ShapeReport

// BackendAudit is every query shape one backend has served.
type BackendAudit = audit.BackendReport

// OptimalityReport snapshots the optimality audit of every backend,
// sorted by backend then shape.
func OptimalityReport() []BackendAudit { return telemetry.AuditReport() }

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
// to callers[i]) — the seam a coalescing gateway uses to drive one
// engine batch on behalf of many tenants and still get per-tenant wide
// events.
func ContextWithCallers(ctx context.Context, callers []string) context.Context {
	return engine.ContextWithCallers(ctx, callers)
}

// QueryEvents returns up to n recent kept events of one backend
// ("memory", "durable", "replicated", "netdist"), most recent first.
func QueryEvents(backend string, n int) []QueryEvent {
	return telemetry.For(backend).Events(n)
}

// QueryLogStatsFor returns one backend's event-log statistics.
func QueryLogStatsFor(backend string) QueryLogStats {
	return telemetry.For(backend).LogStats()
}

// Metrics federation: a netdist coordinator pulls every device server's
// metrics snapshot over the wire (Coordinator.StartStatsPull or
// WithStatsPull) and merges them into a fleet view on /debug/cluster.

// FleetReport is one fleet's merged view: per-node liveness/lag rows,
// summed counters and merged histograms, and the worst-of digests
// (bound discrepancy, SLO burn) fxtop leads with.
type FleetReport = telemetry.ClusterReport

// FleetNodeStats is one node's self-description and metric snapshot as
// pulled over the wire.
type FleetNodeStats = telemetry.NodeStats

// FleetReports snapshots every registered fleet by name — the
// programmatic /debug/cluster.
func FleetReports() map[string]FleetReport { return telemetry.FleetReports() }

// Tail-based trace retention: the trace ring is a short staging window;
// a query whose wide event is kept (errors, SLO-slow, bound violations,
// plus the per-shape head and 1-in-16 sample) has its complete span tree
// copied into a buffer of the newest 64 before the ring evicts it — one
// decision, so a kept event's trace_id resolves here while it is among
// the newest 64 kept. Histogram exemplars link latency buckets to the
// retained trace ids (see /metrics?exemplars=1).

// RetainedTrace is one kept span tree plus why it was kept ("error",
// "slow", "bound", "head" or "sample").
type RetainedTrace = obs.RetainedTrace

// RetainedTraces returns up to n retained traces, most recently kept
// first (the programmatic /debug/traces?retained=1).
func RetainedTraces(n int) []RetainedTrace {
	return obs.DefaultTracer().Retained(n)
}

// RetainedTraceByID looks one retained trace up by trace id — the
// recovery path from a histogram exemplar's trace_id to the full tree.
func RetainedTraceByID(traceID uint64) (RetainedTrace, bool) {
	return obs.DefaultTracer().RetainedTrace(traceID)
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
