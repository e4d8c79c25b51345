// Package obs is the stdlib-only observability layer for the fxdist
// runtime: atomic counters and gauges, bounded-bucket latency histograms
// with quantile estimation, a metric Registry that renders the
// Prometheus text exposition, per-query trace spans keyed by the
// coordinator's pipelined request IDs, and a small leveled logger.
//
// The paper's argument (§5.2.1) is that response time equals the
// slowest device, so the load balance of a declustering method is only
// as good as what you can measure at runtime. This package is the
// measurement substrate. A registry belongs to what it measures: each
// cluster's instruments, each device server and each gate build their
// own, register every count there once, and serve it on their own
// /metrics (MetricsEndpoint) beside /debug/traces and /debug/pprof/.
//
// All primitives are safe for concurrent use and allocation-free on the
// hot observation paths (Counter.Inc, Gauge.Set/Add, Histogram.Observe).
// Registry lookups take a mutex and should be done once at construction
// time, caching the returned instrument.
package obs
