// Package obs is the stdlib-only observability layer of the fxdist
// runtime: what a cluster, a device server and a gate measure, and every
// view of it.
//
// The paper's argument (§5.2.1) is that response time equals the
// slowest device, so the load balance of a declustering method is only
// as good as what you can measure at runtime. The package holds:
//
//   - the primitives: atomic counters and gauges, bounded-bucket latency
//     histograms with quantile estimation, and a metric Registry that
//     renders the Prometheus text exposition. A registry belongs to what
//     it measures: each cluster, device server and gate builds its own
//     and serves it on its own /metrics (MetricsEndpoint). Primitives are
//     safe for concurrent use and allocation-free on the hot paths;
//     registry lookups take a mutex and are done once, at construction;
//
//   - a cluster's reporting bundle, Instruments: one cell per query shape
//     (the paper's query class) under one mutex, holding the shape's
//     optimality audit (no device may serve more than ceil(|R(q)|/M)
//     qualified buckets; the shape's one query count), its latency SLO,
//     stage costs (/debug/hotpath) and slowest queries (/debug/flight).
//     One keep decision per query admits its record to the ring of kept
//     wide events (/debug/events) and its trace tree to retention;
//
//   - the Tracer: a ring of spans per owner, joined across owners into
//     one tree by trace ID, with the kept trees retained
//     (/debug/traces);
//
//   - federation: a netdist coordinator pulls every device server's
//     registry snapshot (NodeStats) and merges them into one fleet view
//     (Federator, /debug/cluster);
//
//   - the /debug handler (HandlerFor, DebugEndpoint) and a leveled
//     logger.
package obs
