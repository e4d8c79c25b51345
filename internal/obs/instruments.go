package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Instruments is one cluster's reporting bundle and the store behind its
// per-query /debug views (QueryEndpoints): the engine executor hands
// every finished retrieval's query record to it in three steps — Audit
// (inside the audit stage it is measured by), Decide once the stage has
// closed, Commit once the record is sealed — and names no sink. An
// executor with no bundle at all reports nothing.
//
// Lock order: mu before a cell's mutex; ringMu is taken alone. A
// finished query takes neither mu nor more than one lock at a time.
type Instruments struct {
	// Backend is the label ("memory", "netdist", ...) on every record,
	// report and instrument.
	Backend string
	// Registry is the cluster's metric registry, its /metrics: the
	// cells' audit series, the event counters and everything else the
	// cluster measures (its plan cache, retry controller, metric family)
	// register here.
	Registry *Registry
	// Metrics are the owning cluster's whole-query Prometheus
	// instruments (nil reports none), set by the cluster's constructor.
	Metrics *Metrics
	// Tracer is the cluster's span ring and kept trace trees, its
	// /debug/traces: the executor opens a span per retrieval on it and
	// the keep decision retains the trace there.
	Tracer *Tracer

	mu        sync.Mutex // guards slo, overrides and cell creation
	slo       SLO
	overrides map[string]SLO
	// cells is copy-on-write (shapes are few and appear once), so the
	// per-step lookup takes no lock and allocates nothing.
	cells atomic.Pointer[map[string]*cell]

	ringMu sync.Mutex
	ring   []Event // a slot is empty until its record is set
	next   int
	subs   map[chan Event]struct{}
}

// NewInstruments returns an empty bundle, with its own tracer, for one
// cluster of the backend kind label over its registry r, with slo as its
// default latency objective. Each cluster builds its own: nothing is
// shared between two clusters, of one kind or not. The event counters
// are the cells' query and keep counts (LogStats), summed when /metrics
// is scraped.
func NewInstruments(r *Registry, backend string, slo SLO) *Instruments {
	bl := L("backend", backend)
	in := &Instruments{
		Backend:   backend,
		Registry:  r,
		Tracer:    NewTracer(traceSpans),
		slo:       slo,
		overrides: make(map[string]SLO),
		ring:      make([]Event, ringCapacity),
		subs:      make(map[chan Event]struct{}),
	}
	in.cells.Store(&map[string]*cell{})
	r.CounterFunc("fxdist_events_seen_total",
		"Wide events offered to the query log, per backend.",
		func() uint64 { return in.LogStats().Seen }, bl)
	r.CounterFunc("fxdist_events_kept_total",
		"Wide events kept by head sampling or an always-keep rule.",
		func() uint64 { return in.LogStats().Kept }, bl)
	r.CounterFunc("fxdist_events_dropped_total",
		"Wide events dropped by head sampling.",
		func() uint64 { st := in.LogStats(); return st.Seen - st.Kept }, bl)
	return in
}

// Metrics are one cluster's whole-query instruments — the first thing the
// Audit step feeds. Retrieves, Errors and Latency are required;
// DeviceBuckets are the storage clusters' load-balance view and may be
// nil.
//
// The per-device counters accumulate qualified-bucket accesses over the
// cluster's whole lifetime; Imbalance is their max/mean ratio — the
// paper's strict-optimality criterion (§5.2.1: response time is the
// slowest device) measured on real traffic. 1.0 means the allocator is
// spreading observed queries perfectly.
type Metrics struct {
	Retrieves     *Counter
	Errors        *Counter
	Latency       *Histogram
	DeviceBuckets []*Counter
}

// NewClusterMetrics registers the fxdist_storage_* metric family of one
// storage cluster with m devices in r, its bundle's registry. The cluster
// label separates the in-memory, durable (disk-backed) and replicated
// (failure-injecting) retrieval paths. The imbalance gauge is computed
// from the device counters when /metrics is scraped.
func NewClusterMetrics(r *Registry, cluster string, m int) *Metrics {
	cl := L("cluster", cluster)
	cm := &Metrics{
		Retrieves: r.Counter("fxdist_storage_retrieves_total",
			"Retrievals answered by this cluster kind.", cl),
		Errors: r.Counter("fxdist_storage_retrieve_errors_total",
			"Retrievals that failed on this cluster kind.", cl),
		Latency: r.Histogram("fxdist_storage_retrieve_seconds",
			"Wall-clock retrieval latency (all devices, merge included).", nil, cl),
	}
	cm.DeviceBuckets = make([]*Counter, m)
	for dev := range cm.DeviceBuckets {
		cm.DeviceBuckets[dev] = r.Counter("fxdist_storage_device_qualified_buckets_total",
			"Qualified buckets accessed per device.", cl, L("device", strconv.Itoa(dev)))
	}
	r.GaugeFunc("fxdist_storage_load_imbalance_ratio",
		"Max/mean of cumulative per-device qualified-bucket counts; 1.0 is a perfectly balanced declustering.",
		cm.Imbalance, cl)
	return cm
}

// Imbalance is the max/mean ratio of the cumulative per-device
// qualified-bucket counts; 0 before any bucket was counted.
func (cm *Metrics) Imbalance() float64 {
	var sum, most uint64
	for _, c := range cm.DeviceBuckets {
		v := c.Value()
		sum, most = sum+v, max(most, v)
	}
	if sum == 0 {
		return 0
	}
	return float64(most) / (float64(sum) / float64(len(cm.DeviceBuckets)))
}

// Started counts one retrieval at entry, before planning.
func (cm *Metrics) Started() {
	if cm != nil {
		cm.Retrieves.Inc()
	}
}

// PlanFailed reports a retrieval that died before fan-out (no plan, so
// no record): an error and its latency.
func (cm *Metrics) PlanFailed(elapsed time.Duration) {
	if cm != nil {
		cm.Errors.Inc()
		cm.Latency.Observe(elapsed.Seconds())
	}
}

// Observe records the retrieval's latency and, on success, folds the
// per-device bucket counts into the cumulative counters.
func (cm *Metrics) Observe(rec *QueryRecord) {
	if cm == nil {
		return
	}
	cm.Latency.Observe(rec.Elapsed.Seconds())
	if rec.Failed {
		cm.Errors.Inc()
		return
	}
	if cm.DeviceBuckets == nil {
		return
	}
	for dev, b := range rec.DeviceBuckets {
		if b > 0 {
			cm.DeviceBuckets[dev].Add(uint64(b))
		}
	}
}

// Exemplar links the record's latency bucket to its retained trace.
func (cm *Metrics) Exemplar(rec *QueryRecord) {
	if cm != nil {
		cm.Latency.SetExemplar(rec.Elapsed.Seconds(), rec.TraceID)
	}
}
