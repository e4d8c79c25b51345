package telemetry

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"fxdist/internal/audit"
	"fxdist/internal/obs"
)

// Instruments is one backend's reporting bundle, and the store behind
// its /debug views: the engine executor hands every finished retrieval's
// query record to it in three steps — Audit (inside the audit stage it
// is measured by), Decide once the stage has closed, Commit once the
// record is sealed — and names no sink. An executor with no bundle at
// all reports nothing.
type Instruments struct {
	// Metrics are the owning cluster's whole-query Prometheus
	// instruments; nil in the registry's shared bundle, set per cluster
	// by WithMetrics.
	Metrics *Metrics
	// The store is held by pointer: every per-cluster copy accumulates
	// into, and every view reads, the backend's one set of cells. It
	// promotes Backend, the bundle's label, and the methods of cell.go
	// and events.go.
	*store
}

// New returns a bundle for one backend label with slo as its default
// latency objective — private and unregistered, which is what a test
// inspecting its own traffic wants; For is the registered one.
func New(backend string, slo audit.SLO) *Instruments {
	return &Instruments{store: newStore(backend, slo)}
}

// WithMetrics returns a copy of the bundle reporting whole-query
// metrics to m; the store stays shared with the registry.
func (in *Instruments) WithMetrics(m *Metrics) *Instruments {
	c := *in
	c.Metrics = m
	return &c
}

// Process-wide registry, one bundle per backend label ("memory",
// "durable", "replicated", "netdist", ...): every cluster of a backend
// kind shares one accumulation point, and the /debug endpoints and
// facade reports enumerate it.
var (
	regMu      sync.Mutex
	backends   = make(map[string]*Instruments)
	defaultSLO audit.SLO
)

// For returns backend's bundle, creating it on first use under the
// process default SLO.
func For(backend string) *Instruments {
	regMu.Lock()
	defer regMu.Unlock()
	in := backends[backend]
	if in == nil {
		in = New(backend, defaultSLO)
		backends[backend] = in
	}
	return in
}

// All snapshots every registered bundle, sorted by backend.
func All() []*Instruments {
	regMu.Lock()
	out := make([]*Instruments, 0, len(backends))
	for _, in := range backends {
		out = append(out, in)
	}
	regMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Backend < out[j].Backend })
	return out
}

// SetSLO sets the default latency objective for one backend's shapes
// (overridable per shape with SetShapeSLO). backend "" applies to every
// registered backend and becomes the default for future ones.
func SetSLO(backend string, slo audit.SLO) {
	if backend != "" {
		For(backend).SetSLO(slo)
		return
	}
	regMu.Lock()
	defaultSLO = slo
	regMu.Unlock()
	for _, in := range All() {
		in.SetSLO(slo)
	}
}

// AuditReport snapshots every backend's optimality audit, sorted by
// backend.
func AuditReport() []audit.BackendReport {
	all := All()
	out := make([]audit.BackendReport, len(all))
	for i, in := range all {
		out[i] = in.AuditReport()
	}
	return out
}

// CostReport snapshots every backend's cost profile, sorted by backend.
// Backends with no recorded queries are omitted.
func CostReport() []obs.BackendCost {
	var out []obs.BackendCost
	for _, in := range All() {
		if r := in.CostReport(); len(r.Shapes) > 0 {
			out = append(out, r)
		}
	}
	return out
}

// FlightReport snapshots every backend's slowest queries, sorted by
// backend; backends with no records are omitted.
func FlightReport() []obs.BackendFlights {
	var out []obs.BackendFlights
	for _, in := range All() {
		if r := in.FlightReport(); len(r.Shapes) > 0 {
			out = append(out, r)
		}
	}
	return out
}

func init() {
	obs.RegisterDebugHandler("/debug/optimality", "strict-bound audit per (backend,shape): violations, deviation, SLO burn", obs.DebugEndpoint(
		func() (any, error) { return AuditReport(), nil },
		func(w io.Writer, doc any) { audit.WriteText(w, doc.([]audit.BackendReport)) },
	))
	obs.RegisterDebugHandler("/debug/hotpath", "per-(backend,shape) stage cost aggregates: plan/fanout/merge/audit wall, bytes, objects", obs.DebugEndpoint(
		func() (any, error) { return CostReport(), nil },
		func(w io.Writer, doc any) { obs.WriteCostReport(w, doc.([]obs.BackendCost)) },
	))
	obs.RegisterDebugHandler("/debug/flight", "slow-query flight recorder: K worst queries per (backend,shape) with full evidence", obs.DebugEndpoint(
		func() (any, error) { return FlightReport(), nil },
		func(w io.Writer, doc any) { obs.WriteFlightReport(w, doc.([]obs.BackendFlights)) },
	))
}

// Metrics are one cluster's whole-query instruments — the first thing the
// Audit step feeds. Retrieves, Errors and Latency are required;
// DeviceBuckets and Imbalance are the storage clusters' load-balance
// view and may be nil.
//
// The per-device counters accumulate qualified-bucket accesses over the
// cluster's whole lifetime; imbalance is their max/mean ratio — the
// paper's strict-optimality criterion (§5.2.1: response time is the
// slowest device) measured on real traffic. 1.0 means the allocator is
// spreading observed queries perfectly.
type Metrics struct {
	Retrieves     *obs.Counter
	Errors        *obs.Counter
	Latency       *obs.Histogram
	DeviceBuckets []*obs.Counter
	Imbalance     *obs.Gauge
}

// NewClusterMetrics registers (or revives) the fxdist_storage_* metric
// family for one storage cluster kind with m devices. The cluster label
// separates the in-memory, durable (disk-backed) and replicated
// (failure-injecting) retrieval paths.
func NewClusterMetrics(cluster string, m int) *Metrics {
	r := obs.Default()
	cl := obs.L("cluster", cluster)
	cm := &Metrics{
		Retrieves: r.Counter("fxdist_storage_retrieves_total",
			"Retrievals answered by this cluster kind.", cl),
		Errors: r.Counter("fxdist_storage_retrieve_errors_total",
			"Retrievals that failed on this cluster kind.", cl),
		Latency: r.Histogram("fxdist_storage_retrieve_seconds",
			"Wall-clock retrieval latency (all devices, merge included).", nil, cl),
		Imbalance: r.Gauge("fxdist_storage_load_imbalance_ratio",
			"Max/mean of cumulative per-device qualified-bucket counts; 1.0 is a perfectly balanced declustering.", cl),
	}
	cm.DeviceBuckets = make([]*obs.Counter, m)
	for dev := range cm.DeviceBuckets {
		cm.DeviceBuckets[dev] = r.Counter("fxdist_storage_device_qualified_buckets_total",
			"Qualified buckets accessed per device.", cl, obs.L("device", strconv.Itoa(dev)))
	}
	return cm
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
// per-device bucket counts into the cumulative counters and refreshes
// the live imbalance gauge.
func (cm *Metrics) Observe(rec *obs.QueryRecord) {
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
	var sum, max uint64
	for _, c := range cm.DeviceBuckets {
		v := c.Value()
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return
	}
	mean := float64(sum) / float64(len(cm.DeviceBuckets))
	cm.Imbalance.Set(float64(max) / mean)
}

// Exemplar links the record's latency bucket to its retained trace.
func (cm *Metrics) Exemplar(rec *obs.QueryRecord) {
	if cm != nil {
		cm.Latency.SetExemplar(rec.Elapsed.Seconds(), rec.TraceID)
	}
}
