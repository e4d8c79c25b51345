package telemetry

import (
	"strconv"
	"time"

	"fxdist/internal/audit"
	"fxdist/internal/mempool"
	"fxdist/internal/obs"
)

// Instruments is one cluster's reporting bundle, and the store behind
// its /debug views (Endpoints): the engine executor hands every finished retrieval's
// query record to it in three steps — Audit (inside the audit stage it
// is measured by), Decide once the stage has closed, Commit once the
// record is sealed — and names no sink. An executor with no bundle at
// all reports nothing.
type Instruments struct {
	// Metrics are the owning cluster's whole-query Prometheus
	// instruments (nil reports none), set by the cluster's constructor.
	Metrics *Metrics
	// The store promotes Backend, the bundle's label, Registry, the
	// cluster's /metrics, and the methods of cell.go and events.go.
	*store
}

// New returns an empty bundle, with its own registry, for one cluster of
// the backend kind label with slo as its default latency objective. Each
// cluster builds its own: nothing is shared between two clusters, of one
// kind or not. Everything else the cluster measures (its plan cache,
// retry controller, metric family) registers in the bundle's Registry.
func New(backend string, slo audit.SLO) *Instruments {
	return &Instruments{store: newStore(NewRegistry(), backend, slo)}
}

// NewRegistry returns a node's metric registry — a cluster's or a device
// server's — holding from the start the families that describe its
// process: build identity, uptime and the slab pools' gauges.
func NewRegistry() *obs.Registry {
	r := obs.NewRegistry()
	obs.RegisterBuildInfo(r)
	mempool.RegisterMetrics(r)
	return r
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
	Retrieves     *obs.Counter
	Errors        *obs.Counter
	Latency       *obs.Histogram
	DeviceBuckets []*obs.Counter
}

// NewClusterMetrics registers the fxdist_storage_* metric family of one
// storage cluster with m devices in r, its bundle's registry. The cluster
// label separates the in-memory, durable (disk-backed) and replicated
// (failure-injecting) retrieval paths. The imbalance gauge is computed
// from the device counters when /metrics is scraped.
func NewClusterMetrics(r *obs.Registry, cluster string, m int) *Metrics {
	cl := obs.L("cluster", cluster)
	cm := &Metrics{
		Retrieves: r.Counter("fxdist_storage_retrieves_total",
			"Retrievals answered by this cluster kind.", cl),
		Errors: r.Counter("fxdist_storage_retrieve_errors_total",
			"Retrievals that failed on this cluster kind.", cl),
		Latency: r.Histogram("fxdist_storage_retrieve_seconds",
			"Wall-clock retrieval latency (all devices, merge included).", nil, cl),
	}
	cm.DeviceBuckets = make([]*obs.Counter, m)
	for dev := range cm.DeviceBuckets {
		cm.DeviceBuckets[dev] = r.Counter("fxdist_storage_device_qualified_buckets_total",
			"Qualified buckets accessed per device.", cl, obs.L("device", strconv.Itoa(dev)))
	}
	r.GaugeFunc("fxdist_storage_load_imbalance_ratio",
		"Max/mean of cumulative per-device qualified-bucket counts; 1.0 is a perfectly balanced declustering.",
		cm.Imbalance, cl)
	return cm
}

// Imbalance is the max/mean ratio of the cumulative per-device
// qualified-bucket counts; 0 before any bucket was counted.
func (cm *Metrics) Imbalance() float64 {
	var sum, max uint64
	for _, c := range cm.DeviceBuckets {
		v := c.Value()
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(len(cm.DeviceBuckets)))
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
}

// Exemplar links the record's latency bucket to its retained trace.
func (cm *Metrics) Exemplar(rec *obs.QueryRecord) {
	if cm != nil {
		cm.Latency.SetExemplar(rec.Elapsed.Seconds(), rec.TraceID)
	}
}
