package telemetry

import (
	"strconv"
	"time"

	"fxdist/internal/audit"
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
	// The store promotes Backend, the bundle's label, and the methods of
	// cell.go and events.go.
	*store
}

// New returns an empty bundle for one cluster of the backend kind label
// with slo as its default latency objective. Each cluster builds its own:
// nothing is shared between two clusters, of one kind or not.
func New(backend string, slo audit.SLO) *Instruments {
	return &Instruments{store: newStore(backend, slo)}
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
