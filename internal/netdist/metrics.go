package netdist

import (
	"strconv"

	"fxdist/internal/mempool"
	"fxdist/internal/obs"
)

// newNodeRegistry returns a node's metric registry — a coordinator's or
// a device server's — holding from the start the families that describe
// its process: build identity, uptime and the slab pools' gauges.
func newNodeRegistry() *obs.Registry {
	r := obs.NewRegistry()
	obs.RegisterBuildInfo(r)
	mempool.RegisterMetrics(r)
	return r
}

// newCoordMetrics registers the coordinator's whole-query instruments in
// r, its bundle's registry.
func newCoordMetrics(r *obs.Registry) *obs.Metrics {
	return &obs.Metrics{
		Retrieves: r.Counter("fxdist_netdist_coordinator_retrieves_total",
			"Distributed retrievals started by coordinators in this process."),
		Errors: r.Counter("fxdist_netdist_coordinator_retrieve_errors_total",
			"Distributed retrievals that failed after any failover attempts."),
		Latency: r.Histogram("fxdist_netdist_coordinator_retrieve_seconds",
			"End-to-end distributed retrieval latency (fan-out, merge included).", nil),
	}
}

// coordDevMetrics are the coordinator's per-device instruments, cached
// at Dial so the retrieval hot path never touches the registry.
type coordDevMetrics struct {
	latency   *obs.Histogram
	inflight  *obs.Gauge
	errors    *obs.Counter
	timeouts  *obs.Counter
	failovers *obs.Counter
}

func newCoordDevMetrics(r *obs.Registry, dev int) coordDevMetrics {
	d := obs.L("device", strconv.Itoa(dev))
	return coordDevMetrics{
		latency: r.Histogram("fxdist_netdist_coordinator_device_request_seconds",
			"Per-device request round-trip latency observed by the coordinator.", nil, d),
		inflight: r.Gauge("fxdist_netdist_coordinator_inflight_requests",
			"Requests currently in flight from the coordinator, per device.", d),
		errors: r.Counter("fxdist_netdist_coordinator_device_errors_total",
			"Per-device transport or protocol failures observed by the coordinator.", d),
		timeouts: r.Counter("fxdist_netdist_coordinator_device_timeouts_total",
			"Per-device request timeouts observed by the coordinator.", d),
		failovers: r.Counter("fxdist_netdist_coordinator_failovers_total",
			"Requests re-routed to the device's ring successor after a transport failure.", d),
	}
}

// serverMetrics are one device server's instruments in its own
// registry, cached at NewServer.
type serverMetrics struct {
	latency  *obs.Histogram
	requests *obs.Counter
	errors   *obs.Counter
	backup   *obs.Counter
	shed     *obs.Counter
}

func newServerMetrics(r *obs.Registry, dev int, inflight func() float64) serverMetrics {
	d := obs.L("device", strconv.Itoa(dev))
	r.GaugeFunc("fxdist_netdist_server_inflight_requests",
		"Requests the device server is currently answering.", inflight, d)
	return serverMetrics{
		latency: r.Histogram("fxdist_netdist_server_request_seconds",
			"Per-request service latency on the device server.", nil, d),
		requests: r.Counter("fxdist_netdist_server_requests_total",
			"Requests answered by the device server.", d),
		errors: r.Counter("fxdist_netdist_server_request_errors_total",
			"Requests the device server rejected with an error.", d),
		backup: r.Counter("fxdist_netdist_server_backup_requests_total",
			"Requests answered from the backup partition on behalf of the ring predecessor.", d),
		shed: r.Counter("fxdist_netdist_server_shed_requests_total",
			"Requests rejected by load shedding with a Retry-After hint.", d),
	}
}
