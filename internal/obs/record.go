package obs

import "time"

// QueryDevice is one device's share of a query record: its qualified
// buckets (compare against the record's Bound), scan duration and
// error. Present only on records the keep decision kept.
type QueryDevice struct {
	Device  int           `json:"device"`
	Buckets int           `json:"buckets"`
	Scan    time.Duration `json:"scan_ns"`
	Err     string        `json:"err,omitempty"`
}

// QueryRecord is everything the system knows about one finished
// retrieval. The engine executor builds exactly one per call — shape,
// |R(q)| and the strict bound straight from the compiled plan — and
// takes it through the backend's one store (telemetry.Instruments:
// Audit, Decide, Commit), whose per-shape cells and ring every /debug
// view reads. FlightRecord and telemetry.Event are views of it.
//
// A record is immutable once committed. The detail fields — Devices,
// Err, FailedDevices, Events — are materialised only when the keep
// decision says the query will be retained.
type QueryRecord struct {
	Backend string `json:"backend"`
	// Shape is the query-shape key ('s' specified, '*' unspecified).
	Shape string `json:"shape"`
	// Tenant is the caller attribution (a gateway tenant name), empty
	// for unattributed retrievals. See engine.ContextWithCaller.
	Tenant  string `json:"tenant,omitempty"`
	TraceID uint64 `json:"trace_id,omitempty"`
	// Start is the retrieval's entry time; the views serialise it under
	// their own key ("start" on flights, "time" on events).
	Start time.Time `json:"-"`
	// Elapsed is the whole-query latency, plan stage through audit
	// stage — the interval the four top-level Stages partition.
	Elapsed time.Duration `json:"elapsed_ns"`

	PlanCacheHit bool `json:"plan_cache_hit"`
	// RQ is |R(q)|; Bound is the paper's strict bound ceil(|R(q)|/M);
	// MaxDeviceBuckets the load of the busiest device, WorstDevice. All
	// four, and BoundViolation, are the plan's, not the answers'.
	RQ               int  `json:"rq"`
	Bound            int  `json:"bound"`
	MaxDeviceBuckets int  `json:"max_device_buckets"`
	BoundViolation   bool `json:"bound_violation,omitempty"`
	WorstDevice      int  `json:"-"`
	// MismatchedDevices answered for other buckets than the plan gives
	// them: a misplaced bucket, a short answer or a stale epoch.
	MismatchedDevices []int `json:"mismatched_devices,omitempty"`
	// DeviceBuckets are the merged result's per-device qualified-bucket
	// counts — what the per-device load counters add up; nil when the
	// retrieval failed outright, the surviving devices' when it
	// degraded. The slice belongs to the caller's Result: the Audit step
	// reads it during the call, and a kept record drops it (Devices).
	DeviceBuckets []int `json:"-"`

	// Slow is set when Elapsed exceeded the shape's SLO target
	// (recorded in SLOTarget).
	Slow      bool          `json:"slow,omitempty"`
	SLOTarget time.Duration `json:"slo_target_ns,omitempty"`

	// Error/partial manifest. Failed is true for any retrieval that
	// returned an error, degraded ones included; Err is its text.
	Err           string  `json:"err,omitempty"`
	Failed        bool    `json:"-"`
	Partial       bool    `json:"partial,omitempty"`
	Coverage      float64 `json:"coverage,omitempty"`
	FailedDevices []int   `json:"failed_devices,omitempty"`

	// Devices details each device's bucket count vs the bound and scan
	// duration — the slowest entry is the query's critical path.
	Devices []QueryDevice `json:"devices,omitempty"`
	// Stages is the cost breakdown: the four top-level stages plus an
	// aggregated device.scan sample.
	Stages []StageSample `json:"stages,omitempty"`
	// Events is the root span's annotation log (cache hit/miss, retry,
	// hedge and breaker decisions, degraded merges); materialised for
	// flights only.
	Events []SpanEvent `json:"events,omitempty"`

	// Keep records why the query was kept (error/slow/bound =
	// always-keep; head/sample = per-shape sampling); empty when it is
	// only one of its shape's slowest.
	Keep []string `json:"keep,omitempty"`
}
