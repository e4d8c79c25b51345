package fxdist

import (
	"io"
	"time"

	"fxdist/internal/obs"
	"fxdist/internal/telemetry"
)

// Profiling: the per-query cost-attribution surface. Every retrieval on
// every backend records a stage breakdown — plan (cache hit or
// compile), fanout (the paper's max-over-devices term), merge, audit —
// with wall time and heap-allocation deltas, aggregated per (backend,
// query shape). The distributed coordinator additionally attributes the
// wire path (dispatch → first byte → decode, with wire byte counts).
// The same data is served on /debug/hotpath; the slowest queries per
// shape are retained with full evidence on /debug/flight; and an
// optional trigger captures pprof profiles when an SLO burn rate or
// latency threshold trips (/debug/profiles).

// StageSample is one stage measurement of one query (see
// RetrieveResult.Stages): wall time plus heap-allocation deltas for
// engine stages, wire bytes for the coordinator's net.* stages.
type StageSample = obs.StageSample

// Stage names of the cost breakdown. The four top-level stages
// partition a retrieval (their wall times sum to the query latency);
// the device.scan and net.* stages overlap fanout and refine it.
const (
	StagePlan        = obs.StagePlan
	StageFanout      = obs.StageFanout
	StageMerge       = obs.StageMerge
	StageAudit       = obs.StageAudit
	StageDeviceScan  = obs.StageDeviceScan
	StageNetDispatch = obs.StageNetDispatch
	StageNetWait     = obs.StageNetWait
	StageNetDecode   = obs.StageNetDecode
)

// StageCost is one aggregated stage of one query shape's cost profile.
type StageCost = obs.StageCost

// ShapeCost is one query shape's aggregated cost profile.
type ShapeCost = obs.ShapeCost

// BackendCost is every profiled query shape of one backend.
type BackendCost = obs.BackendCost

// CostReport snapshots every backend's per-shape cost profile, sorted
// by backend — the programmatic /debug/hotpath.
func CostReport() []BackendCost { return telemetry.CostReport() }

// WriteCostReport renders a cost report as an aligned text table (the
// /debug/hotpath?format=text rendering).
func WriteCostReport(w io.Writer, report []BackendCost) { obs.WriteCostReport(w, report) }

// ResetCostProfilers zeroes every backend's accumulated cost profile.
func ResetCostProfilers() {
	for _, in := range telemetry.All() {
		in.ResetCosts()
	}
}

// CostReport snapshots this cluster's backend-kind cost profile.
func (c *Cluster) CostReport() BackendCost {
	return telemetry.For(c.kind).CostReport()
}

// FlightDevice is one device's share of a recorded slow query.
type FlightDevice = obs.QueryDevice

// FlightRecord is one retained slow query: stage breakdown, span
// events (retry/hedge/breaker decisions), plan-cache hit/miss, and
// per-device bucket counts against the strict bound ceil(|R(q)|/M).
type FlightRecord = obs.FlightRecord

// ShapeFlights is one query shape's retained records, slowest first.
type ShapeFlights = obs.ShapeFlights

// BackendFlights is every shape one backend's flight recorder holds.
type BackendFlights = obs.BackendFlights

// FlightReport snapshots every backend's slow-query flight recorder,
// sorted by backend — the programmatic /debug/flight.
func FlightReport() []BackendFlights { return telemetry.FlightReport() }

// WriteFlightReport renders a flight report as text, one block per
// record, slowest first (the /debug/flight?format=text rendering).
func WriteFlightReport(w io.Writer, report []BackendFlights) { obs.WriteFlightReport(w, report) }

// ResetFlightRecorders clears every backend's retained flight records.
func ResetFlightRecorders() {
	for _, in := range telemetry.All() {
		in.ResetFlights()
	}
}

// FlightReport snapshots this cluster's backend-kind flight recorder.
func (c *Cluster) FlightReport() BackendFlights {
	return telemetry.For(c.kind).FlightReport()
}

// TriggeredProfilingConfig bounds automatic pprof capture: when a query
// shape's SLO burn rate reaches BurnThreshold, or a single query's
// latency reaches LatencyThreshold, a CPU+heap profile pair is spooled
// to Dir. Captures are rate-limited (MinInterval apart, MaxCaptures
// total, one at a time). Zero-valued fields take defaults (2s CPU
// profile, 1m interval, 16 captures, a temp spool dir); both
// thresholds <= 0 means nothing ever trips.
type TriggeredProfilingConfig struct {
	Dir              string
	CPUDuration      time.Duration
	MinInterval      time.Duration
	MaxCaptures      int
	BurnThreshold    float64
	LatencyThreshold time.Duration
}

// ProfileCapture describes one completed (or failed) triggered capture.
type ProfileCapture = obs.ProfileCapture

// EnableTriggeredProfiling installs the process-wide profile trigger;
// captures surface on /debug/profiles and in TriggeredProfiles. It
// replaces any previously installed trigger.
func EnableTriggeredProfiling(cfg TriggeredProfilingConfig) {
	obs.SetProfileTrigger(obs.NewProfileTrigger(obs.ProfileTriggerConfig{
		Dir:              cfg.Dir,
		CPUDuration:      cfg.CPUDuration,
		MinInterval:      cfg.MinInterval,
		MaxCaptures:      cfg.MaxCaptures,
		BurnThreshold:    cfg.BurnThreshold,
		LatencyThreshold: cfg.LatencyThreshold,
	}))
}

// DisableTriggeredProfiling removes the process-wide profile trigger,
// waits for any in-flight capture to finish, and returns the trigger's
// completed captures (nil when none was installed).
func DisableTriggeredProfiling() []ProfileCapture {
	t := obs.SetProfileTrigger(nil)
	t.Wait()
	return t.Captures()
}

// TriggeredProfiles lists completed triggered captures, most recent
// first; nil when triggered profiling is off.
func TriggeredProfiles() []ProfileCapture {
	return obs.ActiveProfileTrigger().Captures()
}
