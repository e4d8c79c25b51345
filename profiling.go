package fxdist

import (
	"io"

	"fxdist/internal/obs"
)

// Profiling: the per-query cost-attribution surface. Every retrieval on
// every backend records a stage breakdown — plan (cache hit or
// compile), fanout (the paper's max-over-devices term), merge, audit —
// by wall time, aggregated per query shape in each cluster's own store. The distributed coordinator additionally
// attributes the wire path (dispatch → first byte → decode, with wire
// byte counts). A cluster serves its own on /debug/hotpath, and the
// slowest queries per shape are retained with full evidence on
// /debug/flight.

// StageSample is one stage measurement of one query (a kept QueryEvent's
// Stages): wall time, plus wire bytes on the coordinator's net.* stages.
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

// BackendCost is every profiled query shape of one cluster.
type BackendCost = obs.BackendCost

// ResetCostProfilers zeroes the accumulated cost profile of every open
// cluster. It reads the process's set of open clusters, which exists
// for it and QueryLogStatsFor alone (bench/fxload calls both).
func ResetCostProfilers() {
	eachOpen(func(c *Cluster) { c.backend().Instruments().ResetCosts() })
}

// CostReport snapshots this cluster's cost profile (its /debug/hotpath).
func (c *Cluster) CostReport() BackendCost {
	return c.backend().Instruments().CostReport()
}

// FlightDevice is one device's share of a recorded slow query.
type FlightDevice = obs.QueryDevice

// FlightRecord is one retained slow query: stage breakdown, span
// events (retry/hedge/breaker decisions), plan-cache hit/miss, and
// per-device bucket counts against the strict bound ceil(|R(q)|/M).
type FlightRecord = obs.FlightRecord

// ShapeFlights is one query shape's retained records, slowest first.
type ShapeFlights = obs.ShapeFlights

// BackendFlights is every shape one cluster's flight recorder holds.
type BackendFlights = obs.BackendFlights

// WriteFlightReport renders a flight report as text, one block per
// record, slowest first (the /debug/flight?format=text rendering).
func WriteFlightReport(w io.Writer, report []BackendFlights) { obs.WriteFlightReport(w, report) }

// FlightReport snapshots this cluster's slow-query flight recorder (its
// /debug/flight).
func (c *Cluster) FlightReport() BackendFlights {
	return c.backend().Instruments().FlightReport()
}
