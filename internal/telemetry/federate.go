package telemetry

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"fxdist/internal/obs"
)

// Metrics federation: every node can serialise its registry into a
// NodeStats snapshot; the netdist coordinator pulls one per server over
// the wire protocol (Request.Stats), adds its own once, and folds them
// into a Federator,
// which merges counters/gauges/histograms across nodes and renders the
// fleet view on /debug/cluster.

// MetricSample is one metric point in a node snapshot — the
// wire/merge-friendly form of obs.Point.
type MetricSample struct {
	Name      string                 `json:"name"`
	Kind      string                 `json:"kind"` // counter | gauge | histogram
	Labels    map[string]string      `json:"labels,omitempty"`
	Value     float64                `json:"value,omitempty"`
	Histogram *obs.HistogramSnapshot `json:"histogram,omitempty"`
}

// NodeStats is one node's self-description plus its full metric
// snapshot.
type NodeStats struct {
	Node          string         `json:"node"`
	Version       string         `json:"version"`
	GoVersion     string         `json:"goversion"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Time          time.Time      `json:"time"` // node's clock at snapshot
	Metrics       []MetricSample `json:"metrics"`
}

// LocalNodeStats snapshots registry r as node's NodeStats.
func LocalNodeStats(node string, r *obs.Registry) NodeStats {
	st := NodeStats{
		Node:          node,
		Version:       obs.BuildVersion(),
		GoVersion:     runtime.Version(),
		UptimeSeconds: obs.Uptime().Seconds(),
		Time:          time.Now(),
	}
	for _, p := range r.Snapshot() {
		ms := MetricSample{Name: p.Name, Kind: p.Kind.String()}
		if len(p.Labels) > 0 {
			ms.Labels = make(map[string]string, len(p.Labels))
			for _, l := range p.Labels {
				ms.Labels[l.Key] = l.Value
			}
		}
		if p.Histogram != nil {
			h := *p.Histogram
			ms.Histogram = &h
		} else {
			ms.Value = p.Value
		}
		st.Metrics = append(st.Metrics, ms)
	}
	return st
}

// EncodeNodeStats serialises a snapshot for the wire (the netdist
// Response carries it as an opaque JSON blob so the binary codec stays
// schema-stable as metrics evolve).
func EncodeNodeStats(st NodeStats) ([]byte, error) { return json.Marshal(st) }

// DecodeNodeStats parses a wire snapshot.
func DecodeNodeStats(b []byte) (NodeStats, error) {
	var st NodeStats
	err := json.Unmarshal(b, &st)
	return st, err
}

// nodeState is the federator's book-keeping for one node.
type nodeState struct {
	stats           NodeStats
	lastPull        time.Time
	lastErr         string
	pulls, failures uint64
	consecFails     int
	coordErrors     uint64 // coordinator-observed transport errors for this node
	prevCoordErrors uint64
	flagged         bool
	flagReason      string
}

// Federator accumulates node snapshots into one fleet view. Its
// coordinator's stats-pull loop feeds it; the coordinator's cluster
// serves it on /debug/cluster.
type Federator struct {
	cluster string
	mu      sync.Mutex
	nodes   map[string]*nodeState
}

// NewFederator returns an empty federator for one cluster label.
func NewFederator(cluster string) *Federator {
	return &Federator{cluster: cluster, nodes: make(map[string]*nodeState)}
}

func (f *Federator) node(name string) *nodeState {
	n := f.nodes[name]
	if n == nil {
		n = &nodeState{}
		f.nodes[name] = n
	}
	return n
}

// ObserveNode records a successful pull. coordErrors is the pulling
// coordinator's cumulative transport-error count for the node; growth
// between pulls flags the node even when the pull itself succeeds —
// injected faults surface at the coordinator seam, not in the node's
// own snapshot.
func (f *Federator) ObserveNode(name string, st NodeStats, coordErrors uint64) {
	f.mu.Lock()
	n := f.node(name)
	n.stats = st
	n.lastPull = time.Now()
	n.lastErr = ""
	n.pulls++
	n.consecFails = 0
	n.prevCoordErrors, n.coordErrors = n.coordErrors, coordErrors
	if grew := coordErrors - n.prevCoordErrors; coordErrors > n.prevCoordErrors {
		n.flagged = true
		n.flagReason = fmt.Sprintf("coordinator observed %d new transport errors since last pull", grew)
	} else {
		n.flagged = false
		n.flagReason = ""
	}
	f.mu.Unlock()
}

// ObserveFailure records a failed pull.
func (f *Federator) ObserveFailure(name string, err error, coordErrors uint64) {
	f.mu.Lock()
	n := f.node(name)
	n.lastErr = err.Error()
	n.failures++
	n.consecFails++
	n.prevCoordErrors, n.coordErrors = n.coordErrors, coordErrors
	n.flagged = true
	n.flagReason = fmt.Sprintf("stats pull failed: %v", err)
	f.mu.Unlock()
}

// NodeRow is one node's line in the cluster report.
type NodeRow struct {
	Node          string    `json:"node"`
	Alive         bool      `json:"alive"`
	LastPull      time.Time `json:"last_pull,omitempty"`
	LagSeconds    float64   `json:"lag_seconds"`
	UptimeSeconds float64   `json:"uptime_seconds,omitempty"`
	Version       string    `json:"version,omitempty"`
	GoVersion     string    `json:"goversion,omitempty"`
	Pulls         uint64    `json:"pulls"`
	Failures      uint64    `json:"failures,omitempty"`
	CoordErrors   uint64    `json:"coord_errors,omitempty"`
	Flagged       bool      `json:"flagged,omitempty"`
	FlagReason    string    `json:"flag_reason,omitempty"`
	Err           string    `json:"err,omitempty"`
}

// Summary is the fleet-level digest fxtop leads with.
type Summary struct {
	// Queries sums per-shape server request counts across the fleet;
	// QueriesByShape is its per-shape breakdown.
	Queries        uint64            `json:"queries"`
	QueriesByShape map[string]uint64 `json:"queries_by_shape,omitempty"`
	// WorstDiscrepancy is the largest per-device excess over the strict
	// bound anywhere in the fleet (fxdist_audit_max_deviation_buckets).
	WorstDiscrepancy      float64 `json:"worst_discrepancy"`
	WorstDiscrepancyNode  string  `json:"worst_discrepancy_node,omitempty"`
	WorstDiscrepancyShape string  `json:"worst_discrepancy_shape,omitempty"`
	// WorstBurnRate is the highest SLO burn rate anywhere in the fleet.
	WorstBurnRate      float64 `json:"worst_burn_rate"`
	WorstBurnNode      string  `json:"worst_burn_node,omitempty"`
	WorstBurnShape     string  `json:"worst_burn_shape,omitempty"`
	PlanCacheHitRate   float64 `json:"plan_cache_hit_rate"`
	MempoolRecycleRate float64 `json:"mempool_recycle_rate"`
}

// ClusterReport is the merged fleet view served on /debug/cluster.
type ClusterReport struct {
	Cluster   string         `json:"cluster"`
	Generated time.Time      `json:"generated"`
	Nodes     []NodeRow      `json:"nodes"`
	Summary   Summary        `json:"summary"`
	Merged    []MetricSample `json:"merged,omitempty"`
}

// droppedMergeLabels are node-identifying labels removed before
// cross-node merging, so per-device series from different nodes sum
// into one fleet series (standard federation practice).
var droppedMergeLabels = map[string]bool{"device": true}

func mergeKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !droppedMergeLabels[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range keys {
		b.WriteByte(0xff)
		b.WriteString(k)
		b.WriteByte(0xfe)
		b.WriteString(labels[k])
	}
	return b.String()
}

func mergedLabels(labels map[string]string) map[string]string {
	out := make(map[string]string, len(labels))
	for k, v := range labels {
		if !droppedMergeLabels[k] {
			out[k] = v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// mergeHistogram folds src into dst (same bounds required; snapshots
// with different bucketing are kept separate by key, so this only sees
// compatible pairs in practice — incompatible ones are skipped).
func mergeHistogram(dst, src *obs.HistogramSnapshot) {
	if len(dst.Bounds) != len(src.Bounds) || len(dst.Counts) != len(src.Counts) {
		return
	}
	for i := range dst.Counts {
		dst.Counts[i] += src.Counts[i]
	}
	dst.Count += src.Count
	dst.Sum += src.Sum
}

// Report merges the latest snapshot of every node into one fleet view.
func (f *Federator) Report() ClusterReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	rep := ClusterReport{Cluster: f.cluster, Generated: time.Now()}
	merged := make(map[string]*MetricSample)
	var order []string

	names := make([]string, 0, len(f.nodes))
	for name := range f.nodes {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		n := f.nodes[name]
		row := NodeRow{
			Node:        name,
			Alive:       n.consecFails == 0 && !n.lastPull.IsZero(),
			LastPull:    n.lastPull,
			Pulls:       n.pulls,
			Failures:    n.failures,
			CoordErrors: n.coordErrors,
			Flagged:     n.flagged,
			FlagReason:  n.flagReason,
			Err:         n.lastErr,
		}
		if !n.lastPull.IsZero() {
			row.LagSeconds = time.Since(n.lastPull).Seconds()
			row.UptimeSeconds = n.stats.UptimeSeconds
			row.Version = n.stats.Version
			row.GoVersion = n.stats.GoVersion
		}
		rep.Nodes = append(rep.Nodes, row)

		for i := range n.stats.Metrics {
			ms := &n.stats.Metrics[i]
			key := mergeKey(ms.Name, ms.Labels)
			dst := merged[key]
			if dst == nil {
				cp := MetricSample{Name: ms.Name, Kind: ms.Kind, Labels: mergedLabels(ms.Labels), Value: ms.Value}
				if ms.Histogram != nil {
					h := obs.HistogramSnapshot{
						Bounds: append([]float64(nil), ms.Histogram.Bounds...),
						Counts: append([]uint64(nil), ms.Histogram.Counts...),
						Count:  ms.Histogram.Count,
						Sum:    ms.Histogram.Sum,
					}
					cp.Histogram = &h
				}
				merged[key] = &cp
				order = append(order, key)
			} else if ms.Histogram != nil && dst.Histogram != nil {
				mergeHistogram(dst.Histogram, ms.Histogram)
			} else {
				dst.Value += ms.Value
			}

			// Fleet-level worst-of digests (max, not sum).
			switch ms.Name {
			case "fxdist_audit_max_deviation_buckets":
				if ms.Value > rep.Summary.WorstDiscrepancy {
					rep.Summary.WorstDiscrepancy = ms.Value
					rep.Summary.WorstDiscrepancyNode = name
					rep.Summary.WorstDiscrepancyShape = ms.Labels["shape"]
				}
			case "fxdist_slo_burn_rate":
				if ms.Value > rep.Summary.WorstBurnRate {
					rep.Summary.WorstBurnRate = ms.Value
					rep.Summary.WorstBurnNode = name
					rep.Summary.WorstBurnShape = ms.Labels["shape"]
				}
			case "fxdist_netdist_server_shape_requests_total":
				if shape := ms.Labels["shape"]; shape != "" {
					if rep.Summary.QueriesByShape == nil {
						rep.Summary.QueriesByShape = make(map[string]uint64)
					}
					rep.Summary.QueriesByShape[shape] += uint64(ms.Value)
					rep.Summary.Queries += uint64(ms.Value)
				}
			}
		}
	}

	sort.Strings(order)
	var hits, misses, poolGets, poolRecycled float64
	for _, key := range order {
		ms := merged[key]
		rep.Merged = append(rep.Merged, *ms)
		switch ms.Name {
		case "fxdist_plancache_hit_total":
			hits += ms.Value
		case "fxdist_plancache_miss_total":
			misses += ms.Value
		case "fxdist_mempool_gets":
			poolGets += ms.Value
		case "fxdist_mempool_recycled_slabs":
			poolRecycled += ms.Value
		}
	}
	if hits+misses > 0 {
		rep.Summary.PlanCacheHitRate = hits / (hits + misses)
	}
	if poolGets > 0 {
		rep.Summary.MempoolRecycleRate = poolRecycled / poolGets
	}
	return rep
}

// Fleets is the /debug/cluster document: the fleet view under its
// cluster label, or no fleet at all before the first pull (and on a nil
// federator, a cluster that pulls no stats).
func (f *Federator) Fleets() map[string]ClusterReport {
	out := make(map[string]ClusterReport, 1)
	if f == nil {
		return out
	}
	f.mu.Lock()
	pulled := len(f.nodes) > 0
	f.mu.Unlock()
	if pulled {
		out[f.cluster] = f.Report()
	}
	return out
}
