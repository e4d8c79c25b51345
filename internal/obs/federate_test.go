package obs_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"fxdist/internal/mempool"
	"fxdist/internal/obs"
)

// seriesKey is the test's own fleet-series identity: the name and every
// label except device, in sorted order.
func seriesKey(name string, labels map[string]string) string {
	var pairs []string
	for k, v := range labels {
		if k != "device" {
			pairs = append(pairs, k+"="+v)
		}
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// randomStats is one node's snapshot: a few counters and gauges whose
// series overlap across nodes once device is dropped, the four series the
// summary reads, and one histogram family on fixed bounds. Values are
// whole numbers, so sums are exact in any order.
func randomStats(rng *rand.Rand, dev int) obs.NodeStats {
	shapes := []string{"**", "s*", "*s", "ss"}
	var st obs.NodeStats
	add := func(name, kind string, v float64, labels map[string]string) {
		st.Metrics = append(st.Metrics, obs.MetricSample{Name: name, Kind: kind, Value: v, Labels: labels})
	}
	for _, shape := range shapes {
		if rng.Intn(3) == 0 {
			continue
		}
		dl := map[string]string{"device": fmt.Sprint(dev), "shape": shape}
		add("fxdist_netdist_server_shape_requests_total", "counter", float64(rng.Intn(500)), dl)
		add("fxdist_audit_max_deviation_buckets", "gauge", float64(rng.Intn(1000)), map[string]string{"shape": shape})
		add("fxdist_slo_burn_rate", "gauge", float64(rng.Intn(1000)), map[string]string{"backend": "netdist", "shape": shape})
	}
	add("fxdist_plancache_hit_total", "counter", float64(rng.Intn(100)), map[string]string{"backend": "netdist"})
	add("fxdist_plancache_miss_total", "counter", float64(rng.Intn(100)), map[string]string{"backend": "netdist"})
	add("fxdist_build_info", "gauge", 1, nil)
	for _, backend := range []string{"netdist", "memory"} {
		if rng.Intn(2) == 0 {
			continue
		}
		h := &obs.HistogramSnapshot{Bounds: []float64{0.001, 0.01, 0.1}, Counts: make([]uint64, 4)}
		for i := range h.Counts {
			h.Counts[i] = uint64(rng.Intn(50))
			h.Count += h.Counts[i]
		}
		h.Sum = float64(rng.Intn(10000))
		st.Metrics = append(st.Metrics, obs.MetricSample{Name: "fxdist_server_seconds", Kind: "histogram",
			Labels: map[string]string{"device": fmt.Sprint(dev), "backend": backend}, Histogram: h})
	}
	return st
}

// nodeModel is what the test expects of one node after its observations.
type nodeModel struct {
	stats           obs.NodeStats // the last successful pull's
	ok              bool          // last observation succeeded
	grew            bool          // coordinator errors grew at the last observation
	pulls, failures uint64
}

// TestFederatorMergeProperties feeds random pull sequences for random
// fleets and checks the report against sums and maxima computed here:
// merged counters are per-node sums over series equal after dropping
// device, merged histograms are element-wise sums, the summary's
// queries, worst digests and plan-cache hit rate follow from the nodes'
// samples, and Alive / Flagged follow from each node's last observation.
func TestFederatorMergeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1988))
	for trial := 0; trial < 200; trial++ {
		f := obs.NewFederator("prop")
		nodes := 1 + rng.Intn(6)
		model := make([]nodeModel, nodes)
		coordErrs := make([]uint64, nodes)
		for step := 0; step < 1+rng.Intn(4*nodes); step++ {
			dev := rng.Intn(nodes)
			prev := coordErrs[dev]
			coordErrs[dev] += uint64(rng.Intn(3) / 2) // grows one time in three
			m := &model[dev]
			m.grew = coordErrs[dev] > prev
			if m.ok = rng.Intn(4) != 0; m.ok {
				m.stats = randomStats(rng, dev)
				m.pulls++
				f.ObserveNode(nodeName(dev), m.stats, coordErrs[dev])
			} else {
				m.failures++
				f.ObserveFailure(nodeName(dev), errors.New("pull failed"), coordErrs[dev])
			}
		}
		rep := f.Report()

		wantSums := map[string]float64{}
		wantHist := map[string]*obs.HistogramSnapshot{}
		var queries uint64
		byShape := map[string]uint64{}
		var worstDisc, worstBurn float64
		var discNode, discShape, burnNode, burnShape string
		var hits, misses float64
		rows := 0
		for dev := range model {
			m := &model[dev]
			if m.pulls+m.failures == 0 {
				continue
			}
			rows++
			for _, ms := range m.stats.Metrics {
				key := seriesKey(ms.Name, ms.Labels)
				if h := ms.Histogram; h != nil {
					w := wantHist[key]
					if w == nil {
						w = &obs.HistogramSnapshot{Counts: make([]uint64, len(h.Counts))}
						wantHist[key] = w
					}
					for i, c := range h.Counts {
						w.Counts[i] += c
					}
					w.Count += h.Count
					w.Sum += h.Sum
					continue
				}
				wantSums[key] += ms.Value
				switch ms.Name {
				case "fxdist_netdist_server_shape_requests_total":
					queries += uint64(ms.Value)
					byShape[ms.Labels["shape"]] += uint64(ms.Value)
				case "fxdist_audit_max_deviation_buckets":
					if ms.Value > worstDisc {
						worstDisc, discNode, discShape = ms.Value, nodeName(dev), ms.Labels["shape"]
					}
				case "fxdist_slo_burn_rate":
					if ms.Value > worstBurn {
						worstBurn, burnNode, burnShape = ms.Value, nodeName(dev), ms.Labels["shape"]
					}
				case "fxdist_plancache_hit_total":
					hits += ms.Value
				case "fxdist_plancache_miss_total":
					misses += ms.Value
				}
			}
		}

		got := map[string]obs.MetricSample{}
		for _, ms := range rep.Merged {
			if _, ok := ms.Labels["device"]; ok {
				t.Fatalf("trial %d: merged series %s kept its device label", trial, ms.Name)
			}
			got[seriesKey(ms.Name, ms.Labels)] = ms
		}
		if len(got) != len(wantSums)+len(wantHist) {
			t.Fatalf("trial %d: %d merged series, want %d", trial, len(got), len(wantSums)+len(wantHist))
		}
		for key, want := range wantSums {
			if g, ok := got[key]; !ok || g.Value != want {
				t.Fatalf("trial %d: %s = %v, want the per-node sum %v", trial, key, g.Value, want)
			}
		}
		for key, want := range wantHist {
			g := got[key].Histogram
			if g == nil || fmt.Sprint(g.Counts) != fmt.Sprint(want.Counts) || g.Count != want.Count || g.Sum != want.Sum {
				t.Fatalf("trial %d: %s = %+v, want element-wise sums %+v", trial, key, g, want)
			}
		}

		sum := rep.Summary
		if sum.Queries != queries || fmt.Sprint(sum.QueriesByShape) != fmt.Sprint(nilIfEmpty(byShape)) {
			t.Errorf("trial %d: queries %d %v, want %d %v", trial, sum.Queries, sum.QueriesByShape, queries, byShape)
		}
		if sum.WorstDiscrepancy != worstDisc || sum.WorstDiscrepancyNode != discNode || sum.WorstDiscrepancyShape != discShape {
			t.Errorf("trial %d: worst discrepancy %v on %q/%q, want %v on %q/%q", trial,
				sum.WorstDiscrepancy, sum.WorstDiscrepancyNode, sum.WorstDiscrepancyShape, worstDisc, discNode, discShape)
		}
		if sum.WorstBurnRate != worstBurn || sum.WorstBurnNode != burnNode || sum.WorstBurnShape != burnShape {
			t.Errorf("trial %d: worst burn %v on %q/%q, want %v on %q/%q", trial,
				sum.WorstBurnRate, sum.WorstBurnNode, sum.WorstBurnShape, worstBurn, burnNode, burnShape)
		}
		wantRate := 0.0
		if hits+misses > 0 {
			wantRate = hits / (hits + misses)
		}
		if sum.PlanCacheHitRate != wantRate {
			t.Errorf("trial %d: plan cache hit rate %v, want %v", trial, sum.PlanCacheHitRate, wantRate)
		}

		if len(rep.Nodes) != rows {
			t.Fatalf("trial %d: %d node rows, want %d", trial, len(rep.Nodes), rows)
		}
		for _, row := range rep.Nodes {
			var dev int
			fmt.Sscanf(row.Node, "device-%d", &dev)
			m := model[dev]
			if row.Alive != m.ok || row.Flagged != (!m.ok || m.grew) || row.Pulls != m.pulls || row.Failures != m.failures {
				t.Errorf("trial %d: %s alive=%v flagged=%v pulls=%d failures=%d, want %v %v %d %d", trial, row.Node,
					row.Alive, row.Flagged, row.Pulls, row.Failures, m.ok, !m.ok || m.grew, m.pulls, m.failures)
			}
		}
	}
}

func nodeName(dev int) string { return fmt.Sprintf("device-%d", dev) }

func nilIfEmpty(m map[string]uint64) map[string]uint64 {
	if len(m) == 0 {
		return nil
	}
	return m
}

// TestFleetMempoolRecycleRate drives one pool through 11 misses and one
// hit, scrapes the pool gauges through a node registry, and reads the
// fleet's recycle rate off obs.Federator.Report: hits over every Get, 1/12,
// not the hits over themselves. The gauges are process totals, so the
// node's snapshot is the difference across the traffic.
func TestFleetMempoolRecycleRate(t *testing.T) {
	r := obs.NewRegistry()
	mempool.RegisterMetrics(r)
	gauges := func() map[string]float64 {
		m := make(map[string]float64)
		for _, s := range obs.LocalNodeStats("node-0", r).Metrics {
			m[s.Name] = s.Value
		}
		return m
	}
	before := gauges()
	p := mempool.NewBytesPool("test.fleet-rate")
	var b []byte
	for i := 0; i < 11; i++ {
		b = p.Get(64) // the class is empty: a miss
	}
	// sync.Pool may drop a Put under -race; each drop costs one more miss.
	for p.Stats().Gets == 0 {
		p.Put(b)
		b = p.Get(64)
	}
	after := gauges()
	var st obs.NodeStats
	for _, name := range []string{"fxdist_mempool_gets", "fxdist_mempool_recycled_slabs"} {
		st.Metrics = append(st.Metrics, obs.MetricSample{Name: name, Kind: "gauge", Value: after[name] - before[name]})
	}
	f := obs.NewFederator("netdist")
	f.ObserveNode("node-0", st, 0)
	ps := p.Stats()
	want := 1 / float64(1+ps.Misses)
	if got := f.Report().Summary.MempoolRecycleRate; got != want {
		t.Errorf("mempool recycle rate = %v, want %v (pool stats %+v)", got, want, ps)
	}
	if ps.Gets != 1 || ps.Misses < 11 {
		t.Errorf("pool stats = %+v, want 1 hit and at least 11 misses", ps)
	}
}
