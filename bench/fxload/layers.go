package main

import (
	"context"
	"errors"
	"path/filepath"
	"sort"
	"time"

	"fxdist"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/plancache"
	"fxdist/internal/query"
)

// layerUnits lists every per-layer metric the traced run adds to the
// window's load.* diagnostics, with its unit, in report order. A run
// reports all of them; a layer the workload bypasses reports 0, which
// is the prediction for it.
var layerUnits = []struct{ name, unit string }{
	{"client.self_us", "us"},
	{"client.resp_bytes_per_op", "B"},
	{"gate.self_us", "us"},
	{"gate.batches_per_op", "count"},
	{"gate.coalesced_frac", "ratio"},
	{"gate.rejected", "count"},
	{"facade.spec_us", "us"},
	{"netdist.self_us", "us"},
	{"netdist.wire_bytes_per_op", "B"},
	{"netdist.dispatch_us", "us"},
	{"netdist.wait_us", "us"},
	{"netdist.decode_us", "us"},
	{"engine.retrieve_us", "us"},
	{"engine.batch16_us_per_query", "us"},
	{"engine.fanout_devices_per_op", "count"},
	{"obs.stage_plan_us", "us"},
	{"obs.stage_fanout_us", "us"},
	{"obs.stage_merge_us", "us"},
	{"obs.stage_audit_us", "us"},
	{"obs.stage_scan_us", "us"},
	{"obs.stage_sum_over_engine", "ratio"},
	{"telemetry.events_per_op", "count"},
	{"plancache.hit_rate", "ratio"},
	{"plancache.entries", "count"},
	{"plancache.bytes", "B"},
	{"plancache.compile_us", "us"},
	{"decluster.max_load_over_bound", "ratio"},
	{"decluster.rq_buckets_per_op", "count"},
	{"decluster.address_ns", "ns"},
	{"decluster.inverse_us", "us"},
	{"mkhash.bucketquery_us", "us"},
	{"mkhash.search_us", "us"},
	{"storage.records_scanned_per_op", "count"},
	{"storage.records_returned_per_op", "count"},
	{"storage.scan_selectivity", "ratio"},
	{"storage.insert_us", "us"},
	{"storage.sync_us", "us"},
	{"pagestore.scan_us_per_bucket", "us"},
	{"pagestore.append_us", "us"},
	{"pagestore.disk_bytes_per_user_byte", "ratio"},
	{"pagestore.open_recovery_s", "s"},
	{"mempool.recycle_ratio", "ratio"},
	{"ladder.client_us", "us"},
	{"ladder.gate_us", "us"},
	{"ladder.netdist_us", "us"},
	{"load.trace_overhead_frac", "ratio"},
}

// perCall times n calls of fn, reps times over, and returns the median
// repetition's nanoseconds per call: the way to time calls too short
// for one clock reading each.
func perCall(reps, n int, fn func(i int)) float64 {
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// stageCosts folds a backend's per-shape cost report into one mean per
// stage: nanoseconds and bytes per recorded sample (one sample per
// query for the engine's stages, one per device request for net.*).
type stageCosts struct {
	wallNs  map[string]float64
	bytes   map[string]float64 // total bytes, not per sample
	queries float64
}

func foldStages(rep fxdist.BackendCost) stageCosts {
	sc := stageCosts{wallNs: make(map[string]float64), bytes: make(map[string]float64)}
	counts := make(map[string]float64)
	for _, shape := range rep.Shapes {
		sc.queries += float64(shape.Queries)
		for _, st := range shape.Stages {
			counts[st.Stage] += float64(st.Count)
			sc.wallNs[st.Stage] += float64(st.MeanWall) * float64(st.Count)
			sc.bytes[st.Stage] += st.MeanBytes * float64(st.Count)
		}
	}
	for stage, n := range counts {
		if n > 0 {
			sc.wallNs[stage] /= n
		}
	}
	return sc
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traceLayers is the traced run: after the timed window (whose numbers
// are already frozen) it replays the ladder, times the layers that are
// too fast for spans in loops, reads the counts the program reports
// about the window, writes the trace file and returns every per-layer
// metric.
func (r *runner) traceLayers(ctx context.Context, win *windowResult, load []metric) ([]metric, error) {
	n := r.opt.traceOps
	if n > len(r.streams[0]) {
		n = len(r.streams[0])
	}
	qs := r.streams[0][:n]
	t := &tracer{t0: time.Now()}
	lad, err := r.readLadder(ctx, t, n)
	if lad != nil {
		defer func() {
			for _, c := range lad.closers {
				c() //nolint:errcheck // memory backend: Close never fails
			}
		}()
	}
	if err != nil {
		return nil, err
	}
	if err := t.write(filepath.Join(r.opt.outDir, "trace-"+r.w.name+".json"), r.w.name, r.opt.seed); err != nil {
		return nil, err
	}

	v := make(map[string]float64)
	us := func(spans []span) float64 { return median(durationsOf(spans)) / 1e3 }
	st := r.stack

	// Ladder: rung medians and self times.
	if st.gate != nil {
		v["ladder.client_us"] = us(lad.rungs["client"])
		v["ladder.gate_us"] = us(lad.rungs["gate"])
		v["ladder.netdist_us"] = us(lad.rungs["netdist"])
		v["client.self_us"] = median(selfTimes(lad.rungs["client"], lad.rungs["gate"])) / 1e3
		v["gate.self_us"] = median(selfTimes(lad.rungs["gate"], lad.rungs["netdist"])) / 1e3
		v["netdist.self_us"] = median(selfTimes(lad.rungs["netdist"], lad.rungs["engine"])) / 1e3
		v["client.resp_bytes_per_op"] = lad.respBytes
		net := foldStages(lad.netRep)
		v["netdist.dispatch_us"] = net.wallNs[obs.StageNetDispatch] / 1e3
		v["netdist.wait_us"] = net.wallNs[obs.StageNetWait] / 1e3
		v["netdist.decode_us"] = net.wallNs[obs.StageNetDecode] / 1e3
		v["netdist.wire_bytes_per_op"] = ratio(net.bytes[obs.StageNetDispatch]+net.bytes[obs.StageNetDecode], net.queries)
	}
	v["engine.retrieve_us"] = us(lad.rungs["engine"])
	v["mkhash.search_us"] = us(lad.rungs["mkhash"])

	// The program's own attribution of the engine rung, against the
	// same calls timed from outside.
	eng := foldStages(lad.engineRep)
	top := 0.0
	for _, stage := range obs.TopStages {
		top += eng.wallNs[stage]
	}
	v["obs.stage_plan_us"] = eng.wallNs[obs.StagePlan] / 1e3
	v["obs.stage_fanout_us"] = eng.wallNs[obs.StageFanout] / 1e3
	v["obs.stage_merge_us"] = eng.wallNs[obs.StageMerge] / 1e3
	v["obs.stage_audit_us"] = eng.wallNs[obs.StageAudit] / 1e3
	v["obs.stage_scan_us"] = eng.wallNs[obs.StageDeviceScan] / 1e3
	v["obs.stage_sum_over_engine"] = ratio(top, mean(durationsOf(lad.rungs["engine"])))

	// Exact counts over the engine rung's fixed query sequence.
	ops := float64(lad.engine.ops)
	v["engine.fanout_devices_per_op"] = float64(lad.engine.devices) / ops
	v["decluster.max_load_over_bound"] = lad.engine.loadOverBound / ops
	v["decluster.rq_buckets_per_op"] = float64(lad.engine.rq) / ops
	v["storage.records_scanned_per_op"] = float64(lad.engine.scanned) / ops
	v["storage.records_returned_per_op"] = float64(lad.engine.returned) / ops
	v["storage.scan_selectivity"] = ratio(float64(lad.engine.returned), float64(lad.engine.scanned))

	if err := r.timeFastLayers(ctx, lad.engineOn, qs, v); err != nil {
		return nil, err
	}

	// Counts the program reports about the timed window.
	okOps := float64(win.ok())
	b, a := win.before, win.after
	if st.gate != nil {
		v["gate.batches_per_op"] = float64(a.gate.Batches-b.gate.Batches) / okOps
		v["gate.coalesced_frac"] = float64(a.gate.CoalescedQueries-b.gate.CoalescedQueries) / okOps
		v["gate.rejected"] = float64((a.gate.RateLimited + a.gate.QuotaRejected + a.gate.BurnSheds + a.gate.FrontSheds) -
			(b.gate.RateLimited + b.gate.QuotaRejected + b.gate.BurnSheds + b.gate.FrontSheds))
	}
	v["telemetry.events_per_op"] = float64(a.eventsSeen-b.eventsSeen) / okOps
	hits, misses := float64(a.plan.Hits-b.plan.Hits), float64(a.plan.Misses-b.plan.Misses)
	v["plancache.hit_rate"] = ratio(hits, hits+misses)
	v["plancache.entries"] = float64(a.plan.Entries)
	v["plancache.bytes"] = float64(a.plan.Bytes)
	v["mempool.recycle_ratio"] = ratio(float64(a.poolGets-b.poolGets), float64(a.poolAsks-b.poolAsks))

	if st.dir != "" {
		v["storage.insert_us"] = us(lad.rungs["storage.insert"])
		v["storage.sync_us"] = median(lad.syncNs) / 1e3
		v["pagestore.append_us"] = us(lad.rungs["pagestore.append"])
		scanNs := 0.0
		for _, d := range durationsOf(lad.rungs["pagestore"]) {
			scanNs += d
		}
		v["pagestore.scan_us_per_bucket"] = ratio(scanNs, float64(lad.pageScans)) / 1e3
		v["pagestore.disk_bytes_per_user_byte"] = ratio(float64(lad.diskBytes), float64(lad.userBytes))
		v["pagestore.open_recovery_s"] = lad.recovery
	}

	// Cost of recording one span, against the window's median latency.
	empty := &tracer{t0: time.Now()}
	t0 := time.Now()
	if _, err := empty.pass("empty", nil, 10000, func(int) {}, nil); err != nil {
		return nil, err
	}
	for _, m := range load {
		if m.name == "load.lat_p50_ms" {
			v["load.trace_overhead_frac"] = ratio(float64(time.Since(t0).Nanoseconds())/10000, m.value*1e6)
		}
	}

	out := make([]metric, len(layerUnits))
	for i, lu := range layerUnits {
		out[i] = metric{lu.name, v[lu.name], lu.unit}
	}
	return out, nil
}

// timeFastLayers times, in loops, the calls below the engine's entry
// point that are too short for one span each.
func (r *runner) timeFastLayers(ctx context.Context, engine *fxdist.Cluster, qs []poolQuery, v map[string]float64) error {
	st := r.stack
	n := len(qs)
	const reps = 9
	var errs []error
	note := func(err error) {
		if err != nil && len(errs) < maxErrs {
			errs = append(errs, err)
		}
	}

	v["facade.spec_us"] = perCall(reps, n, func(i int) {
		_, err := engine.Spec(qs[i].pairs)
		note(err)
	}) / 1e3

	bqs := make([]query.Query, n)
	for i := range qs {
		var err error
		if bqs[i], err = st.file.BucketQuery(qs[i].pm); err != nil {
			return err
		}
	}
	v["mkhash.bucketquery_us"] = perCall(reps, n, func(i int) {
		_, err := st.file.BucketQuery(qs[i].pm)
		note(err)
	}) / 1e3

	fs := st.alloc.FileSystem()
	coords := make([][]int, 1024)
	for i := range coords {
		coords[i] = fs.Coords((i*7919)%fs.NumBuckets(), nil)
	}
	sink := 0
	v["decluster.address_ns"] = perCall(reps, len(coords), func(i int) { sink += st.alloc.Device(coords[i]) })

	im := query.NewInverseMapper(st.alloc)
	v["decluster.inverse_us"] = perCall(reps, n, func(i int) {
		im.EachOnDevice(bqs[i], i%fs.M, func([]int) { sink++ })
	}) / 1e3

	// The plan cache's miss cost: compiling each distinct shape once.
	var compileNs []float64
	seen := make(map[string]bool)
	for i := range qs {
		if !seen[qs[i].shape] {
			seen[qs[i].shape] = true
			t0 := time.Now()
			plan := plancache.Compile(st.alloc, bqs[i], plancache.DefaultMaxTuples)
			compileNs = append(compileNs, float64(time.Since(t0).Nanoseconds()))
			sink += plan.Bytes()
		}
	}
	v["plancache.compile_us"] = median(compileNs) / 1e3

	// RetrieveBatch of 16 same-shape queries, per query: what the
	// gate's coalescing buys at the engine.
	byShape := make(map[string][]mkhash.PartialMatch)
	for i := range r.streams[0] {
		q := &r.streams[0][i]
		byShape[q.shape] = append(byShape[q.shape], q.pm)
	}
	shapes := make([]string, 0, len(byShape))
	for s := range byShape {
		shapes = append(shapes, s)
	}
	sort.Slice(shapes, func(i, j int) bool {
		if len(byShape[shapes[i]]) != len(byShape[shapes[j]]) {
			return len(byShape[shapes[i]]) > len(byShape[shapes[j]])
		}
		return shapes[i] < shapes[j]
	})
	const batch = 16
	var batchNs []float64
	for _, s := range shapes {
		pms := byShape[s]
		for len(pms) >= batch && len(batchNs) < 32 {
			t0 := time.Now()
			_, err := engine.RetrieveBatch(ctx, pms[:batch])
			batchNs = append(batchNs, float64(time.Since(t0).Nanoseconds())/batch)
			note(err)
			pms = pms[batch:]
		}
	}
	v["engine.batch16_us_per_query"] = median(batchNs) / 1e3

	_ = sink
	return errors.Join(errs...)
}
