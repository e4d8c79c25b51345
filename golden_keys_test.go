package fxdist_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"testing"

	"fxdist"
	"fxdist/internal/gate"
)

// keySet pins the JSON keys of one kind of /debug record: required keys
// must be present, optional ones (omitempty fields) may be, and nothing
// else may appear. required+optional is the key set as of PR 13; added
// lists keys later PRs introduced — additions are allowed, removals and
// renames are not, so nothing may ever move out of the first two lists.
type keySet struct {
	required, optional, added []string
}

func (ks keySet) check(t *testing.T, what string, obj map[string]any) {
	t.Helper()
	known := make(map[string]bool)
	for _, k := range ks.required {
		known[k] = true
		if _, ok := obj[k]; !ok {
			t.Errorf("%s: key %q is gone (removed or renamed)", what, k)
		}
	}
	for _, k := range append(ks.optional, ks.added...) {
		known[k] = true
	}
	var unknown []string
	for k := range obj {
		if !known[k] {
			unknown = append(unknown, k)
		}
	}
	sort.Strings(unknown)
	if len(unknown) > 0 {
		t.Errorf("%s: unpinned keys %v — add them to the golden set's added list", what, unknown)
	}
}

var (
	stageSampleKeys = keySet{
		required: []string{"stage", "wall_ns"},
		optional: []string{"bytes", "objects", "recycled_bytes", "recycled_slabs"},
	}
	flightRecordKeys = keySet{
		required: []string{"backend", "shape", "start", "elapsed_ns", "plan_cache_hit", "rq", "bound", "stages", "devices"},
		optional: []string{"trace_id", "events", "err"},
		// PR 14: the flight record is a view of the one query record and
		// carries its verdicts too.
		added: []string{"tenant", "max_device_buckets", "bound_violation", "slow", "slo_target_ns",
			"partial", "coverage", "failed_devices", "keep"},
	}
	flightDeviceKeys = keySet{
		required: []string{"device", "buckets", "scan_ns"},
		optional: []string{"err"},
	}
	eventKeys = keySet{
		required: []string{"time", "backend", "shape", "tenant", "trace_id", "elapsed_ns", "plan_cache_hit",
			"rq", "bound", "max_device_buckets", "bound_violation", "devices", "stages", "keep"},
		optional: []string{"slow", "slo_target_ns", "err", "partial", "coverage", "failed_devices"},
		// PR 14: the span's annotation log, when the flight recorder
		// admitted the same record.
		added: []string{"events"},
	}
	eventDeviceKeys = keySet{
		required: []string{"device", "buckets"},
		optional: []string{"scan_ns", "err"},
	}
	eventStatsKeys = keySet{
		required: []string{"backend", "seen", "kept", "capacity", "head_per_shape", "sample_every"},
		optional: []string{"shapes"},
	}
	hotpathShapeKeys = keySet{
		required: []string{"shape", "queries", "mean_total_ns", "stage_coverage", "stages"},
	}
	hotpathStageKeys = keySet{
		required: []string{"stage", "count", "mean_wall_ns", "max_wall_ns", "mean_bytes", "mean_objects", "wall_frac"},
		optional: []string{"mean_recycled_bytes", "mean_recycled_slabs"},
	}
	optimalityShapeKeys = keySet{
		required: []string{"shape", "queries", "violations", "max_deviation", "mean_deviation", "worst_device",
			"bound", "r_q", "m", "max_device_buckets"},
		optional: []string{"slo_target_ns", "slo_goal", "slo_good", "slo_bad", "slo_burn_rate"},
		added:    []string{"mismatches"},
	}
	// /debug/tenants, pinned as of PR 17, which took coalesce_window_ms
	// out with the window itself: the key must not come back.
	tenantsReportKeys = keySet{
		required: []string{"max_batch", "waiting", "batches", "coalesced_queries", "direct_batches",
			"rate_limited", "quota_rejected", "burn_sheds", "front_sheds", "tenants"},
	}
	tenantRowKeys = keySet{
		required: []string{"name", "in_flight", "requests", "rate_limited", "quota_rejected", "shed",
			"errors", "coalesced_queries"},
		optional: []string{"rate_per_sec", "max_in_flight", "shapes"},
	}
	tenantShapeKeys = keySet{
		required: []string{"shape", "queries", "errors", "mean_ms", "max_ms"},
	}
)

// backendShape digs the "**s" row of backend "memory" out of a
// [{backend, shapes:[{shape,...}]}] debug document.
func backendShape(t *testing.T, path string, doc []map[string]any) map[string]any {
	t.Helper()
	for _, b := range doc {
		if b["backend"] != "memory" {
			continue
		}
		for _, s := range b["shapes"].([]any) {
			if row := s.(map[string]any); row["shape"] == "**s" {
				return row
			}
		}
	}
	t.Fatalf("%s: no memory/**s row", path)
	return nil
}

// TestDebugJSONGoldenKeys pins the JSON key sets of the per-query
// records the reporting sinks serve — /debug/flight, /debug/events,
// /debug/hotpath and /debug/optimality — for one tenant-attributed,
// bound-violating (hence always-kept) Modulo query on the memory
// backend, and of the gate's /debug/tenants after one fx.retrieve of
// the same query. Dashboards and the CI telemetry job parse these documents;
// a key may be added, never removed or renamed.
func TestDebugJSONGoldenKeys(t *testing.T) {
	fxdist.ResetFlightRecorders()
	file, alloc := buildTelemetryFile(t)
	c, err := fxdist.Open(fxdist.Config{File: file, Allocator: alloc})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pm, err := file.Spec(map[string]string{"z": "z-3"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RetrieveContext(fxdist.ContextWithCaller(context.Background(), "golden"), pm)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == 0 {
		t.Fatal("retrieval carries no trace id")
	}

	srv := httptest.NewServer(fxdist.MetricsHandler())
	defer srv.Close()
	get := func(path string, doc any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		dec.UseNumber() // trace ids exceed float64's integer range
		if err := dec.Decode(doc); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	byTrace := func(path string, recs []any) map[string]any {
		t.Helper()
		for _, r := range recs {
			rec := r.(map[string]any)
			if id, _ := rec["trace_id"].(json.Number); id.String() == strconv.FormatUint(res.TraceID, 10) {
				return rec
			}
		}
		t.Fatalf("%s: no record for trace %d", path, res.TraceID)
		return nil
	}
	each := func(ks keySet, what string, list any) {
		t.Helper()
		items, _ := list.([]any)
		if len(items) == 0 {
			t.Errorf("%s: empty", what)
		}
		for _, it := range items {
			ks.check(t, what, it.(map[string]any))
		}
	}

	var flights []map[string]any
	get("/debug/flight", &flights)
	flight := byTrace("/debug/flight", backendShape(t, "/debug/flight", flights)["records"].([]any))
	flightRecordKeys.check(t, "flight record", flight)
	each(flightDeviceKeys, "flight record device", flight["devices"])
	each(stageSampleKeys, "flight record stage", flight["stages"])

	var events map[string]map[string]any
	get("/debug/events?backend=memory", &events)
	mem, ok := events["memory"]
	if !ok {
		t.Fatal("/debug/events: no memory backend")
	}
	eventStatsKeys.check(t, "event log stats", mem["stats"].(map[string]any))
	event := byTrace("/debug/events", mem["events"].([]any))
	eventKeys.check(t, "wide event", event)
	each(eventDeviceKeys, "wide event device", event["devices"])
	each(stageSampleKeys, "wide event stage", event["stages"])

	var hotpath []map[string]any
	get("/debug/hotpath", &hotpath)
	cost := backendShape(t, "/debug/hotpath", hotpath)
	hotpathShapeKeys.check(t, "hotpath shape", cost)
	each(hotpathStageKeys, "hotpath stage", cost["stages"])

	var optimality []map[string]any
	get("/debug/optimality", &optimality)
	optimalityShapeKeys.check(t, "optimality shape", backendShape(t, "/debug/optimality", optimality))

	g, err := gate.New(gate.Config{Cluster: c, File: file,
		Tenants: []gate.TenantConfig{{Name: "golden", APIKey: "golden-key", RatePerSec: 100, MaxInFlight: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	req := httptest.NewRequest(http.MethodPost, "/rpc",
		jsonBody(`{"jsonrpc":"2.0","id":1,"method":"fx.retrieve","params":{"query":{"z":"z-3"}}}`))
	req.Header.Set("Authorization", "Bearer golden-key")
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("fx.retrieve through the gate: %d %s", rec.Code, rec.Body)
	}
	var tenants map[string]any
	get("/debug/tenants", &tenants)
	tenantsReportKeys.check(t, "/debug/tenants", tenants)
	each(tenantRowKeys, "/debug/tenants row", tenants["tenants"])
	each(tenantShapeKeys, "/debug/tenants shape row", tenants["tenants"].([]any)[0].(map[string]any)["shapes"])
}
