package storage

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/query"
)

// plantedDevice is a memory device holding one bucket the allocator
// gives another device: it answers for one qualified bucket more than
// the plan says it holds.
type plantedDevice struct{ memDevice }

func (d plantedDevice) Scan(ctx context.Context, q query.Query, pm mkhash.PartialMatch) (engine.Answer, error) {
	ans, err := d.memDevice.Scan(ctx, q, pm)
	ans.Buckets++
	return ans, err
}

// TestMisplacedBucketIsCaught plants one bucket on device 2 of a strict
// optimal FX cluster. The allocation is sound, so the audit must not
// call it a bound violation; the placement check must flag it instead,
// on the /debug/optimality row and on the kept record, naming the shape
// and the device.
func TestMisplacedBucketIsCaught(t *testing.T) {
	const backend, planted = "planted-test", 2
	file := carFile(t, 200)
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx := decluster.MustFX(fs)
	c := &Cluster{core: newCore(fx), held: hold(file)}
	devices := make([]engine.Device, fs.M)
	for dev := range devices {
		devices[dev] = memDevice{c: c, dev: dev}
	}
	devices[planted] = plantedDevice{memDevice{c: c, dev: planted}}
	if err := c.wire(backend, file, devices, newSettings(nil)); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := c.Instruments()
	views := obs.HandlerFor(obs.QueryEndpoints(func() *obs.Instruments { return in })...)

	pm := mkhash.PartialMatch{nil, nil, nil} // shape "***": every device holds 16 of 64
	if _, err := c.Retrieve(pm); err != nil {
		t.Fatal(err)
	}

	var rows []obs.BackendAudit
	body := debugGet(t, views, "/debug/optimality")
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("/debug/optimality: %v\n%s", err, body)
	}
	var row *obs.ShapeAudit
	for _, rep := range rows {
		for i := range rep.Shapes {
			if rep.Backend == backend && rep.Shapes[i].Shape == "***" {
				row = &rep.Shapes[i]
			}
		}
	}
	if row == nil {
		t.Fatalf("/debug/optimality has no %s/*** row: %s", backend, body)
	}
	if row.Queries != 1 || row.Mismatches != 1 || row.Violations != 0 || row.MaxDeviation != 0 {
		t.Errorf("row %+v, want 1 query, 1 mismatch, no violation", *row)
	}
	text := debugGet(t, views, "/debug/optimality?format=text")
	if !strings.Contains(text, "***") || !strings.Contains(text, "MISPLACED (1 queries, latest on device 2)") {
		t.Errorf("text row does not name the shape and the device:\n%s", text)
	}

	events := in.Events(8)
	if len(events) != 1 {
		t.Fatalf("want the query kept, got %d events", len(events))
	}
	rec := events[0].QueryRecord
	if rec.Shape != "***" || !reflect.DeepEqual(rec.MismatchedDevices, []int{planted}) || rec.BoundViolation ||
		!reflect.DeepEqual(rec.Keep, []string{obs.KeepPlace}) {
		t.Errorf("kept record: shape %q mismatched %v violation %v keep %v", rec.Shape, rec.MismatchedDevices,
			rec.BoundViolation, rec.Keep)
	}
	if got, want := rec.Devices[planted].Buckets, 17; got != want {
		t.Errorf("device %d answered %d buckets on the record, want %d", planted, got, want)
	}
}

// debugGet serves one request from a cluster's /debug views.
func debugGet(t *testing.T, views http.Handler, path string) string {
	t.Helper()
	w := httptest.NewRecorder()
	views.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	if w.Code != 200 {
		t.Fatalf("GET %s: %d %s", path, w.Code, w.Body)
	}
	return w.Body.String()
}
