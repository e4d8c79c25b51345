package analysis_test

import (
	"slices"
	"testing"
	"time"

	"fxdist"
	"fxdist/internal/analysis"
)

// A retrieval reports what each device measured, and Simulate prices it:
// every device costs PerQuery + buckets*PerBucket + records*PerRecord,
// the devices the executor did not ask included; the response is the
// slowest device's time, the total work their sum, and the largest load
// the result's own.
func TestSimulateRetrieval(t *testing.T) {
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "a", Cardinality: 60},
		{Name: "b", Cardinality: 15},
	}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{3, 2}))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := fxdist.GenerateRecords(spec, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := file.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	fs, _ := file.FileSystem(4)
	fx, _ := fxdist.NewFX(fs)
	c, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// An exact match: one qualified bucket, so three devices go unasked.
	pm, err := c.Spec(map[string]string{"a": recs[0][0], "b": recs[0][1]})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(res.DeviceBuckets, 0) || slices.Max(res.DeviceRecords) == 0 {
		t.Fatalf("want unasked devices and scanned records: buckets %v, records %v", res.DeviceBuckets, res.DeviceRecords)
	}

	m := analysis.ParallelDisk
	var response, work time.Duration
	for dev, b := range res.DeviceBuckets {
		dt := m.PerQuery + time.Duration(b)*m.PerBucket + time.Duration(res.DeviceRecords[dev])*m.PerRecord
		if got := m.DeviceTime(b, res.DeviceRecords[dev]); got != dt {
			t.Errorf("device %d time %v, want %v", dev, got, dt)
		}
		response, work = max(response, dt), work+dt
	}
	sim := analysis.Simulate(m, res.DeviceBuckets, res.DeviceRecords)
	if sim.Response != response || sim.TotalWork != work {
		t.Errorf("Response/TotalWork = %v/%v, want %v/%v", sim.Response, sim.TotalWork, response, work)
	}
	if sim.LargestResponseSize != res.LargestResponseSize {
		t.Errorf("LargestResponseSize = %d, want the result's %d", sim.LargestResponseSize, res.LargestResponseSize)
	}
}

func TestPublicAPISimulate(t *testing.T) {
	fs, _ := fxdist.NewFileSystem([]int{4, 4}, 16)
	fx, _ := fxdist.NewFX(fs)
	res := analysis.Simulate(analysis.ParallelDisk, fxdist.Loads(fx, fxdist.AllQuery(2)), nil)
	if res.LargestResponseSize != 1 {
		t.Errorf("LargestResponseSize = %d", res.LargestResponseSize)
	}
}
