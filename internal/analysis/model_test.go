package analysis

import (
	"testing"

	"fxdist/internal/convolve"
	"fxdist/internal/decluster"
	"fxdist/internal/field"
	"fxdist/internal/query"
)

// A better declustering method must give a faster simulated response on
// the same workload: FX(I,U) vs Modulo on the Table 2 file system.
func TestDeclusteringAffectsResponseTime(t *testing.T) {
	fs := decluster.MustFileSystem([]int{4, 4}, 16)
	fx := decluster.MustFX(fs, field.WithKinds([]field.Kind{field.I, field.U}))
	md := decluster.NewModulo(fs)
	q := query.All(2)
	fxLoads, mdLoads := convolve.Loads(fx, q), convolve.Loads(md, q)
	fxRes, mdRes := Simulate(ParallelDisk, fxLoads, nil), Simulate(ParallelDisk, mdLoads, nil)
	if fxRes.LargestResponseSize != 1 || mdRes.LargestResponseSize != 4 {
		t.Fatalf("largest response sizes: FX=%d MD=%d", fxRes.LargestResponseSize, mdRes.LargestResponseSize)
	}
	if fxRes.Response >= mdRes.Response {
		t.Errorf("FX response %v not faster than Modulo %v", fxRes.Response, mdRes.Response)
	}
	// Total work is identical: declustering moves work, it doesn't remove it.
	fxBuckets, mdBuckets := 0, 0
	for _, l := range fxLoads {
		fxBuckets += l
	}
	for _, l := range mdLoads {
		mdBuckets += l
	}
	if fxBuckets != mdBuckets {
		t.Errorf("total buckets differ: %d vs %d", fxBuckets, mdBuckets)
	}
}

func TestSimulateEmptyDevices(t *testing.T) {
	res := Simulate(MainMemory, []int{0, 0, 3, 0}, nil)
	if res.LargestResponseSize != 3 {
		t.Errorf("LargestResponseSize = %d", res.LargestResponseSize)
	}
	want := MainMemory.PerQuery + 3*MainMemory.PerBucket
	if res.Response != want {
		t.Errorf("Response = %v, want %v", res.Response, want)
	}
	if work := 4*MainMemory.PerQuery + 3*MainMemory.PerBucket; res.TotalWork != work {
		t.Errorf("TotalWork = %v, want %v", res.TotalWork, work)
	}
}
