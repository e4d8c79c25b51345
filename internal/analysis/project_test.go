package analysis

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fxdist/internal/convolve"
	"fxdist/internal/decluster"
	"fxdist/internal/field"
	"fxdist/internal/mkhash"
	"fxdist/internal/query"
	"fxdist/internal/storage"
)

func carFile(t *testing.T, n int) *mkhash.File {
	t.Helper()
	f := mkhash.MustNew(mkhash.Schema{
		Fields: []string{"make", "model", "year"},
		Depths: []int{2, 3, 1},
	})
	for i := 0; i < n; i++ {
		r := mkhash.Record{
			fmt.Sprintf("make%d", i%7),
			fmt.Sprintf("model%d", i%23),
			fmt.Sprintf("%d", 1980+i%10),
		}
		if err := f.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// cluster is a file declustered by an allocator, priced on main memory:
// what the projection tests project.
type cluster struct {
	file  *mkhash.File
	alloc decluster.GroupAllocator
}

func (c cluster) Project(fields []int, nw *Network) (ProjectResult, error) {
	return Project(c.file, c.alloc, storage.MainMemory, fields, nw)
}

func newCluster(t *testing.T, file *mkhash.File, m int) cluster {
	t.Helper()
	fs, err := file.FileSystem(m)
	if err != nil {
		t.Fatal(err)
	}
	return cluster{file, decluster.MustFX(fs)}
}

func TestProjectValidation(t *testing.T) {
	file := carFile(t, 50)
	c := newCluster(t, file, 4)
	if _, err := c.Project(nil, nil); err == nil {
		t.Error("empty field list accepted")
	}
	if _, err := c.Project([]int{3}, nil); err == nil {
		t.Error("out-of-range field accepted")
	}
	if _, err := c.Project([]int{0, 0}, nil); err == nil {
		t.Error("repeated field accepted")
	}
	nw, _ := NewNetwork(8) // cluster has 4 devices
	if _, err := c.Project([]int{0}, nw); err == nil {
		t.Error("mismatched network accepted")
	}
}

// The parallel projection must equal the single-threaded reference
// projection with duplicate elimination.
func TestProjectMatchesReference(t *testing.T) {
	file := carFile(t, 500)
	c := newCluster(t, file, 8)
	for _, fields := range [][]int{{0}, {2}, {0, 2}, {1, 0, 2}} {
		res, err := c.Project(fields, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: project + dedup over a full scan.
		want := map[string]bool{}
		all, _ := file.Search(make(mkhash.PartialMatch, 3))
		for _, r := range all {
			row := make([]string, len(fields))
			for i, f := range fields {
				row[i] = r[f]
			}
			want[strings.Join(row, "\x00")] = true
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("fields %v: %d rows, want %d", fields, len(res.Rows), len(want))
		}
		for _, row := range res.Rows {
			if !want[strings.Join(row, "\x00")] {
				t.Fatalf("fields %v: spurious row %v", fields, row)
			}
		}
		// Sorted output.
		keys := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			keys[i] = strings.Join(row, "\x00")
		}
		if !sort.StringsAreSorted(keys) {
			t.Error("rows not sorted")
		}
	}
}

func TestProjectDeterministic(t *testing.T) {
	file := carFile(t, 300)
	c := newCluster(t, file, 4)
	a, err := c.Project([]int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Project([]int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Error("projection not deterministic")
	}
}

func TestProjectWithNetwork(t *testing.T) {
	file := carFile(t, 400)
	c := newCluster(t, file, 8)
	nw, err := NewNetwork(8)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.Project([]int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	networked, err := c.Project([]int{0}, nw)
	if err != nil {
		t.Fatal(err)
	}
	if plain.GatherCycles != 0 {
		t.Error("gather cycles without a network")
	}
	if networked.GatherCycles <= 0 {
		t.Error("no gather cycles with a network")
	}
	if networked.Response <= plain.Response {
		t.Error("network gather should add to the response time")
	}
	if !reflect.DeepEqual(plain.Rows, networked.Rows) {
		t.Error("network changed the projection result")
	}
	total := 0
	for _, n := range networked.DeviceRows {
		total += n
	}
	// Gather serialises at the sink: cycles >= total local rows.
	if networked.GatherCycles < total {
		t.Errorf("gather cycles %d below message count %d", networked.GatherCycles, total)
	}
}

func TestProjectSingleDevicePerRowCounts(t *testing.T) {
	// Two devices, known contents: device rows must count local distinct
	// projections.
	file := mkhash.MustNew(mkhash.Schema{Fields: []string{"a", "b"}, Depths: []int{1, 1}})
	for i := 0; i < 20; i++ {
		file.Insert(mkhash.Record{fmt.Sprintf("a%d", i%2), fmt.Sprintf("b%d", i%4)}) //nolint:errcheck
	}
	fs, _ := file.FileSystem(2)
	basic, err := decluster.NewBasicFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	fx := cluster{file, basic}
	res, err := fx.Project([]int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, n := range res.DeviceRows {
		sum += n
	}
	if sum < len(res.Rows) {
		t.Errorf("device rows %v sum below global distinct %d", res.DeviceRows, len(res.Rows))
	}
	if len(res.Rows) != 2 { // a0, a1
		t.Errorf("distinct projections = %d, want 2", len(res.Rows))
	}
}

// A better declustering method must give a faster simulated response on
// the same workload: FX(I,U) vs Modulo on the Table 2 file system.
func TestDeclusteringAffectsResponseTime(t *testing.T) {
	fs := decluster.MustFileSystem([]int{4, 4}, 16)
	fx := decluster.MustFX(fs, field.WithKinds([]field.Kind{field.I, field.U}))
	md := decluster.NewModulo(fs)
	q := query.All(2)
	fxRes := Simulate(convolve.Loads(fx, q), storage.ParallelDisk)
	mdRes := Simulate(convolve.Loads(md, q), storage.ParallelDisk)
	if fxRes.LargestResponseSize != 1 || mdRes.LargestResponseSize != 4 {
		t.Fatalf("largest response sizes: FX=%d MD=%d", fxRes.LargestResponseSize, mdRes.LargestResponseSize)
	}
	if fxRes.Response >= mdRes.Response {
		t.Errorf("FX response %v not faster than Modulo %v", fxRes.Response, mdRes.Response)
	}
	// Total work is identical: declustering moves work, it doesn't remove it.
	fxBuckets, mdBuckets := 0, 0
	for _, l := range fxRes.Loads {
		fxBuckets += l
	}
	for _, l := range mdRes.Loads {
		mdBuckets += l
	}
	if fxBuckets != mdBuckets {
		t.Errorf("total buckets differ: %d vs %d", fxBuckets, mdBuckets)
	}
}

func TestSimulateEmptyDevices(t *testing.T) {
	res := Simulate([]int{0, 0, 3, 0}, storage.MainMemory)
	if res.LargestResponseSize != 3 {
		t.Errorf("LargestResponseSize = %d", res.LargestResponseSize)
	}
	want := storage.MainMemory.PerQuery + 3*storage.MainMemory.PerBucket
	if res.Response != want {
		t.Errorf("Response = %v, want %v", res.Response, want)
	}
	if work := 4*storage.MainMemory.PerQuery + 3*storage.MainMemory.PerBucket; res.TotalWork != work {
		t.Errorf("TotalWork = %v, want %v", res.TotalWork, work)
	}
}
