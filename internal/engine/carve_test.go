package engine_test

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/query"
	"fxdist/internal/storage"
)

func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// memoryCluster is a memory-backend cluster over 4 devices (FX) holding
// 400 car records: every make has 57 or 58 of them, every model 17 or 18.
func memoryCluster(tb testing.TB) (*mkhash.File, *storage.Cluster) {
	tb.Helper()
	f := mkhash.MustNew(mkhash.Schema{Fields: []string{"make", "model", "year"}, Depths: []int{2, 3, 1}})
	for i := 0; i < 400; i++ {
		if err := f.Insert(mkhash.Record{fmt.Sprintf("make%d", i%7), fmt.Sprintf("model%d", i%23), fmt.Sprint(1980 + i%10)}); err != nil {
			tb.Fatal(err)
		}
	}
	fs, err := f.FileSystem(4)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := storage.NewCluster(f, decluster.MustFX(fs), engine.MainMemory)
	if err != nil {
		tb.Fatal(err)
	}
	return f, c
}

func recordKeys(recs []mkhash.Record) []string {
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = strings.Join(r, "|")
	}
	sort.Strings(keys)
	return keys
}

// reading is a deep copy of a Result's slices.
type reading struct {
	records          []mkhash.Record
	buckets, scanned []int
	times            []time.Duration
	stages           []obs.StageSample
}

func read(res engine.Result) reading {
	recs := make([]mkhash.Record, len(res.Records))
	for i, r := range res.Records {
		recs[i] = slices.Clone(r)
	}
	return reading{records: recs, buckets: slices.Clone(res.DeviceBuckets), scanned: slices.Clone(res.DeviceRecords),
		times: slices.Clone(res.DeviceTime), stages: slices.Clone(res.Stages)}
}

// capped reports whether every slice of res is capped at its length.
func capped(res engine.Result) bool {
	return cap(res.Records) == len(res.Records) && cap(res.DeviceBuckets) == len(res.DeviceBuckets) &&
		cap(res.DeviceRecords) == len(res.DeviceRecords) && cap(res.DeviceTime) == len(res.DeviceTime) &&
		cap(res.Stages) == len(res.Stages)
}

// reads reports whether res still reads as r.
func (r reading) reads(res engine.Result) bool {
	return slices.EqualFunc(r.records, res.Records, slices.Equal) && slices.Equal(r.buckets, res.DeviceBuckets) &&
		slices.Equal(r.scanned, res.DeviceRecords) && slices.Equal(r.times, res.DeviceTime) && slices.Equal(r.stages, res.Stages)
}

// TestCarvedResultsAreIndependent holds 300 results of one memory-backend
// executor, across recycled calls with pooling on, of five shapes: one
// whose 400 records exceed a chunk (its own make) and four whose answers
// carve from the call's chunks. Every slice of a result is capped at its
// length, and writing every element of one result's slices, then
// appending to each, leaves every later result equal to its own first
// reading — later, because a window is carved after every window before
// it in its chunk, so an append past a length could reach only those.
// The first readings equal File.Search.
func TestCarvedResultsAreIndependent(t *testing.T) {
	f, c := memoryCluster(t)
	shapes := []map[string]string{
		{"make": "make%d"}, {"model": "model%d"}, {"make": "make%d", "year": "198%d"}, {"year": "198%d"}, {},
	}
	const n = 300
	results := make([]engine.Result, n)
	first := make([]reading, n)
	for i := range results {
		spec := map[string]string{}
		for k, v := range shapes[i%len(shapes)] {
			if strings.Contains(v, "%d") {
				v = fmt.Sprintf(v, i%7)
			}
			spec[k] = v
		}
		pm, err := f.Spec(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Retrieve(pm)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.Search(pm)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(recordKeys(res.Records), recordKeys(want)) {
			t.Fatalf("query %v: %d records, File.Search finds %d", spec, len(res.Records), len(want))
		}
		if !capped(res) || len(res.DeviceBuckets) != 4 || len(res.Stages) != 5 {
			t.Fatalf("query %v: len/cap Records %d/%d, DeviceBuckets %d/%d, DeviceRecords %d/%d, DeviceTime %d/%d, Stages %d/%d",
				spec, len(res.Records), cap(res.Records), len(res.DeviceBuckets), cap(res.DeviceBuckets),
				len(res.DeviceRecords), cap(res.DeviceRecords), len(res.DeviceTime), cap(res.DeviceTime),
				len(res.Stages), cap(res.Stages))
		}
		results[i], first[i] = res, read(res)
	}
	if !raceEnabled() && !sharesAChunk(results) {
		t.Error("no two consecutive results' DeviceTime windows are adjacent: nothing was carved")
	}
	for i := range results {
		res := &results[i]
		for j := range res.Records {
			res.Records[j] = mkhash.Record{"overwritten"}
		}
		for j := range res.DeviceBuckets {
			res.DeviceBuckets[j], res.DeviceRecords[j], res.DeviceTime[j] = -1, -1, -1
		}
		for j := range res.Stages {
			res.Stages[j] = obs.StageSample{Stage: "overwritten"}
		}
		res.Records = append(res.Records, mkhash.Record{"appended"})
		res.DeviceBuckets = append(res.DeviceBuckets, -2)
		res.DeviceRecords = append(res.DeviceRecords, -2)
		res.DeviceTime = append(res.DeviceTime, -2)
		res.Stages = append(res.Stages, obs.StageSample{Stage: "appended"})
		for k := i + 1; k < n; k++ {
			if !first[k].reads(results[k]) {
				t.Fatalf("writing result %d changed result %d:\n got %+v\nwant %+v", i, k, read(results[k]), first[k])
			}
		}
	}
}

// sharesAChunk reports whether some result's DeviceTime window starts
// where the one before it ends.
func sharesAChunk(results []engine.Result) bool {
	for i := 1; i < len(results); i++ {
		prev, next := results[i-1].DeviceTime, results[i].DeviceTime
		if unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), len(prev)*int(unsafe.Sizeof(prev[0]))) == unsafe.Pointer(unsafe.SliceData(next)) {
			return true
		}
	}
	return false
}

// TestWarmRetrieveAllocatesNothing counts a warm memory-backend retrieval
// of 6 records past its shape's 8 head-kept queries. What is left is the
// 1 in 16 still kept (its record, per-device detail and stages) and a new
// chunk now and then: about 0.45 allocations a retrieval on average, which
// AllocsPerRun reads as 0 (4.33 at the parent commit, whose merge made
// every Result slice). With pooling off every call is new and a retrieval
// allocates exactly what it did at the parent commit: 15.33 on average,
// read as 15.
func TestWarmRetrieveAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts under -race, so allocation counts are not exact")
	}
	f, c := memoryCluster(t)
	pm, err := f.Spec(map[string]string{"make": "make3", "year": "1983"})
	if err != nil {
		t.Fatal(err)
	}
	retrieve := func() {
		if res, err := c.Retrieve(pm); err != nil || len(res.Records) != 6 {
			t.Fatalf("retrieve: %d records, %v", len(res.Records), err)
		}
	}
	for i := 0; i < 16; i++ {
		retrieve()
	}
	if got := testing.AllocsPerRun(1000, retrieve); got != 0 {
		t.Errorf("a warm retrieval allocates %.0f objects, want 0", got)
	}
	defer mempool.SetEnabled(mempool.SetEnabled(false))
	if got := testing.AllocsPerRun(1000, retrieve); got != 15 {
		t.Errorf("with pooling off a retrieval allocates %.0f objects, want 15", got)
	}
}

// lendingDevice answers as a netdist device does: its hits come in a
// HitsPool frame, and with them it lends memory that only the result's
// Release gives back, through a release func bound once.
type lendingDevice struct {
	hits    []mkhash.Record
	release func()
}

func (d lendingDevice) Scan(context.Context, query.Query, mkhash.PartialMatch) (engine.Answer, error) {
	hits := engine.HitsPool().Get(len(d.hits))
	copy(hits, d.hits)
	return engine.Answer{Buckets: 1, Records: len(hits), Hits: hits, Release: d.release}, nil
}

// TestWarmBatchOfOneAllocatesNothing is TestWarmRetrieveAllocatesNothing
// as the gate drives a retrieval: a batch of one, over devices that lend.
// The batch's results slice and the result's lease and its releases are
// carved from the call's chunks, so a warm batch reads 0 allocations (3
// when the lease, its slice and the results were each made). Every
// device's release runs once, however often the result is released.
func TestWarmBatchOfOneAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts under -race, so allocation counts are not exact")
	}
	f := testSchema(t)
	var released atomic.Int64
	devs := make([]engine.Device, 4)
	for i := range devs {
		devs[i] = lendingDevice{hits: []mkhash.Record{{fmt.Sprint("a", i), "b"}}, release: func() { released.Add(1) }}
	}
	e, err := engine.New(planned(t, f, engine.Config{Devices: devs}))
	if err != nil {
		t.Fatal(err)
	}
	pms := []mkhash.PartialMatch{anyQuery(t, f)}
	batch := func() {
		res, err := e.RetrieveBatch(context.Background(), pms)
		if err != nil || len(res) != 1 || len(res[0].Records) != 4 {
			t.Fatalf("batch of one: %v, %v", res, err)
		}
		res[0].Release()
		res[0].Release() // idempotent
	}
	for i := 0; i < 16; i++ {
		batch()
	}
	before := released.Load()
	if got := testing.AllocsPerRun(1000, batch); got != 0 {
		t.Errorf("a warm batch of one over lending devices allocates %.0f objects, want 0", got)
	}
	if got := released.Load() - before; got != 4*1001 {
		t.Errorf("%d releases over 1001 batches of 4 lending devices, want %d", got, 4*1001)
	}
}
