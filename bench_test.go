// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each BenchmarkTableN / BenchmarkFigureN measures the cost of
// recomputing that artifact and logs the regenerated rows/series once, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation section end to end. EXPERIMENTS.md
// records the paper-vs-measured comparison.
package fxdist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fxdist"
	"fxdist/client"
	"fxdist/internal/analysis"
	"fxdist/internal/bitsx"
	"fxdist/internal/decluster"
	"fxdist/internal/field"
	"fxdist/internal/gate"
	"fxdist/internal/queuesim"
	"fxdist/internal/rebalance"
	"fxdist/internal/storage"
	"fxdist/internal/workload"
)

// logOnce guards the one-time table/series logging inside benchmarks.
var logOnce sync.Map

func once(b *testing.B, key string, f func()) {
	if _, loaded := logOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

// --- Tables 1-6: worked bucket-to-device mappings -----------------------

type exampleTable struct {
	name  string
	sizes []int
	m     int
	kinds []field.Kind
}

var exampleTables = map[string]exampleTable{
	"Table1": {"Basic FX", []int{2, 8}, 4, []field.Kind{field.I, field.I}},
	"Table2": {"FX I+U", []int{4, 4}, 16, []field.Kind{field.I, field.U}},
	"Table3": {"FX I+IU1", []int{4, 4}, 16, []field.Kind{field.I, field.IU1}},
	"Table4": {"FX I+U+IU1", []int{2, 4, 2}, 8, []field.Kind{field.I, field.U, field.IU1}},
	"Table5": {"FX I+IU2", []int{8, 2}, 16, []field.Kind{field.I, field.IU2}},
	"Table6": {"FX I+U+IU2", []int{4, 2, 2}, 16, []field.Kind{field.I, field.U, field.IU2}},
}

func benchExampleTable(b *testing.B, key string) {
	def := exampleTables[key]
	fs := decluster.MustFileSystem(def.sizes, def.m)
	fx := decluster.MustFX(fs, field.WithKinds(def.kinds))
	once(b, key, func() {
		var rows []string
		fs.EachBucket(func(bk []int) {
			vals := make([]string, len(bk))
			for i, v := range bk {
				vals[i] = bitsx.Binary(fx.Plan().Funcs[i].Apply(v), bitsx.Log2(def.m))
			}
			rows = append(rows, fmt.Sprintf("%s -> %d", strings.Join(vals, " "), fx.Device(bk)))
		})
		b.Logf("%s (%s, F=%v, M=%d):\n%s", key, def.name, def.sizes, def.m, strings.Join(rows, "\n"))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.EachBucket(func(bk []int) {
			_ = fx.Device(bk)
		})
	}
}

func BenchmarkTable1(b *testing.B) { benchExampleTable(b, "Table1") }
func BenchmarkTable2(b *testing.B) { benchExampleTable(b, "Table2") }
func BenchmarkTable3(b *testing.B) { benchExampleTable(b, "Table3") }
func BenchmarkTable4(b *testing.B) { benchExampleTable(b, "Table4") }
func BenchmarkTable5(b *testing.B) { benchExampleTable(b, "Table5") }
func BenchmarkTable6(b *testing.B) { benchExampleTable(b, "Table6") }

// --- Tables 7-9: average largest response size --------------------------

func benchResponseTable(b *testing.B, key string, spec analysis.TableSpec) {
	once(b, key, func() {
		var rows []string
		rows = append(rows, strings.Join(spec.Header(), " | "))
		for _, r := range spec.Rows() {
			rows = append(rows, analysis.FormatRow(r))
		}
		b.Logf("%s (%s):\n%s", spec.Name, spec.Caption, strings.Join(rows, "\n"))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = spec.Rows()
	}
}

func BenchmarkTable7(b *testing.B) { benchResponseTable(b, "Table7", analysis.Table7()) }
func BenchmarkTable8(b *testing.B) { benchResponseTable(b, "Table8", analysis.Table8()) }
func BenchmarkTable9(b *testing.B) { benchResponseTable(b, "Table9", analysis.Table9()) }

// --- Figures 1-4: probability of strict optimality ----------------------

func benchFigure(b *testing.B, key string, spec analysis.FigureSpec) {
	once(b, key, func() {
		var rows []string
		for _, p := range spec.Points(false) {
			rows = append(rows, fmt.Sprintf("smallFields=%d MD=%.1f%% FD=%.1f%%",
				p.SmallFields, p.ModuloPct, p.FXPct))
		}
		b.Logf("%s (%s):\n%s", spec.Name, spec.Caption, strings.Join(rows, "\n"))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = spec.Points(false)
	}
}

func BenchmarkFigure1(b *testing.B) { benchFigure(b, "Figure1", analysis.Figure1()) }
func BenchmarkFigure2(b *testing.B) { benchFigure(b, "Figure2", analysis.Figure2()) }
func BenchmarkFigure3(b *testing.B) { benchFigure(b, "Figure3", analysis.Figure3()) }
func BenchmarkFigure4(b *testing.B) { benchFigure(b, "Figure4", analysis.Figure4()) }

// BenchmarkFigure1Exact regenerates Figure 1 with exact (convolution)
// optimality percentages instead of the sufficient conditions — the
// extension series reported in EXPERIMENTS.md.
func BenchmarkFigure1Exact(b *testing.B) {
	spec := analysis.Figure1()
	once(b, "Figure1Exact", func() {
		var rows []string
		for _, p := range spec.Points(true) {
			rows = append(rows, fmt.Sprintf("smallFields=%d MDexact=%.1f%% FDexact=%.1f%%",
				p.SmallFields, p.ModuloExactPct, p.FXExactPct))
		}
		b.Logf("Figure 1 exact:\n%s", strings.Join(rows, "\n"))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = spec.Points(true)
	}
}

// --- §5.2.2: CPU computation time ---------------------------------------

// BenchmarkCPUCostModel evaluates the paper's cycle-count comparison.
func BenchmarkCPUCostModel(b *testing.B) {
	plan := field.MustPlan([]int{8, 8, 8, 8, 8, 8}, 32,
		field.WithStrategy(field.RoundRobin), field.WithFamily(field.FamilyIU1))
	once(b, "CPUCost", func() {
		var rows []string
		for _, cpu := range []analysis.CPU{analysis.MC68000, analysis.I80286} {
			for _, row := range analysis.CompareCPU(cpu, plan) {
				rows = append(rows, row.String())
			}
		}
		b.Logf("§5.2.2 address computation:\n%s", strings.Join(rows, "\n"))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.CompareCPU(analysis.MC68000, plan)
	}
}

// Live address-computation micro-benchmarks: the modern-hardware analogue
// of §5.2.2. FX and Modulo are table lookups and xors/adds; GDM pays for
// multiplies.
func benchDevice(b *testing.B, alloc fxdist.GroupAllocator) {
	fs := alloc.FileSystem()
	buckets := make([][]int, 256)
	for i := range buckets {
		bk := make([]int, fs.NumFields())
		for j := range bk {
			bk[j] = (i * (j + 3)) % fs.Sizes[j]
		}
		buckets[i] = bk
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = alloc.Device(buckets[i%256])
	}
}

func table7FS() fxdist.FileSystem {
	fs, err := fxdist.NewFileSystem([]int{8, 8, 8, 8, 8, 8}, 32)
	if err != nil {
		panic(err)
	}
	return fs
}

func BenchmarkAddressFX(b *testing.B) {
	fx, err := fxdist.NewFX(table7FS(), fxdist.WithRoundRobinPlan(), fxdist.WithFamily(fxdist.FamilyIU1))
	if err != nil {
		b.Fatal(err)
	}
	benchDevice(b, fx)
}

func BenchmarkAddressGDM(b *testing.B) {
	g, err := fxdist.NewGDM(table7FS(), decluster.GDM1Multipliers)
	if err != nil {
		b.Fatal(err)
	}
	benchDevice(b, g)
}

func BenchmarkAddressModulo(b *testing.B) {
	benchDevice(b, fxdist.NewModulo(table7FS()))
}

// --- Inverse mapping and end-to-end retrieval ----------------------------

func BenchmarkInverseMapping(b *testing.B) {
	fx, err := fxdist.NewFX(table7FS(), fxdist.WithRoundRobinPlan(), fxdist.WithFamily(fxdist.FamilyIU1))
	if err != nil {
		b.Fatal(err)
	}
	im := fxdist.NewInverseMapper(fx)
	q := fxdist.NewQuery([]int{3, fxdist.Unspecified, fxdist.Unspecified, 1,
		fxdist.Unspecified, fxdist.Unspecified})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = im.CountOnDevice(q, i%32)
	}
}

func benchCluster(b *testing.B) (*fxdist.Cluster, []fxdist.PartialMatch) {
	b.Helper()
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "a", Cardinality: 500},
		{Name: "b", Cardinality: 100},
		{Name: "c", Cardinality: 20},
	}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{4, 3, 2}))
	if err != nil {
		b.Fatal(err)
	}
	recs, err := fxdist.GenerateRecords(spec, 20000, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range recs {
		if err := file.Insert(r); err != nil {
			b.Fatal(err)
		}
	}
	fs, err := file.FileSystem(16)
	if err != nil {
		b.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
	if err != nil {
		b.Fatal(err)
	}
	pms, err := fxdist.GeneratePartialMatches(spec, 64, 0.5, 6)
	if err != nil {
		b.Fatal(err)
	}
	return cluster, pms
}

func BenchmarkClusterRetrieve(b *testing.B) {
	cluster, pms := benchCluster(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Retrieve(pms[i%64]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchRetrieve compares a 16-query RetrieveBatch against the
// same 16 queries retrieved sequentially — the capability the unified
// engine exists for: all fan-outs share one worker pool and pipeline
// instead of hitting a per-query barrier.
func BenchmarkBatchRetrieve(b *testing.B) {
	cluster, pms := benchCluster(b)
	batch := pms[:16]
	b.Run("sequential16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pm := range batch {
				if _, err := cluster.Retrieve(pm); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch16", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.RetrieveBatch(ctx, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlanCacheRepeatedShape measures the plan-cache hit path: a
// repeated-shape workload (64 queries over a handful of shapes, the
// pattern a real query mix produces) on an in-memory cluster. One
// warm-up pass compiles every shape, so the loop measures pure hits.
func BenchmarkPlanCacheRepeatedShape(b *testing.B) {
	b.Run("cached", func(b *testing.B) {
		spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
			{Name: "a", Cardinality: 500},
			{Name: "b", Cardinality: 100},
			{Name: "c", Cardinality: 20},
		}}
		file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{5, 4, 3}))
		if err != nil {
			b.Fatal(err)
		}
		recs, err := fxdist.GenerateRecords(spec, 4000, 5)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := file.Insert(r); err != nil {
				b.Fatal(err)
			}
		}
		fs, err := file.FileSystem(16)
		if err != nil {
			b.Fatal(err)
		}
		fx, err := fxdist.NewFX(fs)
		if err != nil {
			b.Fatal(err)
		}
		cluster, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
		if err != nil {
			b.Fatal(err)
		}
		defer cluster.Close()
		pms, err := fxdist.GeneratePartialMatches(spec, 64, 0.35, 6)
		if err != nil {
			b.Fatal(err)
		}
		for _, pm := range pms { // warm-up: compile every shape once
			if _, err := cluster.Retrieve(pm); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.Retrieve(pms[i%64]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationPlanner quantifies what the transformation planner buys:
// Basic FX (all identity) vs planned FX on the Table 7 file system, k=2
// average largest response size.
func BenchmarkAblationPlanner(b *testing.B) {
	fs := table7FS()
	basic, err := fxdist.NewBasicFX(fs)
	if err != nil {
		b.Fatal(err)
	}
	planned, err := fxdist.NewFX(fs, fxdist.WithRoundRobinPlan(), fxdist.WithFamily(fxdist.FamilyIU1))
	if err != nil {
		b.Fatal(err)
	}
	methods := []fxdist.GroupAllocator{basic, planned}
	once(b, "AblationPlanner", func() {
		rows := analysis.ResponseTable(fs, methods, []int{2, 3})
		for _, r := range rows {
			b.Logf("k=%d basicFX=%.1f plannedFX=%.1f optimal=%.1f",
				r.K, r.Avg[0], r.Avg[1], r.Optimal)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.ResponseTable(fs, methods, []int{2})
	}
}

// BenchmarkAblationMSweep quantifies the paper's closing caveat: FX
// optimality as the machine outgrows fixed-size directories.
func BenchmarkAblationMSweep(b *testing.B) {
	sizes := []int{8, 8, 8, 8}
	ms := []int{8, 32, 128, 512}
	once(b, "MSweep", func() {
		pts, err := analysis.MSweep(sizes, ms, fxdist.FamilyIU2)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.Logf("M=%-4d smallFields=%d FXexact=%.1f%% FXcertified=%.1f%% MDexact=%.1f%%",
				p.M, p.SmallFields, p.FXExactPct, p.FXCertifiedPct, p.ModuloExactPct)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.MSweep(sizes, ms, fxdist.FamilyIU2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueueingThroughput extends §5.2.1 to sustained load: mean
// response under a Poisson stream, FX vs Modulo.
func BenchmarkQueueingThroughput(b *testing.B) {
	fs := table7FS()
	fx, err := fxdist.NewFX(fs, fxdist.WithRoundRobinPlan(), fxdist.WithFamily(fxdist.FamilyIU1))
	if err != nil {
		b.Fatal(err)
	}
	md := fxdist.NewModulo(fs)
	queries, err := workload.BucketQueries(fs.Sizes, 200, 0.5, 7)
	if err != nil {
		b.Fatal(err)
	}
	arrivals := queuesim.PoissonArrivals(200, 40*time.Millisecond, 7)
	once(b, "Queueing", func() {
		for _, alloc := range []fxdist.GroupAllocator{fx, md} {
			jobs, err := queuesim.FromQueries(alloc, queries, arrivals)
			if err != nil {
				b.Fatal(err)
			}
			stats, err := queuesim.Run(jobs, fxdist.ParallelDisk)
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("%-10s mean=%v max=%v makespan=%v",
				shortAllocName(alloc.Name()), stats.MeanResponse, stats.MaxResponse, stats.Makespan)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs, err := queuesim.FromQueries(fx, queries, arrivals)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := queuesim.Run(jobs, fxdist.ParallelDisk); err != nil {
			b.Fatal(err)
		}
	}
}

func shortAllocName(name string) string {
	if strings.HasPrefix(name, "FX[") {
		return "FX"
	}
	return name
}

// benchRelationFile builds a loaded file for storage-layer benches.
func benchRelationFile(b *testing.B, n int) (*fxdist.File, fxdist.RecordSpec) {
	b.Helper()
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "a", Cardinality: 500},
		{Name: "b", Cardinality: 100},
		{Name: "c", Cardinality: 20},
	}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{4, 3, 2}))
	if err != nil {
		b.Fatal(err)
	}
	recs, err := fxdist.GenerateRecords(spec, n, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range recs {
		if err := file.Insert(r); err != nil {
			b.Fatal(err)
		}
	}
	return file, spec
}

// BenchmarkDurableRetrieve measures the disk-backed retrieval path.
func BenchmarkDurableRetrieve(b *testing.B) {
	file, spec := benchRelationFile(b, 20000)
	fs, err := file.FileSystem(16)
	if err != nil {
		b.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		b.Fatal(err)
	}
	c, err := fxdist.Open(fxdist.Config{Dir: b.TempDir(), File: file, Allocator: fx})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	pms, err := fxdist.GeneratePartialMatches(spec, 64, 0.5, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Retrieve(pms[i%64]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableBulkLoad measures concurrent partitioned loading.
func BenchmarkDurableBulkLoad(b *testing.B) {
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "a", Cardinality: 500},
		{Name: "b", Cardinality: 100},
		{Name: "c", Cardinality: 20},
	}}
	recs, err := fxdist.GenerateRecords(spec, 10000, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{4, 3, 2}))
		if err != nil {
			b.Fatal(err)
		}
		fs, err := file.FileSystem(16)
		if err != nil {
			b.Fatal(err)
		}
		fx, err := fxdist.NewFX(fs)
		if err != nil {
			b.Fatal(err)
		}
		c, err := fxdist.Open(fxdist.Config{Dir: b.TempDir(), File: file, Allocator: fx})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := c.Durable().BulkInsert(recs); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Close()
		b.StartTimer()
	}
}

// BenchmarkDistributedRetrieve measures the TCP path end to end.
func BenchmarkDistributedRetrieve(b *testing.B) {
	file, spec := benchRelationFile(b, 20000)
	fs, err := file.FileSystem(8)
	if err != nil {
		b.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		b.Fatal(err)
	}
	addrs, stop, err := fxdist.DeployLocal(file, fx)
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	coord, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	pms, err := fxdist.GeneratePartialMatches(spec, 64, 0.5, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.Retrieve(pms[i%64]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicaFailover compares chained vs naive failover degradation
// on the whole-file query.
func BenchmarkReplicaFailover(b *testing.B) {
	fs := table7FS()
	fx, err := fxdist.NewFX(fs, fxdist.WithRoundRobinPlan(), fxdist.WithFamily(fxdist.FamilyIU1))
	if err != nil {
		b.Fatal(err)
	}
	q := fxdist.AllQuery(6)
	once(b, "ReplicaFailover", func() {
		for _, mode := range []fxdist.ReplicaMode{fxdist.NaiveFailover, fxdist.ChainedFailover} {
			p := storage.NewPlacement(fx, mode)
			if err := p.Fail(3); err != nil {
				b.Fatal(err)
			}
			d := p.Degradation(q)
			b.Logf("%-8v max load %d -> %d (%.2fx; ideal chained %.2fx)",
				mode, d.HealthyMax, d.DegradedMax, d.Ratio, float64(32)/31)
		}
	})
	p := storage.NewPlacement(fx, fxdist.ChainedFailover)
	if err := p.Fail(3); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Degradation(q)
	}
}

// BenchmarkButterflyRepartition runs FX's balanced vs Modulo's skewed
// query loads through the simulated Butterfly interconnect: declustering
// balance translates into network throughput.
func BenchmarkButterflyRepartition(b *testing.B) {
	fs, err := fxdist.NewFileSystem([]int{8, 8}, 16)
	if err != nil {
		b.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		b.Fatal(err)
	}
	md := fxdist.NewModulo(fs)
	nw, err := fxdist.NewButterfly(16)
	if err != nil {
		b.Fatal(err)
	}
	q := fxdist.AllQuery(2)
	once(b, "Butterfly", func() {
		for _, alloc := range []fxdist.GroupAllocator{fx, md} {
			msgs, err := nw.Repartition(fxdist.Loads(alloc, q), 3)
			if err != nil {
				b.Fatal(err)
			}
			stats, err := nw.Run(msgs)
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("%-8s repartition: %d msgs in %d cycles (ideal %d, max queue %d)",
				shortAllocName(alloc.Name()), stats.Delivered, stats.Cycles,
				stats.IdealCycles, stats.MaxQueue)
		}
	})
	msgs, err := nw.Repartition(fxdist.Loads(fx, q), 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Run(msgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPSweep sweeps the per-field specification probability:
// the optimality-probability gap between FX and Modulo across the whole
// workload spectrum (the figures fix p = 1/2).
func BenchmarkAblationPSweep(b *testing.B) {
	fs, err := fxdist.NewFileSystem([]int{4, 4, 4, 4, 4, 4}, 32)
	if err != nil {
		b.Fatal(err)
	}
	ps := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	once(b, "PSweep", func() {
		pts, err := analysis.PSweep(fs, fxdist.FamilyIU2, ps)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.Logf("p=%.1f FX=%.1f%% Modulo=%.1f%%", p.P, 100*p.FXPct, 100*p.ModuloPct)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.PSweep(fs, fxdist.FamilyIU2, ps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosedLoopThroughput sweeps the multiprogramming level: FX
// sustains more queries per second than Modulo once devices saturate.
func BenchmarkClosedLoopThroughput(b *testing.B) {
	fs := table7FS()
	fx, err := fxdist.NewFX(fs, fxdist.WithRoundRobinPlan(), fxdist.WithFamily(fxdist.FamilyIU1))
	if err != nil {
		b.Fatal(err)
	}
	md := fxdist.NewModulo(fs)
	// Selective queries (most fields specified) touch few devices, so a
	// single client cannot keep the machine busy — the regime where the
	// multiprogramming level matters.
	queries, err := workload.BucketQueries(fs.Sizes, 100, 0.85, 23)
	if err != nil {
		b.Fatal(err)
	}
	once(b, "ClosedLoop", func() {
		for _, mpl := range []int{1, 4, 16} {
			for _, alloc := range []fxdist.GroupAllocator{fx, md} {
				pool, err := queuesim.LoadPool(alloc, queries)
				if err != nil {
					b.Fatal(err)
				}
				stats, err := queuesim.RunClosed(pool, mpl, 400, fxdist.ParallelDisk)
				if err != nil {
					b.Fatal(err)
				}
				qps := 400 / stats.Makespan.Seconds()
				b.Logf("MPL=%-3d %-8s throughput=%.2f q/s mean=%v",
					mpl, shortAllocName(alloc.Name()), qps, stats.MeanResponse.Round(time.Millisecond))
			}
		}
	})
	pool, err := queuesim.LoadPool(fx, queries)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queuesim.RunClosed(pool, 8, 400, fxdist.ParallelDisk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMSPBaseline compares the FaRC86 spanning-path heuristic with
// FX and Modulo on a small grid (exhaustive analysis: MSP is not a group
// allocator).
func BenchmarkMSPBaseline(b *testing.B) {
	fs, err := fxdist.NewFileSystem([]int{4, 4, 4}, 16)
	if err != nil {
		b.Fatal(err)
	}
	msp := fxdist.NewMSP(fs)
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		b.Fatal(err)
	}
	md := fxdist.NewModulo(fs)
	once(b, "MSP", func() {
		rows := analysis.ResponseTableExhaustive(fs,
			[]fxdist.Allocator{msp, fx, md}, []int{1, 2, 3})
		for _, r := range rows {
			b.Logf("k=%d MSP=%.2f FX=%.2f Modulo=%.2f optimal=%.2f",
				r.K, r.Avg[0], r.Avg[1], r.Avg[2], r.Optimal)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fxdist.NewMSP(fs)
	}
}

// BenchmarkGrowthPlanning measures redistribution planning for a
// directory doubling.
func BenchmarkGrowthPlanning(b *testing.B) {
	once(b, "Growth", func() {
		for _, build := range []struct {
			name string
			fn   func(fs fxdist.FileSystem) (fxdist.GroupAllocator, error)
		}{
			{"BasicFX", func(fs fxdist.FileSystem) (fxdist.GroupAllocator, error) { return fxdist.NewBasicFX(fs) }},
			{"FX", func(fs fxdist.FileSystem) (fxdist.GroupAllocator, error) { return fxdist.NewFX(fs) }},
			{"Modulo", func(fs fxdist.FileSystem) (fxdist.GroupAllocator, error) { return fxdist.NewModulo(fs), nil }},
		} {
			plans, err := rebalance.GrowthSeries([]int{2, 4, 8}, 16, 0, 3, build.fn)
			if err != nil {
				b.Fatal(err)
			}
			for s, p := range plans {
				b.Logf("%-8s step %d: moved %d/%d (%.0f%%)", build.name, s, p.Moved, p.Total, 100*p.MoveFraction())
			}
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rebalance.GrowthSeries([]int{2, 4, 8}, 16, 0, 3,
			func(fs fxdist.FileSystem) (fxdist.GroupAllocator, error) { return fxdist.NewFX(fs) }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIU1vsIU2 compares the two xor-folded families on the
// Table 9 file system — why the paper switches to IU2 when pairwise
// products fall below M.
func BenchmarkAblationIU1vsIU2(b *testing.B) {
	fs, err := fxdist.NewFileSystem([]int{8, 8, 8, 16, 16, 16}, 512)
	if err != nil {
		b.Fatal(err)
	}
	iu1, err := fxdist.NewFX(fs, fxdist.WithRoundRobinPlan(), fxdist.WithFamily(fxdist.FamilyIU1))
	if err != nil {
		b.Fatal(err)
	}
	iu2, err := fxdist.NewFX(fs, fxdist.WithRoundRobinPlan(), fxdist.WithFamily(fxdist.FamilyIU2))
	if err != nil {
		b.Fatal(err)
	}
	methods := []fxdist.GroupAllocator{iu1, iu2}
	once(b, "AblationIU", func() {
		rows := analysis.ResponseTable(fs, methods, []int{2, 3, 4})
		for _, r := range rows {
			b.Logf("k=%d IU1-family=%.1f IU2-family=%.1f optimal=%.1f",
				r.K, r.Avg[0], r.Avg[1], r.Optimal)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.ResponseTable(fs, methods, []int{3})
	}
}

// BenchmarkRetrieveWithInjectedLatency measures what hedging buys
// against a single straggler device: device 0 carries injected latency
// with wide jitter (the tail-latency profile chained declustering is
// meant to absorb), and the hedged variant races a second scan against
// it once its p99 breaches the peers'. Unhedged retrievals pay the full
// straggler delay on every query that touches device 0.
func BenchmarkRetrieveWithInjectedLatency(b *testing.B) {
	build := func(b *testing.B, hedge bool) (*fxdist.Cluster, fxdist.PartialMatch) {
		b.Helper()
		spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
			{Name: "a", Cardinality: 60},
			{Name: "b", Cardinality: 15},
		}}
		file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{3, 2}))
		if err != nil {
			b.Fatal(err)
		}
		recs, err := fxdist.GenerateRecords(spec, 2000, 11)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := file.Insert(r); err != nil {
				b.Fatal(err)
			}
		}
		fs, err := file.FileSystem(8)
		if err != nil {
			b.Fatal(err)
		}
		fx, err := fxdist.NewFX(fs)
		if err != nil {
			b.Fatal(err)
		}
		opts := []fxdist.Option{
			fxdist.WithRetryBudget(2, time.Millisecond, 10*time.Millisecond),
			fxdist.WithFaultInjector(fxdist.NewFaultInjector(fxdist.KindMemory, 1, map[int]fxdist.FaultSchedule{
				0: {Jitter: 4 * time.Millisecond},
			})),
		}
		if hedge {
			opts = append(opts, fxdist.WithHedging(100*time.Microsecond))
		}
		cluster, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx}, opts...)
		if err != nil {
			b.Fatal(err)
		}
		pm, err := file.Spec(nil) // all-free: device 0 is always load-bearing
		if err != nil {
			b.Fatal(err)
		}
		// Warm past the hedger's observation gate so the hedged variant
		// measures steady state, not the arming ramp.
		for i := 0; i < 16; i++ {
			if _, err := cluster.Retrieve(pm); err != nil {
				b.Fatal(err)
			}
		}
		return cluster, pm
	}
	for _, hedge := range []bool{false, true} {
		name := "unhedged"
		if hedge {
			name = "hedged"
		}
		b.Run(name, func(b *testing.B) {
			cluster, pm := build(b, hedge)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.Retrieve(pm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchGate builds the serving tier's two upper rungs over the memory
// backend with the gate's shipped defaults, and the two queries the
// rungs are measured on: a point query naming every field of a stored
// record, and a scan naming only the 20-valued field — about a
// thousand records back.
func benchGate(b *testing.B) (g *gate.Gate, point, scan map[string]string) {
	b.Helper()
	file, _ := benchRelationFile(b, 20000)
	fs, err := file.FileSystem(8)
	if err != nil {
		b.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cluster.Close() })
	g, err = gate.New(gate.Config{Cluster: cluster, File: file, Allocator: fx,
		Tenants: []gate.TenantConfig{{Name: "bench", APIKey: "bench-key"}}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(g.Close)
	all, err := file.Search(make(fxdist.PartialMatch, 3))
	if err != nil {
		b.Fatal(err)
	}
	rec := all[0]
	return g, map[string]string{"a": rec[0], "b": rec[1], "c": rec[2]}, map[string]string{"c": rec[2]}
}

// gateFrame is one fx.retrieve request body for query.
func gateFrame(b *testing.B, query map[string]string) []byte {
	b.Helper()
	params, err := json.Marshal(client.RetrieveParams{Query: query})
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(client.Request{JSONRPC: "2.0", ID: json.RawMessage("1"), Method: client.MethodRetrieve, Params: params})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// serveFrame drives one frame through Gate.ServeHTTP, with no socket,
// and reports an answer that is not a result.
func serveFrame(g *gate.Gate, body []byte) error {
	req := httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer bench-key")
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"result":{`)) {
		return fmt.Errorf("status %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	return nil
}

// BenchmarkGateRetrieve is the gate rung of the ledger: one fx.retrieve
// frame through Gate.ServeHTTP — JSON-RPC decode, auth, admission, a
// dispatch of one (a lone caller never waits for company), the engine,
// the response frame — with no socket.
func BenchmarkGateRetrieve(b *testing.B) {
	g, point, scan := benchGate(b)
	for _, bc := range []struct {
		name  string
		query map[string]string
	}{{"point", point}, {"scan", scan}} {
		b.Run(bc.name, func(b *testing.B) {
			body := gateFrame(b, bc.query)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := serveFrame(g, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGateRetrieveParallel is what fxload's two clients cannot
// show: 16 callers of one shape at once, the load under which the gate
// is meant to batch. Besides the usual columns it reports, from
// Gate.Report deltas, batches/op (cluster dispatches per query; 1 means
// no batching) and coalesced/op (the fraction of queries that shared a
// dispatch).
func BenchmarkGateRetrieveParallel(b *testing.B) {
	const callers = 16
	g, point, scan := benchGate(b)
	for _, bc := range []struct {
		name  string
		query map[string]string
	}{{"point", point}, {"scan", scan}} {
		b.Run(bc.name, func(b *testing.B) {
			body := gateFrame(b, bc.query)
			before := g.Report()
			var issued atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for issued.Add(1) <= int64(b.N) {
						if err := serveFrame(g, body); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			after := g.Report()
			b.ReportMetric(float64(after.Batches-before.Batches)/float64(b.N), "batches/op")
			b.ReportMetric(float64(after.CoalescedQueries-before.CoalescedQueries)/float64(b.N), "coalesced/op")
		})
	}
}

// BenchmarkClientRetrieve is the client rung: the same two queries from
// client.Retrieve over loopback HTTP to the same gate, so what it adds
// to BenchmarkGateRetrieve is the HTTP round trip and the client's
// decode of the answer.
func BenchmarkClientRetrieve(b *testing.B) {
	g, point, scan := benchGate(b)
	srv := httptest.NewServer(g)
	defer srv.Close()
	c := client.New(srv.URL, client.WithAPIKey("bench-key"))
	defer c.Close()
	for _, bc := range []struct {
		name  string
		query map[string]string
	}{{"point", point}, {"scan", scan}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := c.Retrieve(context.Background(), bc.query)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Records) == 0 {
					b.Fatal("no records")
				}
			}
		})
	}
}
