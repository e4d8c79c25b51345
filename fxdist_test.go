package fxdist_test

import (
	"testing"

	"fxdist"
	"fxdist/internal/analysis"
)

// The public facade must support the full quickstart flow.
func TestPublicAPIQuickstart(t *testing.T) {
	fs, err := fxdist.NewFileSystem([]int{8, 8, 4}, 16)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	dev := fx.Device([]int{3, 5, 1})
	if dev < 0 || dev >= 16 {
		t.Fatalf("device %d out of range", dev)
	}
	q := fxdist.NewQuery([]int{3, fxdist.Unspecified, fxdist.Unspecified})
	loads := fxdist.Loads(fx, q)
	sum := 0
	for _, l := range loads {
		sum += l
	}
	if sum != 32 {
		t.Errorf("loads sum %d, want 32", sum)
	}
	if !fxdist.StrictOptimal(fx, q) {
		t.Error("FX not strict optimal for this query")
	}
	if got := fxdist.LargestLoad(fx, q); got != 2 {
		t.Errorf("LargestLoad = %d, want 2", got)
	}
	if !fxdist.PerfectOptimal(fx) {
		t.Error("three small fields should be perfect optimal (Theorem 9)")
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	fs, _ := fxdist.NewFileSystem([]int{4, 4}, 16)
	md := fxdist.NewModulo(fs)
	if fxdist.KOptimal(md, 2) {
		t.Error("Modulo should not be 2-optimal here")
	}
	gdm, err := fxdist.NewGDM(fs, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if gdm.Device([]int{2, 3}) != (3*2+4*3)%16 {
		t.Error("GDM device wrong")
	}
	bfx, err := fxdist.NewBasicFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range bfx.Plan().Kinds() {
		if k != fxdist.I {
			t.Error("Basic FX should be all identity")
		}
	}
}

func TestPublicAPISufficientConditions(t *testing.T) {
	fs, _ := fxdist.NewFileSystem([]int{2, 2, 2, 2}, 16)
	fx, _ := fxdist.NewFX(fs, fxdist.WithRoundRobinPlan(), fxdist.WithFamily(fxdist.FamilyIU2))
	q := fxdist.NewQuery([]int{0, fxdist.Unspecified, 1, fxdist.Unspecified})
	if !fxdist.FXGuaranteed(fx, q) {
		t.Error("two different-method small fields should be guaranteed")
	}
	if fxdist.ModuloGuaranteed(fs, q) {
		t.Error("Modulo should not be guaranteed without a large field")
	}
}

func TestPublicAPIFileAndCluster(t *testing.T) {
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "part", Cardinality: 100},
		{Name: "supplier", Cardinality: 20},
		{Name: "city", Cardinality: 10},
	}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{4, 3, 2}))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := fxdist.GenerateRecords(spec, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := file.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := file.FileSystem(8)
	if err != nil {
		t.Fatal(err)
	}
	fx, _ := fxdist.NewFX(fs)
	cluster, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	pms, err := fxdist.GeneratePartialMatches(spec, 20, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, pm := range pms {
		res, err := cluster.Retrieve(pm)
		if err != nil {
			t.Fatal(err)
		}
		want, err := file.Search(pm)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != len(want) {
			t.Fatalf("cluster returned %d records, file search %d", len(res.Records), len(want))
		}
	}
}

func TestPublicAPIAnalysis(t *testing.T) {
	rows := analysis.Table7().Rows()
	if len(rows) != 5 || rows[0].K != 2 {
		t.Fatalf("table rows = %+v", rows)
	}
	pts := analysis.Figure1().Points(false)
	if len(pts) != 7 {
		t.Fatalf("figure points = %d", len(pts))
	}
	curve := analysis.OptimalityCurve(4, 16, 4, 16, fxdist.FamilyIU1, false)
	if len(curve) != 5 {
		t.Fatalf("curve points = %d", len(curve))
	}
}

func TestPublicAPICPUCost(t *testing.T) {
	fs, _ := fxdist.NewFileSystem([]int{8, 8, 8, 8, 8, 8}, 32)
	fx, _ := fxdist.NewFX(fs, fxdist.WithRoundRobinPlan(), fxdist.WithFamily(fxdist.FamilyIU1))
	rows := analysis.CompareCPU(analysis.MC68000, fx.Plan())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Method != "FX" || rows[0].VsGDM > 0.45 {
		t.Errorf("FX row = %+v", rows[0])
	}
}

func TestPublicAPIInverseMapper(t *testing.T) {
	fs, _ := fxdist.NewFileSystem([]int{8, 8}, 4)
	fx, _ := fxdist.NewFX(fs)
	im := fxdist.NewInverseMapper(fx)
	q := fxdist.AllQuery(2)
	total := 0
	for dev := 0; dev < 4; dev++ {
		total += im.CountOnDevice(q, dev)
	}
	if total != 64 {
		t.Errorf("inverse map total %d, want 64", total)
	}
}
