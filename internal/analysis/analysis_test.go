package analysis

import (
	"math"
	"testing"

	"fxdist/internal/decluster"
	"fxdist/internal/field"
)

func approxRow(t *testing.T, got ResponseRow, want []float64, optimal float64, name string) {
	t.Helper()
	if len(got.Avg) != len(want) {
		t.Fatalf("%s k=%d: %d methods, want %d", name, got.K, len(got.Avg), len(want))
	}
	for i, w := range want {
		if math.Abs(got.Avg[i]-w) > 0.05 {
			t.Errorf("%s k=%d method %d: %.2f, want %.1f", name, got.K, i, got.Avg[i], w)
		}
	}
	if math.Abs(got.Optimal-optimal) > 0.05 {
		t.Errorf("%s k=%d optimal: %.2f, want %.1f", name, got.K, got.Optimal, optimal)
	}
}

// Table 7 (M=32, F=8^6). The Modulo, GDM1, GDM3 and Optimal columns match
// the paper's printed values exactly; FX matches except the paper's k=3
// row, where the printed 18.9 contradicts the paper's own Theorem 3 /
// Corollary 6.1 (every 3-subset contains an I+U, I+IU1 or U+IU1 pair with
// F_p*F_q = 64 >= M = 32, so FX is strict optimal and the average must be
// exactly 16.0). See EXPERIMENTS.md.
func TestTable7MatchesPaper(t *testing.T) {
	rows := Table7().Rows()
	// columns: Modulo, GDM1, GDM2, GDM3, FX
	approxRow(t, rows[0], []float64{8.0, 3.3, 3.5, 3.7, 3.2}, 2.0, "T7")
	approxRow(t, rows[1], []float64{48.0, 18.1, 18.9, 18.9, 16.0}, 16.0, "T7")
	approxRow(t, rows[2], []float64{344.0, 130.5, 132.7, 132.5, 128.0}, 128.0, "T7")
	approxRow(t, rows[3], []float64{2460.0, 1026.3, 1029.7, 1031.7, 1024.0}, 1024.0, "T7")
	approxRow(t, rows[4], []float64{18152.0, 8196.0, 8196.0, 8202.0, 8192.0}, 8192.0, "T7")
}

// Table 8 (M=64, F=8^6). Modulo, GDM1, GDM2, FX and Optimal columns match
// the paper exactly; GDM3's k=2 entry computes to 2.3 against the paper's
// printed 2.4.
func TestTable8MatchesPaper(t *testing.T) {
	rows := Table8().Rows()
	approxRow(t, rows[0], []float64{8.0, 2.1, 2.2, 2.3, 2.4}, 1.0, "T8")
	approxRow(t, rows[1], []float64{48.0, 10.2, 10.3, 10.6, 8.0}, 8.0, "T8")
	approxRow(t, rows[2], []float64{344.0, 68.3, 68.1, 67.5, 64.0}, 64.0, "T8")
	approxRow(t, rows[3], []float64{2460.0, 520.5, 517.0, 517.3, 512.0}, 512.0, "T8")
	approxRow(t, rows[4], []float64{18152.0, 4114.0, 4102.0, 4102.0, 4096.0}, 4096.0, "T8")
}

// Table 9 (M=512, F=(8,8,8,16,16,16), FX with IU2). Modulo and GDM1 match
// the paper exactly; FX k>=4 matches exactly (37.3, 384.0, 4096.0). For
// k=2 and k=3 we compute 1.9 / 5.2 against the paper's printed 2.3 / 5.6 —
// our values are *better* and consistent with Theorems 7-9 (the I+IU2 and
// U+IU2 pairs are perfect optimal), see EXPERIMENTS.md.
func TestTable9MatchesPaper(t *testing.T) {
	rows := Table9().Rows()
	approxRow(t, rows[0], []float64{9.6, 1.7, 1.3, 1.3, 1.9}, 1.0, "T9")
	approxRow(t, rows[1], []float64{91.2, 10.0, 5.5, 5.5, 5.2}, 3.1, "T9")
	approxRow(t, rows[2], []float64{911.2, 90.3, 40.4, 42.1, 37.3}, 35.2, "T9")
	approxRow(t, rows[3], []float64{9076.0, 909.5, 397.3, 408.7, 384.0}, 384.0, "T9")
	approxRow(t, rows[4], []float64{90404.0, 9176.0, 4144.0, 4158.0, 4096.0}, 4096.0, "T9")
}

// FX must dominate or match every other method for k >= 3 in all three
// tables (the paper's headline comparison), and sit at the optimum for
// every k >= 3.
func TestFXDominatesForLargeK(t *testing.T) {
	for _, ts := range []TableSpec{Table7(), Table8(), Table9()} {
		rows := ts.Rows()
		fxCol := len(rows[0].Avg) - 1
		for _, r := range rows {
			if r.K < 3 {
				continue
			}
			for i := 0; i < fxCol; i++ {
				if r.Avg[fxCol] > r.Avg[i]+1e-9 {
					t.Errorf("%s k=%d: FX %.2f worse than method %d (%.2f)",
						ts.Name, r.K, r.Avg[fxCol], i, r.Avg[i])
				}
			}
		}
	}
}

// No method can beat the Optimal column.
func TestNoMethodBeatsOptimal(t *testing.T) {
	for _, ts := range []TableSpec{Table7(), Table8(), Table9()} {
		for _, r := range ts.Rows() {
			for i, v := range r.Avg {
				if v < r.Optimal-1e-9 {
					t.Errorf("%s k=%d method %d: %.3f below optimal %.3f",
						ts.Name, r.K, i, v, r.Optimal)
				}
			}
		}
	}
}

func TestResponseTablePanicsOnMismatchedMethods(t *testing.T) {
	fsA := decluster.MustFileSystem([]int{8, 8}, 4)
	fsB := decluster.MustFileSystem([]int{8, 8}, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched method file systems accepted")
		}
	}()
	ResponseTable(fsA, []decluster.GroupAllocator{decluster.NewModulo(fsB)}, []int{1})
}

func TestTableSpecHeader(t *testing.T) {
	h := Table7().Header()
	if len(h) != 7 || h[0] != "k" || h[6] != "Optimal" {
		t.Errorf("header = %v", h)
	}
}

// Figures 1-4 shapes. The exact printed percentages are unreadable in the
// scanned figures, so we assert the properties the paper's §5.1 narrative
// claims: FD >= MD everywhere; MD collapses as small fields are added;
// FD stays at 100%% while the optimality conditions cover all subsets and
// degrades gently after; and the sufficient-condition series never
// exceeds the exact series.
func TestFigureShapes(t *testing.T) {
	for _, spec := range []FigureSpec{Figure1(), Figure3()} {
		pts := spec.Points(true)
		if len(pts) != spec.N+1 {
			t.Fatalf("%s: %d points, want %d", spec.Name, len(pts), spec.N+1)
		}
		for i, p := range pts {
			if p.FXPct < p.ModuloPct-1e-9 {
				t.Errorf("%s x=%d: FD %.1f%% < MD %.1f%%", spec.Name, p.SmallFields, p.FXPct, p.ModuloPct)
			}
			if p.FXPct > p.FXExactPct+1e-9 {
				t.Errorf("%s x=%d: sufficient %.1f%% exceeds exact %.1f%%", spec.Name, p.SmallFields, p.FXPct, p.FXExactPct)
			}
			if p.ModuloPct > p.ModuloExactPct+1e-9 {
				t.Errorf("%s x=%d: MD sufficient %.1f%% exceeds exact %.1f%%", spec.Name, p.SmallFields, p.ModuloPct, p.ModuloExactPct)
			}
			if i > 0 && p.ModuloPct > pts[i-1].ModuloPct+1e-9 {
				t.Errorf("%s: MD percentage increased at x=%d", spec.Name, p.SmallFields)
			}
		}
		if pts[0].ModuloPct != 100 || pts[0].FXPct != 100 {
			t.Errorf("%s: x=0 should be 100%% for both, got MD=%.1f FD=%.1f",
				spec.Name, pts[0].ModuloPct, pts[0].FXPct)
		}
		last := pts[spec.N]
		if last.FXPct <= last.ModuloPct {
			t.Errorf("%s: at x=n FD (%.1f%%) should strictly beat MD (%.1f%%)",
				spec.Name, last.FXPct, last.ModuloPct)
		}
	}
}

// Golden series for Figure 1: the regenerated percentages are locked so
// any regression in the predicates or planner shows up as a diff here.
func TestFigure1GoldenSeries(t *testing.T) {
	pts := Figure1().Points(false)
	wantMD := []float64{100, 100, 98.4375, 93.75, 82.8125, 59.375, 10.9375}
	wantFD := []float64{100, 100, 100, 100, 98.4375, 96.875, 95.3125}
	for i, p := range pts {
		if math.Abs(p.ModuloPct-wantMD[i]) > 1e-9 {
			t.Errorf("x=%d MD=%.4f want %.4f", i, p.ModuloPct, wantMD[i])
		}
		if math.Abs(p.FXPct-wantFD[i]) > 1e-9 {
			t.Errorf("x=%d FD=%.4f want %.4f", i, p.FXPct, wantFD[i])
		}
	}
}

// Golden series for Figure 3 (IU2 family, M=512).
func TestFigure3GoldenSeries(t *testing.T) {
	pts := Figure3().Points(false)
	wantFD := []float64{100, 100, 100, 100, 95.3125, 85.9375, 71.875}
	for i, p := range pts {
		if math.Abs(p.FXPct-wantFD[i]) > 1e-9 {
			t.Errorf("x=%d FD=%.4f want %.4f", i, p.FXPct, wantFD[i])
		}
	}
}

// Figure 1 regime: with up to 3 small fields FX keeps 100% strict
// optimality (Theorem 9 territory via pairwise products >= M).
func TestFigure1FXStaysPerfectEarly(t *testing.T) {
	pts := Figure1().Points(false)
	for _, p := range pts[:4] {
		if p.FXPct != 100 {
			t.Errorf("x=%d: FD = %.1f%%, want 100", p.SmallFields, p.FXPct)
		}
	}
}

// In the Figure 1 regime every pair of small fields has F_p*F_q >= M, so
// the only uncertified subsets are those whose small unspecified fields
// all share a transform method; the exact series confirms genuine
// failures exist at x = n (FX is not perfect optimal there).
func TestFigure1FXNotPerfectAtFullSmall(t *testing.T) {
	pts := Figure1().Points(true)
	last := pts[len(pts)-1]
	if last.FXExactPct == 100 {
		t.Error("FX unexpectedly perfect optimal with 6 small fields")
	}
}

func TestOptimalityCurveValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { OptimalityCurve(3, 16, 16, 32, field.FamilyIU1, false) }, // smallF >= M
		func() { OptimalityCurve(3, 16, 8, 8, field.FamilyIU1, false) },   // largeF < M
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid curve parameters accepted")
				}
			}()
			bad()
		}()
	}
}

func TestFormatRow(t *testing.T) {
	r := ResponseRow{K: 2, Avg: []float64{8.0, 3.25}, Optimal: 2.0}
	got := FormatRow(r)
	want := "2        8.0        3.2        2.0"
	if got != want {
		t.Errorf("FormatRow = %q, want %q", got, want)
	}
}

// Figure 2 and 4 (n=10) are bench-tier; smoke-test the sufficient-only
// path to keep tests fast.
func TestFigures2And4Smoke(t *testing.T) {
	for _, spec := range []FigureSpec{Figure2(), Figure4()} {
		pts := spec.Points(false)
		if len(pts) != 11 {
			t.Fatalf("%s: %d points", spec.Name, len(pts))
		}
		if pts[10].FXPct <= pts[10].ModuloPct {
			t.Errorf("%s: FD should beat MD at x=10", spec.Name)
		}
	}
}
