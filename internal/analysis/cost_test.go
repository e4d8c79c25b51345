package analysis

import (
	"testing"

	"fxdist/internal/field"
)

func TestCyclesArithmetic(t *testing.T) {
	s := Sequence{XORs: 2, ADDs: 1, ANDs: 1, MULs: 1, Shifts: []int{2, 3}}
	// MC68000: 2*8 + 4 + 4 + 70 + (6+4) + (6+6) = 116
	if got := MC68000.Cycles(s); got != 116 {
		t.Errorf("MC68000 cycles = %d, want 116", got)
	}
	// i80286: 2*2 + 2 + 2 + 21 + (5+2) + (5+3) = 44
	if got := I80286.Cycles(s); got != 44 {
		t.Errorf("i80286 cycles = %d, want 44", got)
	}
}

func TestSequenceShapes(t *testing.T) {
	g := GDMSequence(6)
	if g.MULs != 6 || g.ADDs != 5 || g.ANDs != 1 || g.XORs != 0 {
		t.Errorf("GDM sequence = %+v", g)
	}
	m := ModuloSequence(6)
	if m.ADDs != 5 || m.ANDs != 1 || m.MULs != 0 {
		t.Errorf("Modulo sequence = %+v", m)
	}
}

func TestFXSequenceByKind(t *testing.T) {
	// Plan: I, U (d1=4 -> shift 2), IU1 (d1=4 -> shift 2 + 1 xor),
	// IU2 on size-2 field with M=32 (d1=16 shift 4, d2=8 shift 3, 2 xors).
	plan := field.MustPlan([]int{8, 8, 8, 2}, 32,
		field.WithKinds([]field.Kind{field.I, field.U, field.IU1, field.IU2}))
	s := FXSequence(plan)
	if s.XORs != 1+2+3 { // IU1: 1, IU2: 2, combine: 3
		t.Errorf("XORs = %d, want 6", s.XORs)
	}
	if len(s.Shifts) != 4 {
		t.Fatalf("Shifts = %v, want 4 entries", s.Shifts)
	}
	if s.Shifts[0] != 2 || s.Shifts[1] != 2 || s.Shifts[2] != 4 || s.Shifts[3] != 3 {
		t.Errorf("Shift widths = %v", s.Shifts)
	}
	if s.ANDs != 1 || s.MULs != 0 || s.ADDs != 0 {
		t.Errorf("sequence = %+v", s)
	}
}

// Degenerate IU2 (F*F >= M) behaves like IU1 in the instruction stream.
func TestFXSequenceDegenerateIU2(t *testing.T) {
	plan := field.MustPlan([]int{8, 8}, 16,
		field.WithKinds([]field.Kind{field.I, field.IU2}))
	s := FXSequence(plan)
	if s.XORs != 1+1 || len(s.Shifts) != 1 {
		t.Errorf("degenerate IU2 sequence = %+v", s)
	}
}

// The paper's claim: on MC68000 the FX computation takes roughly a third
// of GDM's (the multiply dominates), and Modulo is cheaper than FX.
func TestPaperRatioClaim(t *testing.T) {
	plan := field.MustPlan([]int{8, 8, 8, 8, 8, 8}, 32,
		field.WithStrategy(field.RoundRobin), field.WithFamily(field.FamilyIU1))
	rows := CompareCPU(MC68000, plan)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	fx, gdm, md := rows[0], rows[1], rows[2]
	if fx.Method != "FX" || gdm.Method != "GDM" || md.Method != "Modulo" {
		t.Fatalf("row order wrong: %v", rows)
	}
	if gdm.VsGDM != 1.0 {
		t.Errorf("GDM ratio = %f", gdm.VsGDM)
	}
	if fx.VsGDM > 0.45 {
		t.Errorf("FX/GDM cycle ratio = %.2f, paper claims about one third", fx.VsGDM)
	}
	if fx.VsGDM < 0.1 {
		t.Errorf("FX/GDM cycle ratio = %.2f suspiciously low", fx.VsGDM)
	}
	if md.Cycles >= fx.Cycles {
		t.Errorf("Modulo (%d cycles) should be cheaper than FX (%d)", md.Cycles, fx.Cycles)
	}
	// Same ordering on the 80286.
	rows286 := CompareCPU(I80286, plan)
	if !(rows286[2].Cycles < rows286[0].Cycles && rows286[0].Cycles < rows286[1].Cycles) {
		t.Errorf("i80286 ordering violated: %v", rows286)
	}
}

func TestComparisonString(t *testing.T) {
	c := CPUComparison{CPU: "MC68000", Method: "FX", Cycles: 100, VsGDM: 0.25}
	if got := c.String(); got != "MC68000  FX        100 cycles  0.25x GDM" {
		t.Errorf("String = %q", got)
	}
}
