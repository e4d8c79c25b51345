// This file reproduces the paper's §5.2.2 CPU computation time
// comparison. The paper argues that in main-memory databases the address
// computation (bucket distribution and inverse mapping) dominates, and
// compares optimized instruction sequences on MC68000 cycle counts:
// XOR 8, ADD 4, AND 4, n-bit shift 6+2n, multiply 70. FX needs only xors,
// shifts (its multipliers are powers of two) and a final AND; GDM needs a
// genuine multiply per field because its multipliers are primes or odd
// numbers; Modulo needs only adds and an AND.

package analysis

import (
	"fmt"

	"fxdist/internal/bitsx"
	"fxdist/internal/field"
)

// CPU holds per-instruction cycle counts.
type CPU struct {
	Name string
	// XOR, ADD, AND, MUL are register-to-register cycle counts.
	XOR, ADD, AND, MUL int
	// An n-bit shift costs ShiftBase + ShiftPerBit*n cycles.
	ShiftBase, ShiftPerBit int
}

// MC68000 is the cycle table the paper quotes: XOR 8, ADD 4, AND 4,
// shift 6+2n, MUL 70.
var MC68000 = CPU{Name: "MC68000", XOR: 8, ADD: 4, AND: 4, MUL: 70, ShiftBase: 6, ShiftPerBit: 2}

// I80286 approximates the Intel 80286 the paper mentions ("the ratios of
// clock cycles between different operations are almost similar to those of
// MC68000"): ALU ops 2 cycles, shifts 5+n, 16-bit multiply 21.
var I80286 = CPU{Name: "i80286", XOR: 2, ADD: 2, AND: 2, MUL: 21, ShiftBase: 5, ShiftPerBit: 1}

// Sequence is the instruction mix of one bucket-address computation.
type Sequence struct {
	Method string
	XORs   int
	ADDs   int
	ANDs   int
	MULs   int
	// Shifts lists the bit widths of each shift instruction.
	Shifts []int
}

// Cycles evaluates the sequence on the CPU.
func (c CPU) Cycles(s Sequence) int {
	total := s.XORs*c.XOR + s.ADDs*c.ADD + s.ANDs*c.AND + s.MULs*c.MUL
	for _, n := range s.Shifts {
		total += c.ShiftBase + c.ShiftPerBit*n
	}
	return total
}

// FXSequence returns the instruction mix to compute one FX device number
// under the given transformation plan: per field, the transform's shifts
// and xors (multiplications by d1/d2 become shifts because the multipliers
// are powers of two); n-1 xors to combine the fields; one final AND for
// T_M.
func FXSequence(plan field.Plan) Sequence {
	s := Sequence{Method: "FX"}
	for _, fn := range plan.Funcs {
		switch fn.Kind() {
		case field.I:
			// No work: the hashed value is used as is.
		case field.U:
			s.Shifts = append(s.Shifts, bitsx.Log2(fn.D1()))
		case field.IU1:
			s.Shifts = append(s.Shifts, bitsx.Log2(fn.D1()))
			s.XORs++
		case field.IU2:
			s.Shifts = append(s.Shifts, bitsx.Log2(fn.D1()))
			s.XORs++
			if fn.D2() > 0 {
				s.Shifts = append(s.Shifts, bitsx.Log2(fn.D2()))
				s.XORs++
			}
		}
	}
	s.XORs += len(plan.Funcs) - 1 // combine fields
	s.ANDs++                      // T_M
	return s
}

// GDMSequence returns the instruction mix for GDM over n fields: one
// multiply per field (multipliers are primes/odd, so no shift trick),
// n-1 adds, and an AND implementing mod M for power-of-two M.
func GDMSequence(n int) Sequence {
	return Sequence{Method: "GDM", MULs: n, ADDs: n - 1, ANDs: 1}
}

// ModuloSequence returns the instruction mix for Modulo over n fields:
// n-1 adds and a final AND.
func ModuloSequence(n int) Sequence {
	return Sequence{Method: "Modulo", ADDs: n - 1, ANDs: 1}
}

// CPUComparison is one row of the §5.2.2 comparison for a CPU.
type CPUComparison struct {
	CPU    string
	Method string
	Cycles int
	VsGDM  float64 // this method's cycles / GDM's cycles
}

// CompareCPU evaluates FX (under plan), GDM and Modulo on the CPU and reports
// cycle counts and ratios against GDM — the paper's "FX takes about one
// third of GDM" claim is the FX row's VsGDM.
func CompareCPU(c CPU, plan field.Plan) []CPUComparison {
	n := len(plan.Funcs)
	seqs := []Sequence{FXSequence(plan), GDMSequence(n), ModuloSequence(n)}
	gdm := c.Cycles(seqs[1])
	out := make([]CPUComparison, len(seqs))
	for i, s := range seqs {
		cy := c.Cycles(s)
		out[i] = CPUComparison{CPU: c.Name, Method: s.Method, Cycles: cy, VsGDM: float64(cy) / float64(gdm)}
	}
	return out
}

// String renders a comparison row.
func (cm CPUComparison) String() string {
	return fmt.Sprintf("%-8s %-7s %5d cycles  %.2fx GDM", cm.CPU, cm.Method, cm.Cycles, cm.VsGDM)
}
