package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"fxdist/internal/bitsx"
	"fxdist/internal/decluster"
	"fxdist/internal/field"
)

// tableDef is one of the paper's worked examples (Tables 1-6): the
// bucket-to-device mapping of Basic and Extended FX distribution on a
// small file system, in the paper's format (binary field values, decimal
// device numbers).
type tableDef struct {
	num     int
	caption string
	sizes   []int
	m       int
	kinds   []field.Kind
	// withModulo adds the paper's Modulo comparison column (Table 2).
	withModulo bool
}

// workedTables[i] is Table i+1.
var workedTables = []tableDef{
	{1, "Basic FX distribution", []int{2, 8}, 4, []field.Kind{field.I, field.I}, false},
	{2, "FX distribution with I and U transformation (vs Modulo)", []int{4, 4}, 16, []field.Kind{field.I, field.U}, true},
	{3, "FX distribution with I and IU1 transformation", []int{4, 4}, 16, []field.Kind{field.I, field.IU1}, false},
	{4, "FX distribution with I, U and IU1 transformation", []int{2, 4, 2}, 8, []field.Kind{field.I, field.U, field.IU1}, false},
	{5, "FX distribution with I and IU2 transformation", []int{8, 2}, 16, []field.Kind{field.I, field.IU2}, false},
	{6, "FX distribution with I, U and IU2 transformation", []int{4, 2, 2}, 16, []field.Kind{field.I, field.U, field.IU2}, false},
}

func printTable(out io.Writer, def tableDef) {
	fs := decluster.MustFileSystem(def.sizes, def.m)
	fx := decluster.MustFX(fs, field.WithKinds(def.kinds))
	md := decluster.NewModulo(fs)

	fmt.Fprintf(out, "Table %d. %s\n", def.num, def.caption)
	fmt.Fprintf(out, "  file system: F = %v, M = %d, plan = %v\n\n", def.sizes, def.m, fx.Plan())

	// Column headers: transformed field values, then device number(s).
	// Each column prints log2(M) bits (the paper's convention), widened
	// when an identity-transformed field is larger than M.
	widths := make([]int, fs.NumFields())
	for i, f := range def.sizes {
		widths[i] = bitsx.Log2(def.m)
		if fb := bitsx.Log2(f); fb > widths[i] {
			widths[i] = fb
		}
	}
	header := "  "
	for i, fn := range fx.Plan().Funcs {
		header += fmt.Sprintf("%-*s ", widths[i]+2, fmt.Sprintf("%v(f%d)", fn.Kind(), i+1))
	}
	header += "Device(FX)"
	if def.withModulo {
		header += "  Device(Modulo)"
	}
	fmt.Fprintln(out, header)
	fmt.Fprintln(out, "  "+strings.Repeat("-", len(header)))

	fs.EachBucket(func(b []int) {
		row := "  "
		for i, v := range b {
			t := fx.Plan().Funcs[i].Apply(v)
			row += fmt.Sprintf("%-*s ", widths[i]+2, bitsx.Binary(t, widths[i]))
		}
		row += fmt.Sprintf("%10d", fx.Device(b))
		if def.withModulo {
			row += fmt.Sprintf("%16d", md.Device(b))
		}
		fmt.Fprintln(out, row)
	})
	fmt.Fprintln(out)
}

// runTables reprints Tables 1-6.
func runTables(fs *flag.FlagSet, args []string, out io.Writer) error {
	tableNum := fs.Int("table", 0, "table number to print (1-6); 0 prints all")
	if err := parse(fs, args); err != nil {
		return err
	}
	defs, err := pick(workedTables, 1, *tableNum, "table")
	if err != nil {
		return err
	}
	for _, def := range defs {
		printTable(out, def)
	}
	return nil
}
