package main

import (
	"flag"
	"fmt"
	"io"

	"fxdist/internal/analysis"
	"fxdist/internal/field"
)

// The paper's quantitative artefacts, listed once: bench, figures and exp
// all read these.

// tables are Tables 7-9; tables[i] is Table i+7.
var tables = []analysis.TableSpec{analysis.Table7(), analysis.Table8(), analysis.Table9()}

// figures are Figures 1-4; figures[i] is Figure i+1.
var figures = []analysis.FigureSpec{
	analysis.Figure1(), analysis.Figure2(), analysis.Figure3(), analysis.Figure4(),
}

// cpuRows is the §5.2.2 comparison: the address computation of a 6-field
// file on 32 devices, on both CPUs the paper names.
func cpuRows() []analysis.CPUComparison {
	plan := field.MustPlan([]int{8, 8, 8, 8, 8, 8}, 32,
		field.WithStrategy(field.RoundRobin), field.WithFamily(field.FamilyIU1))
	var rows []analysis.CPUComparison
	for _, cpu := range []analysis.CPU{analysis.MC68000, analysis.I80286} {
		rows = append(rows, analysis.CompareCPU(cpu, plan)...)
	}
	return rows
}

// pick returns the artefacts to print: all of them for num 0, else the
// one numbered num when the first is numbered first.
func pick[T any](all []T, first, num int, flagName string) ([]T, error) {
	if num == 0 {
		return all, nil
	}
	if num < first || num >= first+len(all) {
		return nil, usageError(fmt.Sprintf("-%s must be %d..%d", flagName, first, first+len(all)-1))
	}
	return all[num-first : num-first+1], nil
}

// runBench prints Tables 7-9 and the CPU cost comparison.
func runBench(fs *flag.FlagSet, args []string, out io.Writer) error {
	tableNum := fs.Int("table", 0, "table number to print (7-9); 0 prints all")
	cpuOnly := fs.Bool("cpu", false, "print only the CPU cost comparison")
	format := formatFlag(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	specs, err := pick(tables, 7, *tableNum, "table")
	if err != nil {
		return err
	}
	if !*cpuOnly {
		for _, ts := range specs {
			if err := Table(out, ts, *format); err != nil {
				return err
			}
			if *format == Text {
				fmt.Fprintln(out)
			}
		}
	}
	if !*cpuOnly && *tableNum != 0 {
		return nil
	}
	if *format == Text {
		fmt.Fprintln(out, "§5.2.2 CPU computation time (bucket address computation, 6 fields)")
	}
	return CPUCost(out, cpuRows(), *format)
}

// runFigures prints the data series behind Figures 1-4: the percentage of
// partial match queries for which the Modulo (MD) and FX (FD)
// distributions are certified strict optimal, as a function of the number
// of fields smaller than the device count M.
func runFigures(fs *flag.FlagSet, args []string, out io.Writer) error {
	figNum := fs.Int("figure", 0, "figure number to print (1-4); 0 prints all")
	exact := fs.Bool("exact", false, "also compute exact optimality percentages by convolution")
	format := formatFlag(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	specs, err := pick(figures, 1, *figNum, "figure")
	if err != nil {
		return err
	}
	for _, spec := range specs {
		if err := Figure(out, spec, *exact, *format); err != nil {
			return err
		}
		if *format == Text {
			fmt.Fprintln(out)
		}
	}
	return nil
}
