package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fxdist/internal/analysis"
	"fxdist/internal/field"
)

// runExp runs the paper's complete evaluation and writes every artefact
// into a results directory: Tables 7-9 and Figures 1-4 as CSV and JSON,
// the CPU cost comparison, the M-sweep extension, and a SUMMARY.md
// indexing everything — one command to reproduce the paper.
func runExp(fs *flag.FlagSet, args []string, out io.Writer) error {
	dir := fs.String("out", "results", "output directory")
	quick := fs.Bool("quick", false, "skip exact optimality percentages in figures")
	if err := parse(fs, args); err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	return writeArtefacts(out, *dir, *quick, func(name string) (io.WriteCloser, error) {
		return os.Create(filepath.Join(*dir, name))
	})
}

// writeArtefacts computes each artefact and writes it to the file create
// opens under that name; dir is what the progress lines call the place.
// Every file goes through one buffered writer, so a write that fails
// anywhere inside a renderer surfaces at the flush and fails the run.
func writeArtefacts(out io.Writer, dir string, quick bool, create func(name string) (io.WriteCloser, error)) error {
	start := time.Now()
	var index []string

	write := func(name string, fill func(w io.Writer) error) error {
		f, err := create(name)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		if err = fill(w); err == nil {
			err = w.Flush()
		}
		return errors.Join(err, f.Close())
	}
	writeBoth := func(name string, render func(w io.Writer, format Format) error) error {
		base := strings.ToLower(strings.ReplaceAll(name, " ", ""))
		for _, format := range []Format{CSV, JSON} {
			err := write(base+"."+string(format), func(w io.Writer) error { return render(w, format) })
			if err != nil {
				return err
			}
		}
		index = append(index, fmt.Sprintf("- `%s.csv` / `%s.json`", base, base))
		return nil
	}

	for _, spec := range tables {
		fmt.Fprintf(out, "computing %s...\n", spec.Name)
		err := writeBoth(spec.Name, func(w io.Writer, format Format) error { return Table(w, spec, format) })
		if err != nil {
			return err
		}
	}
	for _, spec := range figures {
		fmt.Fprintf(out, "computing %s...\n", spec.Name)
		err := writeBoth(spec.Name, func(w io.Writer, format Format) error { return Figure(w, spec, !quick, format) })
		if err != nil {
			return err
		}
	}
	fmt.Fprintln(out, "computing CPU cost comparison...")
	rows := cpuRows()
	err := writeBoth("cpucost", func(w io.Writer, format Format) error { return CPUCost(w, rows, format) })
	if err != nil {
		return err
	}

	// Extension: M-sweep.
	fmt.Fprintln(out, "computing M-sweep...")
	pts, err := analysis.MSweep([]int{8, 8, 8, 8}, []int{8, 32, 128, 512}, field.FamilyIU2)
	if err != nil {
		return err
	}
	err = write("msweep.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "m,small_fields,fx_exact_pct,fx_certified_pct,md_exact_pct")
		for _, p := range pts {
			fmt.Fprintf(w, "%d,%d,%.4f,%.4f,%.4f\n", p.M, p.SmallFields, p.FXExactPct, p.FXCertifiedPct, p.ModuloExactPct)
		}
		return nil
	})
	if err != nil {
		return err
	}
	index = append(index, "- `msweep.csv` (extension: optimality vs device count)")

	err = write("SUMMARY.md", func(w io.Writer) error {
		fmt.Fprintf(w, "# fxdist evaluation artifacts\n\nGenerated in %v.\n\n", time.Since(start).Round(time.Millisecond))
		fmt.Fprintln(w, "Reproduces Kim & Pramanik, SIGMOD 1988 — see EXPERIMENTS.md for")
		fmt.Fprintln(w, "paper-vs-measured notes.")
		fmt.Fprintln(w)
		for _, line := range index {
			fmt.Fprintln(w, line)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d artifacts to %s in %v\n", len(index), dir, time.Since(start).Round(time.Millisecond))
	return nil
}
