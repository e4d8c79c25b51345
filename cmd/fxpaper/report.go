package main

// Renderers of the analysis results (response-size tables, optimality
// curves, CPU cost comparisons) as plain text, CSV or JSON, so the
// subcommands can feed plotting pipelines directly.

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strconv"

	"fxdist/internal/analysis"
)

// Format selects an output encoding.
type Format string

// Supported formats.
const (
	Text Format = "text"
	CSV  Format = "csv"
	JSON Format = "json"
)

// ParseFormat validates a format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case Text, CSV, JSON:
		return Format(s), nil
	default:
		return "", fmt.Errorf("unknown format %q (want text, csv or json)", s)
	}
}

// Set and String make *Format a flag.Value, so a bad -format is the flag
// package's error like any other.
func (f *Format) Set(s string) error {
	v, err := ParseFormat(s)
	if err == nil {
		*f = v
	}
	return err
}

func (f *Format) String() string { return string(*f) }

// formatFlag registers the -format flag every rendering subcommand takes.
func formatFlag(fs *flag.FlagSet) *Format {
	format := Text
	fs.Var(&format, "format", "output format: text, csv or json")
	return &format
}

// Table renders a response-size table.
func Table(w io.Writer, spec analysis.TableSpec, format Format) error {
	rows := spec.Rows()
	header := spec.Header()
	switch format {
	case Text:
		fmt.Fprintf(w, "%s — %s\n", spec.Name, spec.Caption)
		line := fmt.Sprintf("  %-3s", header[0])
		for _, h := range header[1:] {
			line += fmt.Sprintf(" %14s", shortName(h))
		}
		fmt.Fprintln(w, line)
		for _, r := range rows {
			line := fmt.Sprintf("  %-3d", r.K)
			for _, v := range r.Avg {
				line += fmt.Sprintf(" %14.1f", v)
			}
			line += fmt.Sprintf(" %14.1f", r.Optimal)
			fmt.Fprintln(w, line)
		}
		return nil
	case CSV:
		recs := [][]string{header}
		for _, r := range rows {
			rec := []string{strconv.Itoa(r.K)}
			for _, v := range r.Avg {
				rec = append(rec, formatFloat(v))
			}
			recs = append(recs, append(rec, formatFloat(r.Optimal)))
		}
		return csv.NewWriter(w).WriteAll(recs)
	case JSON:
		type jsonRow struct {
			K       int                `json:"k"`
			Methods map[string]float64 `json:"methods"`
			Optimal float64            `json:"optimal"`
		}
		out := struct {
			Name    string    `json:"name"`
			Caption string    `json:"caption"`
			Rows    []jsonRow `json:"rows"`
		}{Name: spec.Name, Caption: spec.Caption}
		for _, r := range rows {
			jr := jsonRow{K: r.K, Methods: map[string]float64{}, Optimal: r.Optimal}
			for i, v := range r.Avg {
				jr.Methods[header[i+1]] = v
			}
			out.Rows = append(out.Rows, jr)
		}
		return writeJSON(w, out)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

// Figure renders an optimality curve.
func Figure(w io.Writer, spec analysis.FigureSpec, exact bool, format Format) error {
	points := spec.Points(exact)
	switch format {
	case Text:
		fmt.Fprintf(w, "%s — %s\n", spec.Name, spec.Caption)
		if exact {
			fmt.Fprintf(w, "  %-12s %8s %8s %12s %12s\n", "smallFields", "MD%", "FD%", "MD-exact%", "FD-exact%")
		} else {
			fmt.Fprintf(w, "  %-12s %8s %8s\n", "smallFields", "MD%", "FD%")
		}
		for _, p := range points {
			if exact {
				fmt.Fprintf(w, "  %-12d %8.1f %8.1f %12.1f %12.1f\n",
					p.SmallFields, p.ModuloPct, p.FXPct, p.ModuloExactPct, p.FXExactPct)
			} else {
				fmt.Fprintf(w, "  %-12d %8.1f %8.1f\n", p.SmallFields, p.ModuloPct, p.FXPct)
			}
		}
		return nil
	case CSV:
		header := []string{"small_fields", "md_pct", "fd_pct"}
		if exact {
			header = append(header, "md_exact_pct", "fd_exact_pct")
		}
		recs := [][]string{header}
		for _, p := range points {
			rec := []string{strconv.Itoa(p.SmallFields), formatFloat(p.ModuloPct), formatFloat(p.FXPct)}
			if exact {
				rec = append(rec, formatFloat(p.ModuloExactPct), formatFloat(p.FXExactPct))
			}
			recs = append(recs, rec)
		}
		return csv.NewWriter(w).WriteAll(recs)
	case JSON:
		out := struct {
			Name    string                     `json:"name"`
			Caption string                     `json:"caption"`
			Exact   bool                       `json:"exact"`
			Points  []analysis.OptimalityPoint `json:"points"`
		}{Name: spec.Name, Caption: spec.Caption, Exact: exact, Points: points}
		return writeJSON(w, out)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

// CPUCost renders the §5.2.2 comparison for the given CPUs and plan rows.
func CPUCost(w io.Writer, rows []analysis.CPUComparison, format Format) error {
	switch format {
	case Text:
		for _, r := range rows {
			fmt.Fprintln(w, "  "+r.String())
		}
		return nil
	case CSV:
		recs := [][]string{{"cpu", "method", "cycles", "vs_gdm"}}
		for _, r := range rows {
			recs = append(recs, []string{r.CPU, r.Method, strconv.Itoa(r.Cycles), formatFloat(r.VsGDM)})
		}
		return csv.NewWriter(w).WriteAll(recs)
	case JSON:
		return writeJSON(w, rows)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

// writeJSON is the one JSON layout of every artefact: two-space indent.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// shortName maps verbose allocator names to the paper's column labels.
func shortName(name string) string {
	switch name {
	case "GDM{2,3,5,7,11,13}":
		return "GDM1"
	case "GDM{2,5,11,43,51,57}":
		return "GDM2"
	case "GDM{41,43,47,51,53,57}":
		return "GDM3"
	}
	if len(name) > 3 && name[:3] == "FX[" {
		return "FX"
	}
	return clip(name, 14)
}

func clip(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}
