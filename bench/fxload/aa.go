package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The A/A check: bench/aa.sh runs two interleaved sets of runs of the
// same checkout and stores each run's output as
// <set>-<workload>-<i>.txt; reportAA prints, per workload and
// end-to-end metric, both sets' medians and quartiles, the widest
// in-set spread (max-min)/median, the wider set's quartile distance as
// a share of its median (the driver's acceptance measure), how much
// worse set b's median is than set a's, and the bound — and reports
// whether every row is within its bound and no in-set spread exceeds a
// tenth. A row that passes but whose quartile distance is wider than a
// third of its bound is marked "wide". The time-based numbers that were
// demoted to load.* diagnostics get a row each too, without a bound:
// the evidence for their demotion.

// maxSpread is the in-set (max-min)/median above which a gated metric
// fails the check: such a metric is demoted, not given a wide bound.
// setup_s is exempt from the spread rules: it is mandatory.
const maxSpread = 0.10

// demoted are the diagnostics the issue asked for as gated metrics.
var demoted = []boundSpec{
	{Name: "load.ops_per_s", Better: "higher"},
	{Name: "load.lat_p50_ms", Better: "lower"},
	{Name: "load.lat_p90_ms", Better: "lower"},
	{Name: "load.cpu_ms_per_op", Better: "lower"},
}

type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
}

// parseRun reads one run's output: the metrics printed by name ("name
// value unit" lines) and, from the result object on the last line,
// whether the run was correct.
func parseRun(raw []byte) (values map[string]float64, correct bool, err error) {
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var last struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		return nil, false, fmt.Errorf("last line is not the result object: %w", err)
	}
	values = make(map[string]float64)
	for _, line := range lines[:len(lines)-1] {
		if f := strings.Fields(line); len(f) == 3 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				values[f[0]] = v
			}
		}
	}
	return values, last.Correct && last.Failed == 0, nil
}

// worseBy is how much worse b is than a, as a share of a: positive when
// b is higher and lower is better, or lower and higher is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func reportAA(out io.Writer, dir, benchFile string) (bool, error) {
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		return false, err
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		return false, fmt.Errorf("%s: %w", benchFile, err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return false, err
	}
	sort.Strings(paths)
	// values[set][workload][metric] in run order.
	values := map[string]map[string]map[string][]float64{"a": {}, "b": {}}
	ok := true
	for _, p := range paths {
		parts := strings.SplitN(strings.TrimSuffix(filepath.Base(p), ".txt"), "-", 3)
		if len(parts) != 3 || values[parts[0]] == nil {
			return false, fmt.Errorf("%s: want <a|b>-<workload>-<i>.txt", p)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return false, err
		}
		run, correct, err := parseRun(raw)
		if err != nil {
			return false, fmt.Errorf("%s: %w", p, err)
		}
		if !correct {
			fmt.Fprintf(out, "FAILED RUN %s\n", p)
			ok = false
		}
		set := values[parts[0]]
		if set[parts[1]] == nil {
			set[parts[1]] = make(map[string][]float64)
		}
		for name, v := range run {
			set[parts[1]][name] = append(set[parts[1]][name], v)
		}
	}

	fmt.Fprintln(out, "| workload | metric | median a | q1–q3 a | median b | q1–q3 b | spread | iqr/median | b worse by | bound | |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|---|---|")
	for _, w := range bench.Workloads {
		for i, m := range append(append([]boundSpec(nil), bench.EndToEnd...), demoted...) {
			gated := i < len(bench.EndToEnd)
			a, b := values["a"][w.Name][m.Name], values["b"][w.Name][m.Name]
			if len(a) < 2 || len(b) < 2 {
				return false, fmt.Errorf("%s %s: %d and %d runs, need at least 2 per set", w.Name, m.Name, len(a), len(b))
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			inSet := math.Max(spread(a), spread(b))
			iqr := math.Max(ratio(a3-a1, a2), ratio(b3-b1, b2))
			worse := worseBy(a2, b2, m.Better)
			verdict, bound := "ok", fmt.Sprintf("%.0f%%", 100*m.Bound)
			switch {
			case !gated:
				verdict, bound = "demoted", "—"
			case worse > m.Bound:
				verdict = "BREACH: medians differ by more than the bound"
			case m.Name == "setup_s":
			case iqr > m.Bound:
				verdict = "BREACH: quartile distance exceeds the bound"
			case inSet > maxSpread:
				verdict = "BREACH: in-set spread above a tenth"
			case iqr > m.Bound/3:
				verdict = "wide"
			}
			if strings.HasPrefix(verdict, "BREACH") {
				ok = false
			}
			fmt.Fprintf(out, "| %s | %s | %.5g | %.5g–%.5g | %.5g | %.5g–%.5g | %.2f%% | %.2f%% | %+.2f%% | %s | %s |\n",
				w.Name, m.Name, a2, a1, a3, b2, b1, b3, 100*inSet, 100*iqr, 100*worse, bound, verdict)
		}
	}
	return ok, nil
}
