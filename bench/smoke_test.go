// Package bench holds the smoke test of the fxload benchmark: it builds
// the command and runs every workload end to end with one-second
// windows, the way the driver runs it.
package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

type traceSpan struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// runFxload runs the built command and returns its standard output.
func runFxload(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("fxload %v: %v\nstderr: %s\nstdout: %s", args, err, stderr.String(), out)
	}
	return out
}

// lastLine parses the result object the contract puts on the last line.
func lastLine(t *testing.T, out []byte) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return res
}

// checkMetrics asserts res carries exactly the named metrics, each
// finite and with its unit.
func checkMetrics(t *testing.T, res resultLine, want []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0:
			t.Errorf("metric %s = %v", m.Name, got.Value)
		case got.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "fxload")
	if out, err := exec.Command("go", "build", "-o", bin, "./fxload").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	short := []string{"-seed", "7", "-seconds", "1", "-warm-seconds", "0.3", "-setups", "1", "-trace-ops", "200", "-out", tmp}
	if len(spec.Workloads) != 4 {
		t.Fatalf("BENCHMARK.json names %d workloads, want 4", len(spec.Workloads))
	}

	// The runs go side by side: most of a one-second run is the
	// harness generating its inputs on one thread, and nothing asserted
	// here depends on how fast a run was.
	t.Run("untraced", func(t *testing.T) {
		t.Parallel()
		// The untraced contract: end-to-end metrics only, none zero.
		res := lastLine(t, runFxload(t, bin, append([]string{"--workload", "memory_point", "--trace", "0"}, short...)...))
		checkMetrics(t, res, spec.EndToEnd)
		for name, m := range res.Metrics {
			if m.Value == 0 {
				t.Errorf("end-to-end metric %s is 0", name)
			}
		}
	})
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			out := runFxload(t, bin, append([]string{"--workload", w.Name, "--trace", "1"}, short...)...)
			res := lastLine(t, out)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res, spec.PerLayer)

			// Every metric is also printed by name with its unit.
			printed := make(map[string]string)
			sc := bufio.NewScanner(bytes.NewReader(out))
			for sc.Scan() {
				if f := strings.Fields(sc.Text()); len(f) == 3 {
					if _, err := strconv.ParseFloat(f[1], 64); err == nil {
						printed[f[0]] = f[2]
					}
				}
			}
			for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
				if printed[m.Name] != m.Unit {
					t.Errorf("metric %s printed with unit %q, want %q", m.Name, printed[m.Name], m.Unit)
				}
			}

			v := func(name string) float64 { return res.Metrics[name].Value }
			if v("gate.rejected") != 0 {
				t.Errorf("gate.rejected = %v", v("gate.rejected"))
			}
			if v("plancache.hit_rate") != 1 {
				t.Errorf("plancache.hit_rate = %v, want 1 after the warm pass", v("plancache.hit_rate"))
			}
			if v("engine.retrieve_us") <= 0 {
				t.Errorf("engine.retrieve_us = %v", v("engine.retrieve_us"))
			}
			if strings.HasPrefix(w.Name, "gate_") {
				rungs := []string{"ladder.client_us", "ladder.gate_us", "ladder.netdist_us", "engine.retrieve_us"}
				for i := 1; i < len(rungs); i++ {
					if v(rungs[i-1]) < v(rungs[i]) {
						t.Errorf("rungs not monotone: %s = %v < %s = %v", rungs[i-1], v(rungs[i-1]), rungs[i], v(rungs[i]))
					}
				}
			}

			// The trace file: every span's parent resolves to a span of
			// the same operation.
			raw, err := os.ReadFile(filepath.Join(tmp, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				Workload string      `json:"workload"`
				Spans    []traceSpan `json:"spans"`
			}
			if err := json.Unmarshal(raw, &trace); err != nil {
				t.Fatal(err)
			}
			if trace.Workload != w.Name || len(trace.Spans) == 0 {
				t.Fatalf("trace of %q with %d spans", trace.Workload, len(trace.Spans))
			}
			byID := make(map[int]traceSpan, len(trace.Spans))
			for _, s := range trace.Spans {
				byID[s.ID] = s
			}
			for _, s := range trace.Spans {
				if s.End < s.Start {
					t.Fatalf("span %d ends before it starts", s.ID)
				}
				if s.Parent < 0 {
					continue
				}
				p, ok := byID[s.Parent]
				if !ok || p.Op != s.Op || p.Layer == s.Layer {
					t.Fatalf("span %d (%s, op %d) has parent %d: %+v", s.ID, s.Layer, s.Op, s.Parent, p)
				}
			}
		})
	}
}
