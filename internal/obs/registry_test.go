package obs

import (
	"strings"
	"testing"
)

func buildTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("test_requests_total", "Requests served.", L("device", "0")).Add(7)
	r.Counter("test_requests_total", "Requests served.", L("device", "1")).Add(3)
	r.Gauge("test_imbalance_ratio", "Max over mean load.").Set(1.25)
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(5)
	return r
}

// TestWritePrometheusGolden pins the full text exposition byte-for-byte:
// families sorted by name, entries by label, cumulative le buckets.
func TestWritePrometheusGolden(t *testing.T) {
	var sb strings.Builder
	if err := buildTestRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_imbalance_ratio Max over mean load.
# TYPE test_imbalance_ratio gauge
test_imbalance_ratio 1.25
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.001"} 1
test_latency_seconds_bucket{le="0.01"} 3
test_latency_seconds_bucket{le="0.1"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 5.0105
test_latency_seconds_count 4
# HELP test_requests_total Requests served.
# TYPE test_requests_total counter
test_requests_total{device="0"} 7
test_requests_total{device="1"} 3
`
	if got := sb.String(); got != want {
		t.Errorf("prometheus render mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCallbackInstruments: a CounterFunc renders as a counter and a
// GaugeFunc as a gauge, each reading its callback at render time.
func TestCallbackInstruments(t *testing.T) {
	r := NewRegistry()
	n := uint64(3)
	r.CounterFunc("cb_total", "Kept elsewhere.", func() uint64 { return n }, L("k", "v"))
	r.GaugeFunc("cb_ratio", "Derived.", func() float64 { return float64(n) / 2 })
	n = 5
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP cb_ratio Derived.
# TYPE cb_ratio gauge
cb_ratio 2.5
# HELP cb_total Kept elsewhere.
# TYPE cb_total counter
cb_total{k="v"} 5
`
	if got := sb.String(); got != want {
		t.Errorf("callback render:\n%s--- want ---\n%s", got, want)
	}
	if p := r.Snapshot(); len(p) != 2 || p[1].Kind != KindCounter || p[1].Value != 5 {
		t.Errorf("snapshot %+v", p)
	}
}

func TestRegistryIdempotentLookup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", L("k", "v"))
	b := r.Counter("x_total", "", L("k", "v"))
	if a != b {
		t.Error("same name+labels returned different counters")
	}
	c := r.Counter("x_total", "", L("k", "w"))
	if a == c {
		t.Error("different labels returned the same counter")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", L("path", `a"b\c`+"\n")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{path="a\"b\\c\n"} 1`) {
		t.Errorf("escaping wrong:\n%s", sb.String())
	}
}

func TestHelpEscaping(t *testing.T) {
	// HELP text with a raw newline would split the comment line and
	// corrupt the exposition; backslashes must double. Label values on
	// the same metric must keep their own (stricter) escaping.
	r := NewRegistry()
	r.Counter("hostile_total", "line one\nline two \\ done", L("who", "a\nb")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# HELP hostile_total line one\nline two \\ done`+"\n") {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `hostile_total{who="a\nb"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	// Every line must still parse as exposition format: comments or
	// name{labels} value.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") {
			t.Errorf("unparseable exposition line %q", line)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := buildTestRegistry()
	points := r.Snapshot()
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	// Sorted by name: gauge, histogram, counter{0}, counter{1}.
	if points[0].Name != "test_imbalance_ratio" || points[0].Value != 1.25 {
		t.Errorf("point 0 = %+v", points[0])
	}
	if points[1].Histogram == nil || points[1].Histogram.Count != 4 {
		t.Errorf("point 1 missing histogram: %+v", points[1])
	}
	if points[2].Labels[0].Value != "0" || points[2].Value != 7 {
		t.Errorf("point 2 = %+v", points[2])
	}
}
