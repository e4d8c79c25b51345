package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind identifies a metric family's type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Label is one name=value metric dimension.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// entry is one labelled instrument inside a family.
type entry struct {
	labels  []Label
	key     string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	// gaugeFn, when set, is read instead of gauge at render time
	// (callback gauges such as fxdist_uptime_seconds).
	gaugeFn atomic.Pointer[func() float64]
}

// gaugeValue reads the entry's gauge, preferring a callback when one is
// registered.
func (e *entry) gaugeValue() float64 {
	if fn := e.gaugeFn.Load(); fn != nil {
		return (*fn)()
	}
	return e.gauge.Value()
}

// family groups every label combination of one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	bounds []float64 // histogram families only
	index  map[string]*entry
}

// Registry holds named metric families. Lookups (Counter, Gauge,
// Histogram) are idempotent: the same name+labels returns the same
// instrument, so independent subsystems can share accumulation points.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the instrumented packages
// register against.
func Default() *Registry { return defaultRegistry }

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(0xff)
		}
		b.WriteString(l.Key)
		b.WriteByte(0xfe)
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortLabels returns labels sorted by key (copied; inputs are small).
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (r *Registry) entryFor(name, help string, kind Kind, bounds []float64, labels []Label) *entry {
	sorted := sortLabels(labels) // a copy: the caller's slice can stay on its stack
	key := labelKey(sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, index: make(map[string]*entry)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, kind))
	}
	e := f.index[key]
	if e == nil {
		e = &entry{labels: sorted, key: key}
		switch kind {
		case KindCounter:
			e.counter = &Counter{}
		case KindGauge:
			e.gauge = &Gauge{}
		case KindHistogram:
			e.hist = newHistogram(f.bounds)
		}
		f.index[key] = e
	}
	return e
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.entryFor(name, help, KindCounter, nil, labels).counter
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.entryFor(name, help, KindGauge, nil, labels).gauge
}

// GaugeFunc registers a callback gauge: renders read fn() instead of a
// stored value. Re-registering the same name+labels replaces the
// callback. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.entryFor(name, help, KindGauge, nil, labels).gaugeFn.Store(&fn)
}

// Histogram returns the histogram for name+labels, creating it on first
// use. The family's bucket bounds are fixed by the first registration;
// pass nil to default to DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return r.entryFor(name, help, KindHistogram, bounds, labels).hist
}

// famView is a consistent copy of one family's structure (entry sets
// are copied under the registry lock; instrument values stay live).
type famView struct {
	name    string
	help    string
	kind    Kind
	entries []*entry
}

// sortedFamilies returns families sorted by name, each with entries
// sorted by label key — the deterministic render order. Entry slices
// are copied under the lock so renders are safe against concurrent
// registration.
func (r *Registry) sortedFamilies() []famView {
	r.mu.Lock()
	fams := make([]famView, 0, len(r.families))
	for _, f := range r.families {
		v := famView{name: f.name, help: f.help, kind: f.kind, entries: make([]*entry, 0, len(f.index))}
		for _, e := range f.index {
			v.entries = append(v.entries, e)
		}
		fams = append(fams, v)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		entries := f.entries
		sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	}
	return fams
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes HELP text per the exposition format: backslashes
// and newlines only (quotes are legal in help strings).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// promLabels renders {k="v",...}; extra (e.g. le) is appended last.
func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = l.Key + `="` + escapeLabelValue(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error { return r.writeProm(w, false) }

// WritePrometheusExemplars renders the registry like WritePrometheus
// but appends OpenMetrics-style exemplars (` # {trace_id="…"} v ts`)
// to histogram bucket lines that have one. Served by /metrics under
// ?exemplars=1 — kept off the default path because strict 0.0.4
// parsers reject exemplar syntax.
func (r *Registry) WritePrometheusExemplars(w io.Writer) error { return r.writeProm(w, true) }

func (r *Registry) writeProm(w io.Writer, exemplars bool) error {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, e := range f.entries {
			var err error
			switch f.kind {
			case KindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, promLabels(e.labels), e.counter.Value())
			case KindGauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, promLabels(e.labels), formatFloat(e.gaugeValue()))
			case KindHistogram:
				err = writePromHistogram(w, f.name, e, exemplars)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, e *entry, exemplars bool) error {
	s := e.hist.Snapshot()
	writeBucket := func(b int, le string, cum uint64) error {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d", name, promLabels(e.labels, L("le", le)), cum); err != nil {
			return err
		}
		if exemplars && s.Exemplars != nil && s.Exemplars[b] != nil {
			ex := s.Exemplars[b]
			if _, err := fmt.Fprintf(w, " # {trace_id=\"%d\"} %s %d", ex.TraceID, formatFloat(ex.Value), ex.Time.Unix()); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	var cum uint64
	for b, bound := range s.Bounds {
		cum += s.Counts[b]
		if err := writeBucket(b, formatFloat(bound), cum); err != nil {
			return err
		}
	}
	cum += s.Counts[len(s.Bounds)]
	if err := writeBucket(len(s.Bounds), "+Inf", cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(e.labels), formatFloat(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(e.labels), s.Count)
	return err
}

// JSON rendering (expvar-style: one top-level key per metric family).

type jsonBucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

type jsonExemplar struct {
	LE      string  `json:"le"` // bucket bound, "+Inf" for the overflow bucket
	Value   float64 `json:"value"`
	TraceID uint64  `json:"trace_id"`
}

type jsonMetric struct {
	Labels    map[string]string `json:"labels,omitempty"`
	Value     *float64          `json:"value,omitempty"`
	Count     *uint64           `json:"count,omitempty"`
	Sum       *float64          `json:"sum,omitempty"`
	P50       *float64          `json:"p50,omitempty"`
	P99       *float64          `json:"p99,omitempty"`
	Buckets   []jsonBucket      `json:"buckets,omitempty"`
	Exemplars []jsonExemplar    `json:"exemplars,omitempty"`
}

type jsonFamily struct {
	Kind    string       `json:"kind"`
	Help    string       `json:"help,omitempty"`
	Metrics []jsonMetric `json:"metrics"`
}

// WriteJSON renders the registry as a JSON object keyed by metric name
// (served on /debug/vars).
func (r *Registry) WriteJSON(w io.Writer) error {
	top := make(map[string]jsonFamily)
	for _, f := range r.sortedFamilies() {
		jf := jsonFamily{Kind: f.kind.String(), Help: f.help}
		for _, e := range f.entries {
			m := jsonMetric{}
			if len(e.labels) > 0 {
				m.Labels = make(map[string]string, len(e.labels))
				for _, l := range e.labels {
					m.Labels[l.Key] = l.Value
				}
			}
			switch f.kind {
			case KindCounter:
				v := float64(e.counter.Value())
				m.Value = &v
			case KindGauge:
				v := e.gaugeValue()
				m.Value = &v
			case KindHistogram:
				s := e.hist.Snapshot()
				count, sum := s.Count, s.Sum
				p50, p99 := s.Quantile(0.5), s.Quantile(0.99)
				m.Count, m.Sum, m.P50, m.P99 = &count, &sum, &p50, &p99
				var cum uint64
				for b, bound := range s.Bounds {
					cum += s.Counts[b]
					m.Buckets = append(m.Buckets, jsonBucket{LE: bound, Count: cum})
				}
				if s.Exemplars != nil {
					for b, ex := range s.Exemplars {
						if ex == nil {
							continue
						}
						le := "+Inf"
						if b < len(s.Bounds) {
							le = formatFloat(s.Bounds[b])
						}
						m.Exemplars = append(m.Exemplars, jsonExemplar{LE: le, Value: ex.Value, TraceID: ex.TraceID})
					}
				}
			}
			jf.Metrics = append(jf.Metrics, m)
		}
		top[f.name] = jf
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(top)
}

// Point is one metric sample in a programmatic snapshot.
type Point struct {
	Name   string
	Kind   Kind
	Labels []Label
	// Value carries counter (as float64) and gauge readings.
	Value float64
	// Histogram is set for histogram points.
	Histogram *HistogramSnapshot
}

// Snapshot returns every registered metric's current value, sorted by
// name then label key.
func (r *Registry) Snapshot() []Point {
	var out []Point
	for _, f := range r.sortedFamilies() {
		for _, e := range f.entries {
			p := Point{Name: f.name, Kind: f.kind, Labels: append([]Label(nil), e.labels...)}
			switch f.kind {
			case KindCounter:
				p.Value = float64(e.counter.Value())
			case KindGauge:
				p.Value = e.gaugeValue()
			case KindHistogram:
				s := e.hist.Snapshot()
				p.Histogram = &s
			}
			out = append(out, p)
		}
	}
	return out
}
