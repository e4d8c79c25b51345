package obs

import (
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
	// fn, when set, is read instead of the counter or gauge at render
	// time: a callback instrument (fxdist_uptime_seconds, or a value
	// its owner already keeps).
	fn atomic.Pointer[func() float64]
}

// value reads the entry's counter or gauge, preferring a callback when
// one is registered.
func (e *entry) value() float64 {
	if fn := e.fn.Load(); fn != nil {
		return (*fn)()
	}
	if e.counter != nil {
		return float64(e.counter.Value())
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
// instrument. Each owner of what is measured (a cluster's instruments,
// a device server, a gate) builds its own; there is no process-wide one.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

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
	r.entryFor(name, help, KindGauge, nil, labels).fn.Store(&fn)
}

// CounterFunc registers a callback counter over a count its owner keeps
// anyway: renders read fn(), which must never decrease. Re-registering
// the same name+labels replaces the callback. fn must be safe for
// concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	f := func() float64 { return float64(fn()) }
	r.entryFor(name, help, KindCounter, nil, labels).fn.Store(&f)
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

// writeProm renders like WritePrometheus; with exemplars it appends
// OpenMetrics-style exemplars (` # {trace_id="…"} v ts`) to histogram
// bucket lines that have one — served by /metrics under ?exemplars=1,
// off the default path because strict 0.0.4 parsers reject the syntax.
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
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, promLabels(e.labels), uint64(e.value()))
			case KindGauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, promLabels(e.labels), formatFloat(e.value()))
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
			if f.kind == KindHistogram {
				s := e.hist.Snapshot()
				p.Histogram = &s
			} else {
				p.Value = e.value()
			}
			out = append(out, p)
		}
	}
	return out
}
