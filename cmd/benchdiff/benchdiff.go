// The comparison itself: two snapshots produced by scripts/bench.sh (the
// BENCH_<date>.json files in the repo root) in, the deltas and whether
// any regressed out. Alloc counts are near-deterministic, so they get a
// stricter gate than wall time.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Bench is one benchmark's folded result in a snapshot.
type Bench struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Snapshot is one BENCH_<date>.json file.
type Snapshot struct {
	Date       string  `json:"date"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Benchmarks []Bench `json:"benchmarks"`
}

// Load reads and decodes one snapshot file.
func Load(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Thresholds are the regression gates, as fractions of the baseline.
// Wall time is noisy (scheduler, CPU contention), so it gets a wide
// allowance; allocs/op is near-deterministic and gets a tight one,
// plus half an alloc of absolute slack for the snapshot's mean
// rounding across -count runs. B/op sits in between: with pooled
// buffers on the hot path a pool miss allocates a whole size class
// and misses depend on GC timing, so bytes wobble like wall time
// even when alloc counts hold steady — it gets the wide allowance
// plus 64 bytes of absolute slack so tiny benchmarks aren't gated
// on a single rounded-up slab.
type Thresholds struct {
	NsFrac     float64 // ns/op may grow by this fraction (default 0.25)
	BytesFrac  float64 // B/op may grow by this fraction (default 0.25)
	AllocsFrac float64 // allocs/op may grow by this fraction (default 0.10)
}

// bytesSlack is the absolute B/op growth always allowed on top of the
// fractional gate: one size class of pool-miss rounding.
const bytesSlack = 64

// DefaultThresholds gates ns/op at +25%, B/op at +25% (+64 bytes),
// and allocs/op at +10%.
func DefaultThresholds() Thresholds {
	return Thresholds{NsFrac: 0.25, BytesFrac: 0.25, AllocsFrac: 0.10}
}

// Delta is one benchmark's baseline-to-current comparison.
type Delta struct {
	Name        string  `json:"name"`
	BaseNs      float64 `json:"base_ns_per_op"`
	CurNs       float64 `json:"cur_ns_per_op"`
	NsFrac      float64 `json:"ns_frac"` // (cur-base)/base
	BaseBytes   float64 `json:"base_bytes_per_op"`
	CurBytes    float64 `json:"cur_bytes_per_op"`
	BytesFrac   float64 `json:"bytes_frac"`
	BaseAllocs  float64 `json:"base_allocs_per_op"`
	CurAllocs   float64 `json:"cur_allocs_per_op"`
	AllocsFrac  float64 `json:"allocs_frac"`
	Missing     bool    `json:"missing,omitempty"` // in baseline, absent from current
	NsRegressed bool    `json:"ns_regressed,omitempty"`
	BytesRegr   bool    `json:"bytes_regressed,omitempty"`
	AllocsRegr  bool    `json:"allocs_regressed,omitempty"`
}

// Regressed reports whether this delta trips any gate. A benchmark
// that vanished from the current snapshot counts as a regression — a
// gate that silently stops measuring is no gate.
func (d Delta) Regressed() bool {
	return d.Missing || d.NsRegressed || d.BytesRegr || d.AllocsRegr
}

// Diff compares current against base, one Delta per baseline
// benchmark (sorted by name), and reports whether any regressed.
// Benchmarks only in current are new coverage, not regressions, and
// are not reported.
func Diff(base, cur Snapshot, th Thresholds) ([]Delta, bool) {
	if th.NsFrac <= 0 {
		th.NsFrac = DefaultThresholds().NsFrac
	}
	if th.BytesFrac <= 0 {
		th.BytesFrac = DefaultThresholds().BytesFrac
	}
	if th.AllocsFrac <= 0 {
		th.AllocsFrac = DefaultThresholds().AllocsFrac
	}
	curBy := make(map[string]Bench, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curBy[b.Name] = b
	}
	deltas := make([]Delta, 0, len(base.Benchmarks))
	bad := false
	for _, b := range base.Benchmarks {
		d := Delta{Name: b.Name, BaseNs: b.NsPerOp, BaseBytes: b.BytesPerOp, BaseAllocs: b.AllocsPerOp}
		c, ok := curBy[b.Name]
		if !ok {
			d.Missing = true
			bad = true
			deltas = append(deltas, d)
			continue
		}
		d.CurNs = c.NsPerOp
		d.CurBytes = c.BytesPerOp
		d.CurAllocs = c.AllocsPerOp
		d.NsFrac = frac(b.NsPerOp, c.NsPerOp)
		d.BytesFrac = frac(b.BytesPerOp, c.BytesPerOp)
		d.AllocsFrac = frac(b.AllocsPerOp, c.AllocsPerOp)
		d.NsRegressed = b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+th.NsFrac)
		// Baselines that predate -benchmem carry no B/op; don't gate them.
		d.BytesRegr = b.BytesPerOp > 0 && c.BytesPerOp > b.BytesPerOp*(1+th.BytesFrac)+bytesSlack
		d.AllocsRegr = c.AllocsPerOp > b.AllocsPerOp*(1+th.AllocsFrac)+0.5
		if d.Regressed() {
			bad = true
		}
		deltas = append(deltas, d)
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	return deltas, bad
}

func frac(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (cur - base) / base
}

// WriteText renders the comparison as an aligned table, regressions
// marked with the gate they tripped.
func WriteText(w io.Writer, base, cur Snapshot, deltas []Delta, th Thresholds) {
	fmt.Fprintf(w, "base %s (%s)  vs  current %s (%s)\n", base.Date, base.Commit, cur.Date, cur.Commit)
	fmt.Fprintf(w, "gates: ns/op +%.0f%%, B/op +%.0f%%+%dB, allocs/op +%.0f%%\n",
		th.NsFrac*100, th.BytesFrac*100, bytesSlack, th.AllocsFrac*100)
	fmt.Fprintf(w, "%-45s %14s %14s %8s %12s %12s %8s %12s %12s %8s  %s\n",
		"benchmark", "base ns/op", "cur ns/op", "Δns",
		"base B/op", "cur B/op", "ΔB",
		"base allocs", "cur allocs", "Δallocs", "verdict")
	for _, d := range deltas {
		if d.Missing {
			fmt.Fprintf(w, "%-45s %14.1f %14s %8s %12.1f %12s %8s %12.1f %12s %8s  REGRESSED (missing from current snapshot)\n",
				d.Name, d.BaseNs, "-", "-", d.BaseBytes, "-", "-", d.BaseAllocs, "-", "-")
			continue
		}
		var tripped []string
		if d.NsRegressed {
			tripped = append(tripped, "ns/op")
		}
		if d.BytesRegr {
			tripped = append(tripped, "B/op")
		}
		if d.AllocsRegr {
			tripped = append(tripped, "allocs/op")
		}
		verdict := "ok"
		if len(tripped) > 0 {
			verdict = "REGRESSED (" + strings.Join(tripped, " and ") + ")"
		}
		fmt.Fprintf(w, "%-45s %14.1f %14.1f %7.1f%% %12.1f %12.1f %7.1f%% %12.1f %12.1f %7.1f%%  %s\n",
			d.Name, d.BaseNs, d.CurNs, d.NsFrac*100,
			d.BaseBytes, d.CurBytes, d.BytesFrac*100,
			d.BaseAllocs, d.CurAllocs, d.AllocsFrac*100, verdict)
	}
}
