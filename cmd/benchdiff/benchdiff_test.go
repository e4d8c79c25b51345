package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func snap(benches ...Bench) Snapshot {
	return Snapshot{Date: "2026-08-08", Go: "go1.24.0", Commit: "abc1234", Benchmarks: benches}
}

func TestDiffPassesWithinNoise(t *testing.T) {
	base := snap(
		Bench{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100},
		Bench{Name: "BenchmarkB", NsPerOp: 50, AllocsPerOp: 0},
	)
	cur := snap(
		Bench{Name: "BenchmarkA", NsPerOp: 1200, AllocsPerOp: 105}, // +20% ns, +5% allocs
		Bench{Name: "BenchmarkB", NsPerOp: 40, AllocsPerOp: 0},
		Bench{Name: "BenchmarkNew", NsPerOp: 9999, AllocsPerOp: 9999}, // new coverage, not a regression
	)
	deltas, regressed := Diff(base, cur, DefaultThresholds())
	if regressed {
		t.Fatalf("within-noise diff flagged as regression: %+v", deltas)
	}
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2 (baseline benchmarks only)", len(deltas))
	}
}

func TestDiffCatchesNsRegression(t *testing.T) {
	base := snap(Bench{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100})
	cur := snap(Bench{Name: "BenchmarkA", NsPerOp: 1300, AllocsPerOp: 100}) // +30% > 25% gate
	deltas, regressed := Diff(base, cur, DefaultThresholds())
	if !regressed || !deltas[0].NsRegressed {
		t.Fatalf("+30%% ns/op not flagged: %+v", deltas[0])
	}
	if deltas[0].AllocsRegr {
		t.Fatalf("allocs wrongly flagged: %+v", deltas[0])
	}
}

func TestDiffCatchesAllocRegression(t *testing.T) {
	base := snap(Bench{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100})
	cur := snap(Bench{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 115}) // +15% > 10% gate
	deltas, regressed := Diff(base, cur, DefaultThresholds())
	if !regressed || !deltas[0].AllocsRegr {
		t.Fatalf("+15%% allocs/op not flagged: %+v", deltas[0])
	}
}

func TestDiffZeroAllocBaseline(t *testing.T) {
	// 0 → 0 passes; 0 → small rounding slack passes; 0 → 1 fails.
	base := snap(Bench{Name: "BenchmarkA", NsPerOp: 35, AllocsPerOp: 0})
	for _, tc := range []struct {
		cur  float64
		want bool
	}{{0, false}, {0.3, false}, {1, true}} {
		cur := snap(Bench{Name: "BenchmarkA", NsPerOp: 35, AllocsPerOp: tc.cur})
		_, regressed := Diff(base, cur, DefaultThresholds())
		if regressed != tc.want {
			t.Errorf("0 → %.1f allocs/op: regressed=%v, want %v", tc.cur, regressed, tc.want)
		}
	}
}

func TestDiffCatchesBytesRegression(t *testing.T) {
	base := snap(Bench{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 10000, AllocsPerOp: 100})
	cur := snap(Bench{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 13500, AllocsPerOp: 100}) // +35% > 25% gate
	deltas, regressed := Diff(base, cur, DefaultThresholds())
	if !regressed || !deltas[0].BytesRegr {
		t.Fatalf("+35%% B/op not flagged: %+v", deltas[0])
	}
	if deltas[0].NsRegressed || deltas[0].AllocsRegr {
		t.Fatalf("ns/allocs wrongly flagged: %+v", deltas[0])
	}
}

func TestDiffBytesSlackAndMissingBaseline(t *testing.T) {
	// A tiny benchmark growing by one pool size class stays inside the
	// absolute slack even though the fractional growth is huge; a
	// baseline without B/op (pre-benchmem snapshot) is not gated at all.
	base := snap(
		Bench{Name: "BenchmarkTiny", NsPerOp: 50, BytesPerOp: 16, AllocsPerOp: 1},
		Bench{Name: "BenchmarkNoBytes", NsPerOp: 50, AllocsPerOp: 1},
	)
	cur := snap(
		Bench{Name: "BenchmarkTiny", NsPerOp: 50, BytesPerOp: 80, AllocsPerOp: 1}, // +64B: inside slack
		Bench{Name: "BenchmarkNoBytes", NsPerOp: 50, BytesPerOp: 1 << 20, AllocsPerOp: 1},
	)
	deltas, regressed := Diff(base, cur, DefaultThresholds())
	if regressed {
		t.Fatalf("slack/unbaselined B/op growth flagged: %+v", deltas)
	}
}

func TestDiffMissingBenchmarkRegresses(t *testing.T) {
	base := snap(
		Bench{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100},
		Bench{Name: "BenchmarkGone", NsPerOp: 500, AllocsPerOp: 10},
	)
	cur := snap(Bench{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100})
	deltas, regressed := Diff(base, cur, DefaultThresholds())
	if !regressed {
		t.Fatal("missing benchmark not flagged as regression")
	}
	var gone *Delta
	for i := range deltas {
		if deltas[i].Name == "BenchmarkGone" {
			gone = &deltas[i]
		}
	}
	if gone == nil || !gone.Missing || !gone.Regressed() {
		t.Fatalf("BenchmarkGone delta wrong: %+v", gone)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	s := snap(Bench{Name: "BenchmarkA", Runs: 3, Iterations: 42, NsPerOp: 1000.5, BytesPerOp: 64, AllocsPerOp: 2})
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != 1 || got.Benchmarks[0] != s.Benchmarks[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("loading a missing file did not error")
	}
}

func TestLoadCommittedSnapshotFormat(t *testing.T) {
	// The real snapshot format (awk-emitted by scripts/bench.sh) must
	// decode: guard against the JSON field names drifting apart.
	matches, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(matches) == 0 {
		t.Skipf("no committed BENCH_*.json snapshots: %v", err)
	}
	s, err := Load(matches[len(matches)-1])
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) == 0 || s.Date == "" {
		t.Fatalf("snapshot %s decoded empty: %+v", matches[len(matches)-1], s)
	}
	for _, b := range s.Benchmarks {
		if b.Name == "" || b.NsPerOp <= 0 {
			t.Fatalf("benchmark decoded without name or ns/op: %+v", b)
		}
	}
}

func TestWriteTextMarksRegressions(t *testing.T) {
	base := snap(
		Bench{Name: "BenchmarkOK", NsPerOp: 100, AllocsPerOp: 10},
		Bench{Name: "BenchmarkSlow", NsPerOp: 100, AllocsPerOp: 10},
		Bench{Name: "BenchmarkGone", NsPerOp: 100, AllocsPerOp: 10},
	)
	cur := snap(
		Bench{Name: "BenchmarkOK", NsPerOp: 101, AllocsPerOp: 10},
		Bench{Name: "BenchmarkSlow", NsPerOp: 500, AllocsPerOp: 10},
	)
	th := DefaultThresholds()
	deltas, regressed := Diff(base, cur, th)
	if !regressed {
		t.Fatal("expected regression")
	}
	var sb strings.Builder
	WriteText(&sb, base, cur, deltas, th)
	out := sb.String()
	if !strings.Contains(out, "REGRESSED (ns/op)") || !strings.Contains(out, "missing from current") {
		t.Fatalf("text output missing verdicts:\n%s", out)
	}
	if strings.Count(out, "REGRESSED") != 2 {
		t.Fatalf("want exactly 2 REGRESSED rows:\n%s", out)
	}
}
