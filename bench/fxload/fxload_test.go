package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fxdist/internal/engine"
	"fxdist/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		sorted []uint32
		p      float64
		want   uint32
	}{
		{ten, 50, 50},   // ceil(0.5*10) = 5th
		{ten, 90, 90},   // 9th
		{ten, 99, 100},  // ceil(9.9) = 10th
		{ten, 100, 100}, // last
		{ten, 1, 10},    // ceil(0.1) = 1st
		{[]uint32{7}, 50, 7},
		{[]uint32{1, 2, 3}, 50, 2}, // ceil(1.5) = 2nd
		{[]uint32{1, 2, 3, 4}, 90, 4},
		{nil, 50, 0},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %d, want %d", tc.sorted, tc.p, got, tc.want)
		}
	}
}

func TestMedianMeanSpread(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5}, 5},
		{nil, 0},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	// (max-min)/median = (110-90)/100.
	if got := spread([]float64{100, 90, 110, 95, 105}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

// The expected values are statistics.quantiles(v, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{2, 4}, 1.5, 3, 4.5}, // two points extrapolate, as Python does
		{[]float64{1, 1, 2, 3, 5, 8, 13}, 1, 3, 8},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// Ten segments by hand: the reported number is the median segment, so
// one slow segment does not move it.
func TestSegmentMedians(t *testing.T) {
	var ops, p50, p90 []float64
	for i := 0; i < segments; i++ {
		// Segment i holds 10 samples of (i+1) ms ... except segment 3,
		// a "GC storm" of 2 samples at 500 ms.
		var s segment
		if i == 3 {
			s.lat = []uint32{500e6, 500e6}
		} else {
			for k := 0; k < 10; k++ {
				s.lat = append(s.lat, uint32((i+1)*1e6+k*1e3))
			}
		}
		st := s.statsOf(2)
		ops = append(ops, st.opsPerSec)
		p50 = append(p50, st.p50ms)
		p90 = append(p90, st.p90ms)
	}
	if got := median(ops); got != 5 { // nine segments of 10/2 s, one of 2/2 s
		t.Errorf("median ops/s = %v, want 5", got)
	}
	// p50 of a clean segment i is its 5th sample: (i+1) ms + 4 us. The
	// ten p50s sorted: 1.004 2.004 3.004 5.004 6.004 | 7.004 8.004 9.004
	// 10.004 500; the median is (6.004+7.004)/2.
	if got, want := median(p50), 6.504; math.Abs(got-want) > 1e-9 {
		t.Errorf("median p50 = %v, want %v", got, want)
	}
	if got, want := median(p90), 6.508; math.Abs(got-want) > 1e-9 { // 9th sample: +8 us
		t.Errorf("median p90 = %v, want %v", got, want)
	}
}

// 800 ops inside a 2 s segment and 2 that outlived it, 3208 ms of CPU:
// 400/s, and CPU is shared by all 802.
func TestSegmentCPUPerOpCountsLateOps(t *testing.T) {
	s := segment{lat: make([]uint32, 800), late: 2, cpu: 3208 * time.Millisecond}
	st := s.statsOf(2)
	if st.opsPerSec != 400 || math.Abs(st.cpuMsPerOp-4) > 1e-12 {
		t.Fatalf("stats = %+v, want 400/s and 4 ms CPU per op", st)
	}
}

// A failure counts as attempted and failed whenever it completes; a
// correct operation that outlives its segment is attempted but gives no
// latency sample; neither does a failed one.
func TestObserveCountsFailuresPastTheSegmentEnd(t *testing.T) {
	t0 := time.Unix(100, 0)
	end := t0.Add(time.Second)
	inside, past := t0.Add(time.Millisecond), end.Add(time.Millisecond)
	boom := errors.New("boom")
	var l clientLog
	l.observe(end, t0, inside, nil)
	l.observe(end, t0, inside, boom)
	l.observe(end, t0, past, nil)
	l.observe(end, t0, past, boom)
	if l.attempted != 4 || l.failed != 2 || l.late != 1 {
		t.Fatalf("attempted=%d failed=%d late=%d, want 4, 2, 1", l.attempted, l.failed, l.late)
	}
	if !reflect.DeepEqual(l.lat, []uint32{1e6}) || !reflect.DeepEqual(l.errs, []string{"boom", "boom"}) {
		t.Fatalf("samples %v, messages %v; want one 1 ms sample and both messages", l.lat, l.errs)
	}
}

func TestStolenShare(t *testing.T) {
	before, err := parseProcStat("cpu  1000 0 200 5000 50 0 10 100 0 0")
	if err != nil {
		t.Fatal(err)
	}
	// 300 more ticks wanted (200 user + 40 system + 60 steal), 500 idle.
	after, err := parseProcStat("cpu  1200 0 240 5500 50 0 10 160 0 0")
	if err != nil {
		t.Fatal(err)
	}
	if before.wanted != 1310 || before.stolen != 100 {
		t.Fatalf("parsed %+v, want wanted=1310 stolen=100", before)
	}
	if got := after.stolenSince(before); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("stolen share = %v, want 60/300", got)
	}
	if got := before.stolenSince(before); got != 0 {
		t.Fatalf("stolen share of no time = %v, want 0", got)
	}
	// No steal column (or not Linux): nothing counts as stolen.
	if st, err := parseProcStat("cpu 1 2 3"); err != nil || st != (procStat{}) {
		t.Fatalf("short line parsed as %+v, %v", st, err)
	}
}

func TestSelfTimesFloorAtZero(t *testing.T) {
	parent := []span{{Start: 0, End: 100}, {Start: 100, End: 150}, {Start: 200, End: 260}}
	child := []span{{Start: 0, End: 30}, {Start: 0, End: 80}} // second child longer than its parent; third missing
	got := selfTimes(parent, child)
	want := []float64{70, 0, 60}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// smallRelation keeps the stream tests fast.
var smallRelation = relation{
	spec:    workload.RecordSpec{Fields: fieldSpecs},
	depths:  []int{2, 2, 1, 1, 1, 1},
	records: 3000,
	m:       4,
}

var smallBand = band{p: 0.5, minRQ: 1, maxRQ: 64, minAns: 1, maxAns: 500, perClient: 64}

func streamsFor(t *testing.T, seed int64) [][]poolQuery {
	t.Helper()
	file, _, err := buildFile(smallRelation, seed)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := buildStreams(file, smallRelation, smallBand, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	return streams
}

// encodeStreams renders streams to bytes: pointers inside a
// PartialMatch differ between builds, values must not.
func encodeStreams(t *testing.T, streams [][]poolQuery) []byte {
	t.Helper()
	var buf bytes.Buffer
	for c, s := range streams {
		for i, q := range s {
			keys, err := json.Marshal(q.pairs) // map keys are sorted
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%d/%d %s %s want=%d digest=%x rq=%d\n", c, i, q.shape, keys, q.want, q.digest, q.rq)
		}
	}
	return buf.Bytes()
}

func TestStreamsRepeatPerSeed(t *testing.T) {
	a, b := encodeStreams(t, streamsFor(t, 42)), encodeStreams(t, streamsFor(t, 42))
	if !bytes.Equal(a, b) {
		t.Fatal("same seed gave different query streams")
	}
	if other := encodeStreams(t, streamsFor(t, 43)); bytes.Equal(a, other) {
		t.Fatal("different seeds gave identical query streams")
	}
	s := streamsFor(t, 42)
	if bytes.Equal(encodeStreams(t, s[:1]), encodeStreams(t, s[1:])) {
		t.Fatal("both clients drew the same stream")
	}
	for c := range s {
		if len(s[c]) != smallBand.perClient {
			t.Fatalf("client %d has %d queries, want %d", c, len(s[c]), smallBand.perClient)
		}
		for _, q := range s[c] {
			if q.want < smallBand.minAns || q.want > smallBand.maxAns || q.rq < smallBand.minRQ || q.rq > smallBand.maxRQ {
				t.Fatalf("query %v outside its band: want=%d rq=%d", q.pairs, q.want, q.rq)
			}
		}
	}
}

func TestInsertKeysRepeatAndStayDisjoint(t *testing.T) {
	universe := make([]map[string]bool, len(fieldSpecs))
	for j, f := range fieldSpecs {
		universe[j] = make(map[string]bool, f.Cardinality)
		for v := 0; v < f.Cardinality; v++ {
			universe[j][f.Value(v)] = true
		}
	}
	seen := make(map[string]bool)
	for c := 0; c < 2; c++ {
		for n := 0; n < 2000; n++ {
			rec := insertRecord(durableRelation, 42, c, n)
			if again := insertRecord(durableRelation, 42, c, n); !reflect.DeepEqual(rec, again) {
				t.Fatalf("insert key (%d,%d) differs between calls: %v vs %v", c, n, rec, again)
			}
			for j, v := range rec {
				if universe[j][v] {
					t.Fatalf("inserted value %q of field %d is in the read universe", v, j)
				}
			}
			if seen[rec[0]] {
				t.Fatalf("insert key %q issued twice", rec[0])
			}
			seen[rec[0]] = true
		}
	}
	if reflect.DeepEqual(insertRecord(durableRelation, 42, 0, 7), insertRecord(durableRelation, 43, 0, 7)) {
		t.Fatal("different seeds gave the same insert record")
	}
	rec := insertRecord(durableRelation, 42, 0, 0)
	if pm := exactMatch(rec); !engine.Matches(pm, rec) || len(pm) != len(rec) {
		t.Fatalf("exactMatch(%v) does not match its own record", rec)
	}
}

func TestDigestIgnoresOrder(t *testing.T) {
	a := [][]string{{"x", "y"}, {"p", "q"}, {"x", "y"}}
	b := [][]string{{"p", "q"}, {"x", "y"}, {"x", "y"}}
	if digestStrings(a) != digestStrings(b) {
		t.Fatal("digest depends on record order")
	}
	if digestStrings(a) == digestStrings(a[:2]) {
		t.Fatal("digest ignores a duplicate record")
	}
	if hashRecord([]string{"ab", "c"}) == hashRecord([]string{"a", "bc"}) {
		t.Fatal("digest ignores field boundaries")
	}
}

func TestReportAA(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"setup_s","unit":"s","better":"lower","bound":0.25},
		{"name":"allocs","unit":"count","better":"lower","bound":0.05},
		{"name":"hits","unit":"count","better":"higher","bound":0.05}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// write stores one set of runs the way aa.sh does: the metrics by
	// name, then the result object.
	write := func(sub, set string, setup, allocs, hits []float64) string {
		d := filepath.Join(dir, sub)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for i := range allocs {
			var out strings.Builder
			fmt.Fprintf(&out, "workload w seed 1 seconds 20 trace 0\n")
			fmt.Fprintf(&out, "%-34s %16.6f %s\n", "setup_s", setup[i], "s")
			fmt.Fprintf(&out, "%-34s %16.6f %s\n", "allocs", allocs[i], "count")
			fmt.Fprintf(&out, "%-34s %16.6f %s\n", "hits", hits[i], "count")
			for _, m := range demoted {
				fmt.Fprintf(&out, "%-34s %16.6f %s\n", m.Name, 100+40*float64(i), "x") // spread far above a tenth
			}
			fmt.Fprintf(&out, `{"correct":true,"attempted":9,"failed":0,"metrics":{}}`+"\n")
			if err := os.WriteFile(filepath.Join(d, fmt.Sprintf("%s-w-%d.txt", set, i)), []byte(out.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	check := func(d string, wantOK bool, wantBreaches int) {
		t.Helper()
		var out strings.Builder
		ok, err := reportAA(&out, d, bench)
		if err != nil || ok != wantOK || strings.Count(out.String(), "BREACH") != wantBreaches {
			t.Fatalf("%s: ok=%v err=%v, want ok=%v with %d breaches\n%s", d, ok, err, wantOK, wantBreaches, out.String())
		}
	}
	steady := []float64{100, 101, 99, 100.5, 99.5}
	// setup_s spreads by half and the demoted rows by more: neither fails.
	loose := []float64{1, 1.5, 1.2, 1.1, 1.3}
	good := write("good", "a", loose, steady, steady)
	write("good", "b", loose, steady, steady)
	check(good, true, 0)

	// Set b 10% more allocations and 10% fewer hits: both rows breach.
	more := []float64{110, 111, 109, 110.5, 109.5}
	less := []float64{90, 91, 89, 90.5, 89.5}
	bad := write("bad", "a", loose, steady, steady)
	write("bad", "b", loose, more, less)
	check(bad, false, 2)

	// Equal medians and quartiles inside the bound, but one run of five
	// 12% out: the in-set spread rule fails the gated row.
	outlier := []float64{100, 100.2, 99.8, 100.1, 112}
	spready := write("spready", "a", loose, outlier, steady)
	write("spready", "b", loose, steady, steady)
	check(spready, false, 1)

	// A run that failed an operation fails the check.
	failed := write("failed", "a", loose, steady, steady)
	write("failed", "b", loose, steady, steady)
	raw, err := os.ReadFile(filepath.Join(failed, "b-w-0.txt"))
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Replace(raw, []byte(`"correct":true,"attempted":9,"failed":0`), []byte(`"correct":false,"attempted":9,"failed":1`), 1)
	if err := os.WriteFile(filepath.Join(failed, "b-w-0.txt"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	check(failed, false, 0)

	if w := worseBy(100, 90, "lower"); w >= 0 {
		t.Fatalf("worseBy(lower is better, b lower) = %v, want negative", w)
	}
	if w := worseBy(100, 90, "higher"); math.Abs(w-0.1) > 1e-12 {
		t.Fatalf("worseBy(higher is better, b lower) = %v, want 0.1", w)
	}
}
