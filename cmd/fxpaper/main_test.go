package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// invoke runs one fxpaper command line in-process and returns its stdout.
func invoke(t *testing.T, args ...string) []byte {
	t.Helper()
	var out, errw bytes.Buffer
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("fxpaper %s: exit %d: %s", strings.Join(args, " "), code, errw.String())
	}
	return out.Bytes()
}

// The files under testdata are the stdout of the seven binaries fxpaper
// replaced (fxtables, fxbench, fxfigures, fxplan at commit 5228842):
// what a user sees of Tables 1-9, Figures 1-4 and the CPU comparison must
// not move by a byte.
func TestGoldenOutput(t *testing.T) {
	for golden, args := range map[string][]string{
		"tables.golden":        {"tables"},
		"bench.golden":         {"bench"},
		"bench-cpu.golden":     {"bench", "-cpu"},
		"bench-csv.golden":     {"bench", "-format", "csv"},
		"figures-exact.golden": {"figures", "-exact"},
		"figures-json.golden":  {"figures", "-format", "json"},
		"plan.golden":          {"plan", "-fields", "8,8,8,16,16,16", "-m", "512"},
		"plan-search.golden":   {"plan", "-fields", "2,2,2,2", "-m", "16", "-search"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := invoke(t, args...); !bytes.Equal(got, want) {
			t.Errorf("fxpaper %s differs from testdata/%s:\n%s", strings.Join(args, " "), golden, got)
		}
	}
}

func TestExpQuickFileSet(t *testing.T) {
	dir := t.TempDir()
	invoke(t, "exp", "-out", dir, "-quick")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	want := []string{"SUMMARY.md", "msweep.csv"}
	for _, base := range []string{"cpucost", "figure1", "figure2", "figure3", "figure4", "table7", "table8", "table9"} {
		want = append(want, base+".csv", base+".json")
	}
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("exp -quick wrote %v, want %v", got, want)
	}
	file, err := os.ReadFile(filepath.Join(dir, "table7.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout := invoke(t, "bench", "-table", "7", "-format", "csv"); !bytes.Equal(file, stdout) {
		t.Errorf("table7.csv is not bench -table 7 -format csv:\n%s\nvs\n%s", file, stdout)
	}
}

// failAfter accepts k bytes, then fails every write.
type failAfter struct{ k int }

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.k {
		n := f.k
		f.k = 0
		return n, errDiskFull
	}
	f.k -= len(p)
	return len(p), nil
}

func (f *failAfter) Close() error { return nil }

// A truncated artefact fails the run, whichever file it is: msweep.csv
// and SUMMARY.md are written with bare Fprintf calls and used to report
// "wrote 9 artifacts" over a short file.
func TestExpFailsOnShortWrite(t *testing.T) {
	for _, victim := range []string{"table7.csv", "figure2.json", "msweep.csv", "SUMMARY.md"} {
		var out bytes.Buffer
		err := writeArtefacts(&out, "nowhere", true, func(name string) (io.WriteCloser, error) {
			if name == victim {
				return &failAfter{k: 10}, nil
			}
			return &failAfter{k: 1 << 20}, nil
		})
		if !errors.Is(err, errDiskFull) {
			t.Errorf("%s truncated after 10 bytes: err = %v, want %v", victim, err, errDiskFull)
		}
		if strings.Contains(out.String(), "wrote") {
			t.Errorf("%s truncated, yet: %s", victim, out.String())
		}
	}
}

// store create|info|query and check agree about one store on disk.
func TestStoreRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cars")
	created := invoke(t, "store", "-dir", dir, "create", "-records", "500", "-devices", "4")
	if !strings.Contains(string(created), "500 records on 4 devices") {
		t.Errorf("create: %s", created)
	}
	if info := invoke(t, "store", "-dir", dir, "info"); !strings.Contains(string(info), "records: 500") {
		t.Errorf("info: %s", info)
	}
	if q := invoke(t, "store", "-dir", dir, "query", "make=make-3"); !strings.Contains(string(q), "matching records; buckets/device") {
		t.Errorf("query: %s", q)
	}
	if chk := invoke(t, "check", "-dir", dir); !strings.Contains(string(chk), "OK: placement and hashing invariants hold") {
		t.Errorf("check: %s", chk)
	}
}

func TestExitStatus(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{nil, 2},
		{[]string{"nope"}, 2},
		{[]string{"bench", "-table", "5"}, 2},
		{[]string{"bench", "-format", "xml"}, 2},
		{[]string{"figures", "-figure", "9"}, 2},
		{[]string{"store"}, 2},
		{[]string{"check"}, 2},
		{[]string{"check", "-dir", filepath.Join(t.TempDir(), "missing")}, 1},
		{[]string{"plan"}, 1},
	} {
		if got := run(c.args, io.Discard, io.Discard); got != c.want {
			t.Errorf("fxpaper %v: exit %d, want %d", c.args, got, c.want)
		}
	}
	// What the flag package says about a bad flag goes where run was told
	// to put messages, not to the process's stderr.
	var errw bytes.Buffer
	if run([]string{"store", "-dir", t.TempDir(), "create", "-nope"}, io.Discard, &errw); !strings.Contains(errw.String(), "flag provided but not defined: -nope") {
		t.Errorf("store create -nope: errw = %q", errw.String())
	}
}
