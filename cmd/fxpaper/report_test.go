package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"fxdist/internal/analysis"
	"fxdist/internal/decluster"
	"fxdist/internal/field"
)

func smallTable() analysis.TableSpec {
	fs := decluster.MustFileSystem([]int{4, 4}, 16)
	return analysis.TableSpec{
		Name:    "MiniTable",
		Caption: "M=16, F=4,4",
		FS:      fs,
		Methods: []decluster.GroupAllocator{
			decluster.NewModulo(fs),
			decluster.MustFX(fs, field.WithKinds([]field.Kind{field.I, field.U})),
		},
		Ks: []int{1, 2},
	}
}

func TestParseFormat(t *testing.T) {
	for _, s := range []string{"text", "csv", "json"} {
		if _, err := ParseFormat(s); err != nil {
			t.Errorf("ParseFormat(%q) = %v", s, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestTableText(t *testing.T) {
	var buf bytes.Buffer
	if err := Table(&buf, smallTable(), Text); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "MiniTable") || !strings.Contains(out, "Optimal") {
		t.Errorf("text output missing pieces:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := Table(&buf, smallTable(), CSV); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 { // header + 2 rows
		t.Fatalf("csv rows = %d", len(recs))
	}
	if recs[0][0] != "k" || recs[0][len(recs[0])-1] != "Optimal" {
		t.Errorf("csv header = %v", recs[0])
	}
	// k=2 row: Modulo 4, FX 1, Optimal 1.
	if recs[2][1] != "4" || recs[2][2] != "1" || recs[2][3] != "1" {
		t.Errorf("csv k=2 row = %v", recs[2])
	}
}

func TestTableJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := Table(&buf, smallTable(), JSON); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Name string `json:"name"`
		Rows []struct {
			K       int                `json:"k"`
			Methods map[string]float64 `json:"methods"`
			Optimal float64            `json:"optimal"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Name != "MiniTable" || len(decoded.Rows) != 2 {
		t.Fatalf("decoded = %+v", decoded)
	}
	if decoded.Rows[1].Methods["Modulo"] != 4 {
		t.Errorf("k=2 Modulo = %v", decoded.Rows[1].Methods)
	}
}

func TestFigureFormats(t *testing.T) {
	spec := analysis.FigureSpec{
		Name: "MiniFig", Caption: "test", N: 3, M: 16, SmallF: 4, LargeF: 16,
		Family: field.FamilyIU2,
	}
	for _, exact := range []bool{false, true} {
		var text, csvBuf, jsonBuf bytes.Buffer
		if err := Figure(&text, spec, exact, Text); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text.String(), "MiniFig") {
			t.Error("text output missing name")
		}
		if err := Figure(&csvBuf, spec, exact, CSV); err != nil {
			t.Fatal(err)
		}
		recs, err := csv.NewReader(&csvBuf).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		wantCols := 3
		if exact {
			wantCols = 5
		}
		if len(recs) != 5 || len(recs[0]) != wantCols { // header + 4 points
			t.Fatalf("exact=%v: csv shape %dx%d", exact, len(recs), len(recs[0]))
		}
		if err := Figure(&jsonBuf, spec, exact, JSON); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(jsonBuf.Bytes()) {
			t.Error("invalid JSON")
		}
	}
}

func TestCPUCostFormats(t *testing.T) {
	plan := field.MustPlan([]int{8, 8}, 32)
	rows := analysis.CompareCPU(analysis.MC68000, plan)
	for _, f := range []Format{Text, CSV, JSON} {
		var buf bytes.Buffer
		if err := CPUCost(&buf, rows, f); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%v: empty output", f)
		}
	}
}

func TestUnknownFormatErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Table(&buf, smallTable(), Format("xml")); err == nil {
		t.Error("Table accepted unknown format")
	}
	if err := Figure(&buf, analysis.Figure1(), false, Format("xml")); err == nil {
		t.Error("Figure accepted unknown format")
	}
	if err := CPUCost(&buf, nil, Format("xml")); err == nil {
		t.Error("CPUCost accepted unknown format")
	}
}

func TestClip(t *testing.T) {
	if clip("abcdef", 3) != "abc" || clip("ab", 3) != "ab" {
		t.Error("clip wrong")
	}
}
