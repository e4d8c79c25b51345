package client

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"fxdist"
)

// mirrorResult has RetrieveResult's fields and tags and no methods, so
// encoding/json handles it by reflection: it is what the wire looked
// like before the hand-written codec, and what a client built before
// it still decodes with. Every codec test compares against it.
type mirrorResult struct {
	APIVersion          string     `json:"api_version"`
	Records             [][]string `json:"records"`
	DeviceBuckets       []int      `json:"device_buckets"`
	LargestResponseSize int        `json:"largest_response_size"`
	TraceID             uint64     `json:"trace_id,omitempty"`
}

// checkEncode holds the encoder to the oracle, directly and through
// json.Marshal, and returns the bytes.
func checkEncode(t *testing.T, r *RetrieveResult) []byte {
	t.Helper()
	want, err := json.Marshal(mirrorResult(*r))
	if err != nil {
		t.Fatal(err)
	}
	got := r.AppendJSON([]byte("prefix"))
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("AppendJSON\n got %s\nwant %s", got[len("prefix"):], want)
	}
	for _, tc := range []struct {
		v    any
		want string
	}{{r, string(want)}, {*r, string(want)}, {[]*RetrieveResult{r}, "[" + string(want) + "]"}} {
		if got, err := json.Marshal(tc.v); err != nil || string(got) != tc.want {
			t.Fatalf("json.Marshal(%T)\n got %s (%v)\nwant %s", tc.v, got, err, tc.want)
		}
	}
	return want
}

// checkDecode holds the decoder to the oracle on one input: it may
// accept only what encoding/json accepts, and must then produce the
// same value. It reports whether the decoder accepted.
func checkDecode(t *testing.T, data []byte) bool {
	t.Helper()
	var got RetrieveResult
	gotErr := got.UnmarshalJSON(data)
	var want mirrorResult
	wantErr := json.Unmarshal(data, &want)
	if gotErr != nil {
		return false
	}
	if wantErr != nil {
		t.Fatalf("decoder accepted %q, encoding/json says %v", data, wantErr)
	}
	if !reflect.DeepEqual(mirrorResult(got), want) {
		t.Fatalf("decoding %q\n got %#v\nwant %#v", data, got, want)
	}
	// Through json.Unmarshal, as callers reach it.
	var via RetrieveResult
	if err := json.Unmarshal(data, &via); err != nil || !reflect.DeepEqual(via, got) {
		t.Fatalf("json.Unmarshal of %q: %#v (%v), UnmarshalJSON gave %#v", data, via, err, got)
	}
	return true
}

// buildResult turns fuzz arguments into a result: values split on the
// unit separator, width fields to a record, shape bits choosing the
// nil and empty corners.
func buildResult(values string, width uint8, traceID uint64, n int, shape uint8) *RetrieveResult {
	r := &RetrieveResult{APIVersion: APIVersion, LargestResponseSize: n, TraceID: traceID}
	if shape&1 != 0 {
		r.APIVersion = values
	}
	if shape&2 == 0 {
		r.Records = [][]string{}
		fields := strings.Split(values, "\x1f")
		w := int(width%7) + 1
		for len(fields) > 0 && values != "" {
			n := min(w, len(fields))
			r.Records = append(r.Records, fields[:n:n])
			fields = fields[n:]
		}
		if shape&4 != 0 {
			r.Records = append(r.Records, nil, []string{})
		}
	}
	switch shape >> 3 & 3 {
	case 1:
		r.DeviceBuckets = []int{}
	case 2:
		r.DeviceBuckets = []int{n, -n, int(traceID >> 1)}
	}
	return r
}

var decodeSeeds = []string{
	`{"api_version":"fx/v1","records":[["part-1","supplier-3","w"],["part-2","supplier-3","x"]],"device_buckets":[1,0,2,1],"largest_response_size":2,"trace_id":77}`,
	`{"records":[],"device_buckets":[]}`,
	`{"records":null,"device_buckets":null,"coalesced":null,"batch_size":null,"api_version":null}`,
	` { "records" : [ [ ] , null , [ "" , null ] ] } `,
	`null`,
	`{}`,
	`{"records":[["\ud83d\ude00","\ud800","\u0041\n\/","caf\u00e9"]]}`,
	"{\"records\":[[\"caf\xc3\xa9\",\"\xff\xfe\",\"\xe2\x80\xa8\"]]}",
	`{"RECORDS":[["a"]],"Trace_ID":5,"\u0063oalesced":true}`,
	`{"unknown":{"a":[1,2,{"b":"]}"}],"c":1e9},"records":[["a"]],"more":"x"}`,
	`{"records":[["a"]],"records":[["b"]]}`,
	`{"trace_id":18446744073709551615,"largest_response_size":-9223372036854775808,"batch_size":-0}`,
	`{"trace_id":18446744073709551616}`,
	`{"largest_response_size":1.0}`,
	`{"largest_response_size":01}`,
	`{"records":[["a",1]]}`,
	`{"records":[["a"],]}`,
	`{"records":[["a\q"]]}`,
	`{"records":[["a` + "\x01" + `"]]}`,
	`{"unknown":[}`,
	`{"records":[["a"]]}x`,
	`[]`,
}

// FuzzRetrieveResultCodec is the codec's differential test. raw is
// decoded as it stands; the other arguments build a result that goes
// through the encoder, then the decoder, then every truncation.
func FuzzRetrieveResultCodec(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s), "a\x1fb", uint8(1), uint64(0), 0, uint8(0))
	}
	for shape := 0; shape < 64; shape++ {
		f.Add([]byte(`{}`), "part-1\x1fq\"\\<&>\x1f\b\f\n\r\t\x00\x7f\x1f\xe2\x80\xa8\xc3\xa9\x1f\xff\xc0\x1f\x1f",
			uint8(shape), uint64(shape)<<58, shape-3, uint8(shape))
	}
	f.Fuzz(func(t *testing.T, raw []byte, values string, width uint8, traceID uint64, n int, shape uint8) {
		checkDecode(t, raw)

		r := buildResult(values, width, traceID, n, shape)
		enc := checkEncode(t, r)
		if !checkDecode(t, enc) {
			t.Fatalf("decoder rejected the encoder's output %q", enc)
		}
		// White space and additive keys between the members. A quote
		// inside a JSON string is always escaped, so the key patterns
		// cannot match inside a value.
		spaced := " " + string(enc) + "\n"
		spaced = strings.Replace(spaced, `{"api_version":`, "{\t\"api_version\" :\r", 1)
		spaced = strings.Replace(spaced, `,"records":`, ` , "extra" : [ {"records":"]"} ] , "records" : `, 1)
		spaced = strings.Replace(spaced, `,"device_buckets":`, ` ,"more":-1.5e3,"device_buckets": `, 1)
		if !checkDecode(t, []byte(spaced)) {
			t.Fatalf("decoder rejected %q", spaced)
		}

		// The gate encodes an engine result without the copy into
		// [][]string; same bytes.
		engine := fxdist.RetrieveResult{DeviceBuckets: r.DeviceBuckets, LargestResponseSize: r.LargestResponseSize, TraceID: traceID}
		for _, rec := range r.Records {
			engine.Records = append(engine.Records, rec)
		}
		viaCopy := RetrieveResult{APIVersion: APIVersion, Records: r.Records, DeviceBuckets: r.DeviceBuckets,
			LargestResponseSize: r.LargestResponseSize, TraceID: traceID}
		if viaCopy.Records == nil {
			viaCopy.Records = [][]string{}
		}
		want, err := json.Marshal(mirrorResult(viaCopy))
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendRetrieveResult(nil, engine); !bytes.Equal(got, want) {
			t.Fatalf("AppendRetrieveResult\n got %s\nwant %s", got, want)
		}

		// No proper prefix of an object is JSON: each must be an error,
		// none a panic.
		step := 1 + len(enc)/256
		for cut := 0; cut < len(enc); cut += step {
			var got RetrieveResult
			if err := got.UnmarshalJSON(enc[:cut]); err == nil {
				t.Fatalf("decoder accepted the truncation %q", enc[:cut])
			}
		}
	})
}

// TestDecodeSeeds names what the decoder must refuse among the fuzz
// seeds, so that a decoder that refuses everything cannot pass.
func TestDecodeSeeds(t *testing.T) {
	refused := map[string]bool{
		`{"records":[["a"]],"records":[["b"]]}`: true, // repeated key: stricter than encoding/json, on purpose
		`{"trace_id":18446744073709551616}`:     true,
		`{"largest_response_size":1.0}`:         true,
		`{"largest_response_size":01}`:          true,
		`{"records":[["a",1]]}`:                 true,
		`{"records":[["a"],]}`:                  true,
		`{"records":[["a\q"]]}`:                 true,
		`{"records":[["a` + "\x01" + `"]]}`:     true,
		`{"unknown":[}`:                         true,
		`{"records":[["a"]]}x`:                  true,
		`[]`:                                    true,
	}
	for _, s := range decodeSeeds {
		if got := checkDecode(t, []byte(s)); got == refused[s] {
			t.Errorf("accepted = %v for %q", got, s)
		}
	}
}

// bigAnswer is a scan-sized answer: n records of six fields.
func bigAnswer(n int) *RetrieveResult {
	r := &RetrieveResult{APIVersion: APIVersion, DeviceBuckets: []int{32, 32, 32, 32, 32, 32, 32, 32}, LargestResponseSize: 32, TraceID: 1 << 40}
	for i := 0; i < n; i++ {
		s := strings.Repeat("v", i%7) + "-" + string(rune('a'+i%26))
		r.Records = append(r.Records, []string{"part" + s, "supplier" + s, "warehouse" + s, "bin" + s, "lot" + s, "grade" + s})
	}
	return r
}

// TestDecodeAllocations guards the codec's reason to exist: the number
// of allocations does not grow with the answer. Reflection paid about
// ten per record.
func TestDecodeAllocations(t *testing.T) {
	var res RetrieveResult
	decode := func(records int, unmarshal func(data []byte) error) float64 {
		data := bigAnswer(records).AppendJSON(nil)
		allocs := testing.AllocsPerRun(20, func() {
			res = RetrieveResult{}
			if err := unmarshal(data); err != nil {
				t.Fatal(err)
			}
		})
		if len(res.Records) != records || len(res.Records[records-1]) != 6 {
			t.Fatalf("decoded %d records, want %d", len(res.Records), records)
		}
		return allocs
	}
	// The codec itself: record headers, fields, value blob, device
	// buckets.
	if allocs := decode(1000, res.UnmarshalJSON); allocs > 8 {
		t.Errorf("decoding 1000 records of 6 fields: %.0f allocations, want at most 8", allocs)
	}
	// As callers reach it, json.Unmarshal adds its own few; the count
	// must still not depend on the answer.
	viaJSON := func(data []byte) error { return json.Unmarshal(data, &res) }
	if few, many := decode(10, viaJSON), decode(1000, viaJSON); few != many {
		t.Errorf("10 records cost %.0f allocations, 1000 cost %.0f: want the same", few, many)
	}
}

func BenchmarkRetrieveResultDecode(b *testing.B) {
	data := bigAnswer(800).AppendJSON(nil)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var res RetrieveResult
		if err := json.Unmarshal(data, &res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRetrieveResultEncode(b *testing.B) {
	r := bigAnswer(800)
	buf := r.AppendJSON(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = r.AppendJSON(buf[:0])
	}
}
