package client

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"fxdist"
)

// TestErrorCodeWireRoundTrip drives every taxonomy code through the
// exact JSON that crosses the fxgate wire — FromError → marshal →
// unmarshal → Err() — and asserts the taxonomy survives byte-for-byte,
// including the device/trace/coverage/retry-after payload. The numeric
// JSON-RPC codes are asserted against literals: they are part of the
// public contract, and this table is what fails if someone renumbers.
func TestErrorCodeWireRoundTrip(t *testing.T) {
	cases := []struct {
		code fxdist.ErrorCode
		wire int
	}{
		{fxdist.ErrCodeInvalidQuery, -32602},
		{fxdist.ErrCodeUnknownMethod, -32601},
		{fxdist.ErrCodeInternal, -32603},
		{fxdist.ErrCodeUnauthorized, -32001},
		{fxdist.ErrCodeRateLimited, -32002},
		{fxdist.ErrCodeOverloaded, -32003},
		{fxdist.ErrCodeTimeout, -32004},
		{fxdist.ErrCodeCanceled, -32005},
		{fxdist.ErrCodeDeviceFailure, -32006},
		{fxdist.ErrCodePartialResult, -32007},
		{fxdist.ErrCodeBreakerOpen, -32008},
		{fxdist.ErrCodeFaultInjected, -32009},
	}
	for _, tc := range cases {
		t.Run(string(tc.code), func(t *testing.T) {
			in := &fxdist.Error{
				Code:       tc.code,
				Message:    "message for " + string(tc.code),
				Device:     3,
				TraceID:    0xfeed,
				Coverage:   0.75,
				RetryAfter: 1500 * time.Millisecond,
			}
			if got := WireCode(tc.code); got != tc.wire {
				t.Fatalf("WireCode(%s) = %d, want %d", tc.code, got, tc.wire)
			}
			obj := FromError(in)
			if obj.Code != tc.wire {
				t.Fatalf("FromError code = %d, want %d", obj.Code, tc.wire)
			}
			raw, err := json.Marshal(Response{JSONRPC: "2.0", Error: obj})
			if err != nil {
				t.Fatal(err)
			}
			var res Response
			if err := json.Unmarshal(raw, &res); err != nil {
				t.Fatal(err)
			}
			out := res.Error.Err()
			if out.Code != tc.code {
				t.Fatalf("round-tripped code = %s, want %s", out.Code, tc.code)
			}
			if out.Message != in.Message {
				t.Fatalf("message = %q, want %q", out.Message, in.Message)
			}
			if out.Device != 3 || out.TraceID != 0xfeed || out.Coverage != 0.75 {
				t.Fatalf("payload drifted: %+v", out)
			}
			if out.RetryAfter != 1500*time.Millisecond {
				t.Fatalf("retry-after = %v, want 1.5s", out.RetryAfter)
			}
			// The taxonomy type must keep working with errors.As through
			// wrapping, exactly like in-process errors.
			wrapped := &fxdist.Error{Code: fxdist.ErrCodeInternal, Message: "outer", Device: -1, Err: out}
			var target *fxdist.Error
			if !errors.As(wrapped, &target) {
				t.Fatal("errors.As failed on wrapped *fxdist.Error")
			}
		})
	}
}

// TestErrorObjectNumericFallback covers a foreign server that sends no
// taxonomy data: the numeric code alone must still classify.
func TestErrorObjectNumericFallback(t *testing.T) {
	cases := []struct {
		wire int
		want fxdist.ErrorCode
	}{
		{-32601, fxdist.ErrCodeUnknownMethod},
		{-32602, fxdist.ErrCodeInvalidQuery},
		{-32600, fxdist.ErrCodeInvalidQuery},
		{-32700, fxdist.ErrCodeInvalidQuery},
		{-32603, fxdist.ErrCodeInternal},
		{-31999, fxdist.ErrCodeInternal}, // unknown numeric space
	}
	for _, tc := range cases {
		e := (&ErrorObject{Code: tc.wire, Message: "m"}).Err()
		if e.Code != tc.want {
			t.Fatalf("numeric %d classified as %s, want %s", tc.wire, e.Code, tc.want)
		}
		if e.Device != -1 {
			t.Fatalf("device should default to -1, got %d", e.Device)
		}
	}
}

// TestDeviceZeroSurvivesWire pins the regression where device 0 (a
// perfectly valid device id) is dropped by omitempty semantics.
func TestDeviceZeroSurvivesWire(t *testing.T) {
	in := &fxdist.Error{Code: fxdist.ErrCodeDeviceFailure, Message: "dev 0 down", Device: 0}
	raw, err := json.Marshal(FromError(in))
	if err != nil {
		t.Fatal(err)
	}
	var obj ErrorObject
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatal(err)
	}
	if out := obj.Err(); out.Device != 0 {
		t.Fatalf("device 0 became %d across the wire", out.Device)
	}
}

// TestRetrieveResultGoldenShapes pins the nil/empty shapes and the key
// order of the fx/v1 result as literal JSON: the hand-written codec has
// to keep every one of them, and a non-Go client parses against them.
func TestRetrieveResultGoldenShapes(t *testing.T) {
	cases := []struct {
		name string
		in   RetrieveResult
		want string
	}{
		{"zero value", RetrieveResult{},
			`{"api_version":"","records":null,"device_buckets":null,"largest_response_size":0}`},
		{"no matches", RetrieveResult{APIVersion: APIVersion, Records: [][]string{}, DeviceBuckets: []int{}},
			`{"api_version":"fx/v1","records":[],"device_buckets":[],"largest_response_size":0}`},
		{"empty and nil records", RetrieveResult{APIVersion: APIVersion, Records: [][]string{{}, nil, {""}}, DeviceBuckets: []int{0}},
			`{"api_version":"fx/v1","records":[[],null,[""]],"device_buckets":[0],"largest_response_size":0}`},
		{"every key, in order", RetrieveResult{APIVersion: APIVersion, Records: [][]string{{"a", "b"}, {"c", "d"}},
			DeviceBuckets: []int{2, 0, -1}, LargestResponseSize: 2, TraceID: 1<<64 - 1},
			`{"api_version":"fx/v1","records":[["a","b"],["c","d"]],"device_buckets":[2,0,-1],"largest_response_size":2,` +
				`"trace_id":18446744073709551615}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := string(tc.in.AppendJSON(nil)); got != tc.want {
				t.Errorf("AppendJSON\n got %s\nwant %s", got, tc.want)
			}
			got, err := json.Marshal(&tc.in)
			if err != nil || string(got) != tc.want {
				t.Errorf("json.Marshal\n got %s (%v)\nwant %s", got, err, tc.want)
			}
			var back RetrieveResult
			if err := json.Unmarshal([]byte(tc.want), &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, tc.in) {
				t.Errorf("decoded %#v, want %#v", back, tc.in)
			}
		})
	}

	// String escaping as encoding/json has it: short escapes, a six
	// byte escape for the other control bytes and the HTML three, DEL
	// verbatim, the line and paragraph separators (E2 80 A8/A9)
	// escaped, other UTF-8 verbatim, a byte of invalid UTF-8 as U+FFFD.
	const bs = `\`
	escapes := RetrieveResult{Records: [][]string{{
		`q"b` + bs, "<&>", "\b\f\n\r\t\x00\x1f\x7f", "\xe2\x80\xa8\xe2\x80\xa9\xc3\xa9", "\xff"}}}
	wantEscapes := `{"api_version":"","records":[["q\"b\\",` +
		`"` + bs + `u003c` + bs + `u0026` + bs + `u003e",` +
		`"\b\f\n\r\t` + bs + `u0000` + bs + "u001f\x7f" + `",` +
		`"` + bs + `u2028` + bs + "u2029\xc3\xa9" + `",` +
		`"` + bs + `ufffd"]],"device_buckets":null,"largest_response_size":0}`
	if got := string(escapes.AppendJSON(nil)); got != wantEscapes {
		t.Errorf("AppendJSON\n got %s\nwant %s", got, wantEscapes)
	}

	// The gate's entry point: an engine result with no matches is
	// "records":[] — never null.
	engine := fxdist.RetrieveResult{DeviceBuckets: []int{0, 0}, TraceID: 7}
	if got, want := string(AppendRetrieveResult(nil, engine)),
		`{"api_version":"fx/v1","records":[],"device_buckets":[0,0],"largest_response_size":0,"trace_id":7}`; got != want {
		t.Errorf("AppendRetrieveResult\n got %s\nwant %s", got, want)
	}
	engine.Records = []fxdist.Record{{"a"}, nil}
	if got, want := string(AppendRetrieveResult(nil, engine)),
		`{"api_version":"fx/v1","records":[["a"],null],"device_buckets":[0,0],"largest_response_size":0,"trace_id":7}`; got != want {
		t.Errorf("AppendRetrieveResult\n got %s\nwant %s", got, want)
	}

	// Decoding: additive keys are skipped whatever they hold, white
	// space is free, null leaves a scalar alone, keys match under case
	// folding as they do in encoding/json.
	in := ` { "added" : {"x":[1,"]",{}]} , "records" : [ [ "a" , null ] , null ] ,"later":null,
		"Device_Buckets":[ 1 , null ],"trace_id":null,"largest_response_size" : 5 } `
	got := RetrieveResult{TraceID: 9}
	if err := json.Unmarshal([]byte(in), &got); err != nil {
		t.Fatal(err)
	}
	want := RetrieveResult{Records: [][]string{{"a", ""}, nil}, DeviceBuckets: []int{1, 0}, LargestResponseSize: 5, TraceID: 9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %#v, want %#v", got, want)
	}

	// A gate that still batched across callers marked its answers
	// "coalesced" and "batch_size": a mixed-version fleet decodes them
	// with both keys skipped.
	old := `{"api_version":"fx/v1","records":[["a"]],"device_buckets":[1],"largest_response_size":1,"trace_id":3,"coalesced":true,"batch_size":5}`
	got = RetrieveResult{}
	if err := json.Unmarshal([]byte(old), &got); err != nil {
		t.Fatal(err)
	}
	want = RetrieveResult{APIVersion: APIVersion, Records: [][]string{{"a"}}, DeviceBuckets: []int{1}, LargestResponseSize: 1, TraceID: 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded an older gate's answer to %#v, want %#v", got, want)
	}
}
