package gate

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"fxdist"
	"fxdist/client"
)

// wireFixture is a gate over a small loaded memory cluster; the tests
// call it serially, so every retrieve is a dispatch of one.
func wireFixture(t testing.TB) *Gate {
	t.Helper()
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "part", Cardinality: 50}, {Name: "supplier", Cardinality: 8}, {Name: "note", Cardinality: 4}}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{3, 2, 1}))
	if err != nil {
		t.Fatal(err)
	}
	records, err := fxdist.GenerateRecords(spec, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := file.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	g, err := New(Config{Cluster: cluster, File: file, Allocator: fx,
		Tenants: []TenantConfig{{Name: "solo", APIKey: "k"}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// oldWireResult is the copy the gate made of every engine result
// before it encoded answers itself; the tests below keep it as the
// reference for what goes on the wire.
func oldWireResult(res fxdist.RetrieveResult, batch int) *client.RetrieveResult {
	records := make([][]string, len(res.Records))
	for i, rec := range res.Records {
		records[i] = rec
	}
	out := &client.RetrieveResult{
		APIVersion:          client.APIVersion,
		Records:             records,
		DeviceBuckets:       res.DeviceBuckets,
		LargestResponseSize: res.LargestResponseSize,
		TraceID:             res.TraceID,
	}
	if batch > 1 {
		out.Coalesced = true
		out.BatchSize = batch
	}
	return out
}

// oldResponse builds what the gate handed to json.Marshal for a frame
// before it wrote frames itself.
func oldResponse(t *testing.T, f frame) client.Response {
	t.Helper()
	res := client.Response{JSONRPC: "2.0", ID: f.id, Error: f.err}
	if f.err != nil {
		return res
	}
	result := f.result
	switch r := f.result.(type) {
	case *answer:
		result = oldWireResult(r.res, r.batch)
	case batchAnswer:
		items := make([]client.BatchItem, len(r))
		for i := range r {
			if r[i].err != nil {
				items[i].Error = r[i].err
			} else {
				items[i].Result = oldWireResult(r[i].res, r[i].batch)
			}
		}
		result = &client.BatchResult{APIVersion: client.APIVersion, Items: items}
	}
	raw, err := json.Marshal(result)
	if err != nil {
		t.Fatal(err)
	}
	res.Result = raw
	return res
}

// checkSent asserts a recorded response declares its length and has
// exactly the wanted body.
func checkSent(t *testing.T, rec *httptest.ResponseRecorder, want []byte) {
	t.Helper()
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
		t.Errorf("Content-Length = %q, want %d", got, len(want))
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json; charset=utf-8" {
		t.Errorf("Content-Type = %q", got)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("body\n got %s\nwant %s", rec.Body.Bytes(), want)
	}
}

// TestFramesMatchEncodingJSON runs every kind of frame the gate sends
// — retrieve answers, a batch result with a failed item, the small
// results, errors, every form of id — through the frame writer and
// holds the bytes to json.Marshal of the client.Response of the same
// content, singly and as a batch envelope.
func TestFramesMatchEncodingJSON(t *testing.T) {
	g := wireFixture(t)
	tn := g.tenants.authenticate("k")
	httpReq := httptest.NewRequest(http.MethodPost, "/rpc", nil)
	cases := []struct{ name, id, method, params string }{
		{"retrieve", `7`, client.MethodRetrieve, `{"query":{"supplier":"supplier-3"}}`},
		{"retrieve everything", `"all"`, client.MethodRetrieve, `{"query":{}}`},
		{"retrieve nothing", `"a<b>&c"`, client.MethodRetrieve, `{"query":{"part":"no-such-part"}}`},
		{"batch with a bad item", `[1, {"k": "v"}]`, client.MethodRetrieveBatch,
			`{"queries":[{"supplier":"supplier-1"},{"bogus":"x"},{"part":"part-2","note":"note-1"}]}`},
		{"explain", `null`, client.MethodExplain, `{"query":{"part":"part-1"}}`},
		{"health", `0`, client.MethodHealth, ``},
		{"no id", ``, client.MethodHealth, ``},
		{"unknown method", `-1.5e3`, "fx.nope", ``},
		{"bad params", `12`, client.MethodRetrieve, `{"query":3}`},
		{"unknown field", `13`, client.MethodRetrieve, `{"query":{"bogus":"x"}}`},
		{"not json-rpc", `14`, "", ``},
	}
	var frames []frame
	var old []client.Response
	for _, tc := range cases {
		req := client.Request{JSONRPC: "2.0", ID: json.RawMessage(tc.id), Method: tc.method, Params: json.RawMessage(tc.params)}
		f, status := g.serveOne(httpReq, tn, &req)
		frames = append(frames, f)
		old = append(old, oldResponse(t, f))
		t.Run(tc.name, func(t *testing.T) {
			want, err := json.Marshal(old[len(old)-1])
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			writeFrame(rec, status, f)
			if rec.Code != status {
				t.Errorf("status %d, want %d", rec.Code, status)
			}
			checkSent(t, rec, want)
		})
	}
	if a, ok := frames[1].result.(*answer); !ok || len(a.res.Records) != 300 {
		t.Fatalf("the unconstrained query did not return the file: %#v", frames[1].result)
	}
	if a, ok := frames[2].result.(*answer); !ok || len(a.res.Records) != 0 ||
		!bytes.Contains(appendFrame(nil, &frames[2]), []byte(`"records":[],`)) {
		t.Fatalf("the empty answer is not records:[]: %s", appendFrame(nil, &frames[2]))
	}
	if b, ok := frames[3].result.(batchAnswer); !ok || b[0].err != nil || b[1].err == nil || b[2].err != nil {
		t.Fatalf("batch items: %#v", frames[3].result)
	}

	want, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	writeBatch(rec, frames)
	checkSent(t, rec, want)
}

// TestServeHTTPDeclaresLength posts real requests: whatever the
// outcome — answer, batch envelope, refusal — the reply carries its
// length, and a client that decodes by reflection alone reads it.
func TestServeHTTPDeclaresLength(t *testing.T) {
	g := wireFixture(t)
	retrieve := `{"jsonrpc":"2.0","id":1,"method":"fx.retrieve","params":{"query":{"supplier":"supplier-3"}}}`
	cases := []struct {
		name, key, body string
		status, frames  int
		wantErr         bool
	}{
		{"single frame", "k", retrieve, http.StatusOK, 1, false},
		{"batch envelope", "k", "[" + retrieve + "," + retrieve + "]", http.StatusOK, 2, false},
		{"empty batch envelope", "k", "[]", http.StatusOK, 1, true},
		{"parse error", "k", "{", http.StatusOK, 1, true},
		{"unauthorized", "wrong", retrieve, http.StatusUnauthorized, 1, true},
	}
	// The shapes a client without the codec decodes into.
	type response struct {
		Result *struct {
			Records [][]string `json:"records"`
		} `json:"result"`
		Error *client.ErrorObject `json:"error"`
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/rpc", strings.NewReader(tc.body))
			req.Header.Set("Authorization", "Bearer "+tc.key)
			rec := httptest.NewRecorder()
			g.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Errorf("status %d, want %d", rec.Code, tc.status)
			}
			if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
				t.Errorf("Content-Length = %q for a body of %d bytes", got, rec.Body.Len())
			}
			body := rec.Body.Bytes()
			if body[0] != '[' {
				body = []byte("[" + rec.Body.String() + "]")
			}
			var got []response
			if err := json.Unmarshal(body, &got); err != nil || len(got) != tc.frames {
				t.Fatalf("%d frames (%v) in %s", len(got), err, body)
			}
			for _, r := range got {
				switch {
				case tc.wantErr != (r.Error != nil):
					t.Errorf("error = %+v", r.Error)
				case !tc.wantErr && len(r.Result.Records) == 0:
					t.Errorf("no records in %s", body)
				}
			}
		})
	}
}

// TestOversizeRequestIs413 pins the request-size limit: a body one
// byte over it used to be cut at the limit and then reported as a JSON
// parse error.
func TestOversizeRequestIs413(t *testing.T) {
	g := wireFixture(t)
	body := bytes.Repeat([]byte(" "), maxBodyBytes+1)
	copy(body, `{"jsonrpc":"2.0","id":1,"method":"fx.health"}`)
	declared := true
	post := func(body []byte) (*httptest.ResponseRecorder, client.Response) {
		req := httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body))
		if !declared {
			req.ContentLength = -1 // as a chunked request arrives
		}
		req.Header.Set("Authorization", "Bearer k")
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, req)
		var res client.Response
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("%v in %s", err, rec.Body.Bytes())
		}
		return rec, res
	}
	for _, declared = range []bool{true, false} {
		if rec, res := post(body[:maxBodyBytes]); rec.Code != http.StatusOK || res.Error != nil {
			t.Errorf("declared %v: a body of exactly the limit: status %d, error %+v", declared, rec.Code, res.Error)
		}
		rec, res := post(body)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("declared %v: status %d, want 413", declared, rec.Code)
		}
		if res.Error == nil || res.Error.Code != -32600 || !strings.Contains(res.Error.Message, "exceeds 8 MiB") {
			t.Errorf("declared %v: error = %+v, want invalid request (-32600) naming the limit", declared, res.Error)
		}
	}
}

// scanAnswer is a scan-sized engine result: n records of six fields.
func scanAnswer(n int) *answer {
	a := &answer{batch: 1, res: fxdist.RetrieveResult{DeviceBuckets: make([]int, 8), LargestResponseSize: 32, TraceID: 1 << 40}}
	for i := 0; i < n; i++ {
		s := "-" + strconv.Itoa(i)
		a.res.Records = append(a.res.Records, fxdist.Record{"part" + s, "supplier" + s, "warehouse" + s, "bin" + s, "lot" + s, "grade" + s})
	}
	return a
}

// TestFrameEncodeAllocations guards the encode side of the codec: an
// answer goes from the engine's result to response bytes without one
// allocation, given a slab of the hinted size. The path it replaced
// copied the record headers and marshalled the result twice.
func TestFrameEncodeAllocations(t *testing.T) {
	f := frame{id: json.RawMessage("12345"), result: scanAnswer(1000)}
	buf := make([]byte, 0, f.sizeHint())
	allocs := testing.AllocsPerRun(20, func() {
		buf = appendFrame(buf[:0], &f)
	})
	if allocs != 0 {
		t.Errorf("encoding a 1000-record frame: %.0f allocations, want 0", allocs)
	}
	if len(buf) > f.sizeHint() || len(buf) < f.sizeHint()-f.sizeHint()/8 {
		t.Errorf("sizeHint %d for an encoding of %d bytes", f.sizeHint(), len(buf))
	}
}

func BenchmarkFrameEncode(b *testing.B) {
	f := frame{id: json.RawMessage("12345"), result: scanAnswer(800)}
	buf := appendFrame(nil, &f)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendFrame(buf[:0], &f)
	}
}
