package client

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// The mirrors have the request types' fields and tags and no methods:
// encoding/json handles them by reflection, as it handled the types
// themselves before the request codec. Every request codec test compares
// against them.
type (
	mirrorRequest struct {
		JSONRPC string          `json:"jsonrpc"`
		ID      json.RawMessage `json:"id,omitempty"`
		Method  string          `json:"method"`
		Params  json.RawMessage `json:"params,omitempty"`
	}
	mirrorRetrieveParams struct {
		Query map[string]string `json:"query"`
	}
	mirrorBatchParams struct {
		Queries []map[string]string `json:"queries"`
	}
)

// asMap is the map a decoded query stands for: nil stays nil, a later
// pair overrides an earlier one.
func asMap(q [][2]string) map[string]string {
	if q == nil {
		return nil
	}
	m := make(map[string]string, len(q))
	for _, p := range q {
		m[p[0]] = p[1]
	}
	return m
}

// checkParams holds Params.Decode to encoding/json on one params text,
// as fx.retrieve params and then, into the same Params, as
// fx.retrieveBatch params: the same verdict, and the same value when
// both accept.
func checkParams(t *testing.T, params []byte) {
	t.Helper()
	var p Params
	err := p.Decode(MethodRetrieve, params)
	var wantQ mirrorRetrieveParams
	if wantErr := json.Unmarshal(params, &wantQ); (err == nil) != (wantErr == nil) {
		t.Fatalf("query params %q: %v, encoding/json says %v", params, err, wantErr)
	}
	if err == nil && (!reflect.DeepEqual(asMap(p.Query), wantQ.Query) || p.Queries != nil) {
		t.Fatalf("query params %q gave %q, encoding/json gives %q", params, p, wantQ.Query)
	}

	err = p.Decode(MethodRetrieveBatch, params)
	var wantQs mirrorBatchParams
	if wantErr := json.Unmarshal(params, &wantQs); (err == nil) != (wantErr == nil) {
		t.Fatalf("batch params %q: %v, encoding/json says %v", params, err, wantErr)
	}
	if err != nil {
		return
	}
	var got []map[string]string
	if p.Queries != nil {
		got = make([]map[string]string, len(p.Queries))
		for i, q := range p.Queries {
			got[i] = asMap(q)
		}
	}
	if !reflect.DeepEqual(got, wantQs.Queries) || p.Query != nil {
		t.Fatalf("batch params %q gave %q, encoding/json gives %q", params, p, wantQs.Queries)
	}
}

// checkRequest holds the frame decoder to encoding/json on one body, as
// the gate reads it: a batch envelope when it opens with '[', a single
// frame otherwise; then each accepted frame's params. It reports whether
// the body was accepted.
func checkRequest(t *testing.T, data []byte) bool {
	t.Helper()
	got, batch, err := DecodeRequests(data, nil)
	var want []mirrorRequest
	var wantErr error
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if wantBatch := len(trimmed) > 0 && trimmed[0] == '['; batch != wantBatch {
		t.Fatalf("decoding %q: batch = %v", data, batch)
	} else if batch {
		wantErr = json.Unmarshal(data, &want)
	} else {
		want = make([]mirrorRequest, 1)
		wantErr = json.Unmarshal(data, &want[0])
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decoding %q: %v, encoding/json says %v", data, err, wantErr)
	}
	if err != nil {
		return false
	}
	if len(got) != len(want) {
		t.Fatalf("decoding %q: %d frames, encoding/json has %d", data, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(mirrorRequest(got[i]), want[i]) {
			t.Fatalf("decoding %q: frame %d is\n%#v\nencoding/json gives\n%#v", data, i, got[i], want[i])
		}
		checkParams(t, got[i].Params)
	}
	return true
}

// buildQuery turns fuzz arguments into a query: names and values
// alternate in keys split on the unit separator; shape picks the nil
// and empty corners.
func buildQuery(keys string, shape uint8) map[string]string {
	if shape&1 != 0 {
		return nil
	}
	q := map[string]string{}
	if shape&2 != 0 {
		return q
	}
	parts := strings.Split(keys, "\x1f")
	for i := 0; i < len(parts); i += 2 {
		q[parts[i]] = parts[min(i+1, len(parts)-1)]
	}
	return q
}

// buildParams picks the params of a call from the fuzz arguments.
func buildParams(keys string, shape uint8) (method string, params, mirror any) {
	switch shape >> 2 & 3 {
	case 0:
		q := buildQuery(keys, shape)
		return MethodRetrieve, RetrieveParams{Query: q}, mirrorRetrieveParams{Query: q}
	case 1:
		return MethodHealth, nil, nil
	}
	var qs []map[string]string
	if shape&16 == 0 {
		qs = []map[string]string{}
		for i, part := range strings.Split(keys, "\x1e") {
			qs = append(qs, buildQuery(part, shape>>5+uint8(i)))
		}
	}
	return "fx." + keys, BatchParams{Queries: qs}, mirrorBatchParams{Queries: qs}
}

var requestSeeds = []string{
	`{"jsonrpc":"2.0","id":1,"method":"fx.retrieve","params":{"query":{"part":"part-1","supplier":"supplier-3"}}}`,
	` { "params" : { "query" : null } , "method" : "fx.explain" , "id" : [ 1 , {"a":"}"} ] , "jsonrpc" : "2.0" } `,
	`{"JSONRPC":"2.0","Id":"x","METHOD":"fx.health","ſarams":{},"extra":[true,false,null,-0.5e-3]}`,
	`{"jsonrpc":"2.0","method":"fx.retrieve","params":{"query":{"part":"😀𐀀x\udc00\ud800"}}}`,
	"{\"method\":\"fx.retrieve\",\"params\":{\"query\":{\"caf\xc3\xa9\":\"\xff\xfe\",\"<\":\"\xe2\x80\xa8\"}}}",
	`{"method":"fx.retrieve","method":null,"id":1,"id":null,"params":{"query":{"a":"1"}},"params":{"query":{"a":"2","a":"3","b":null}}}`,
	`{"params":{"query":{"a":"1"},"query":{"b":"2"},"Query":{"a":"3"}}}`,
	`{"params":{"query":{"a":"1"},"query":null,"query":{"b":"2"}}}`,
	`{"params":{"queries":[{"a":"1"},{"b":"2"},{"c":"3"}],"queries":[{"d":"4"}],"queries":[{},{},null,{}]}}`,
	`{"params":{"queries":[{"a":"1"}],"queries":[],"queries":[{}]}}`,
	`{"params":{"queries":[{"a":"1"}],"queries":null,"queries":[{"b":"2"},null]}}`,
	`{"params":null}`,
	`{"params":{"query":{},"queries":[]}}`,
	`null`,
	`[{"jsonrpc":"2.0","id":1,"method":"fx.health"},null,{"id":2}]`,
	`[]`,
	"\t[ ]\n",
	`{"params":{"query":{"a":1}}}`,
	`{"params":{"query":3}}`,
	`{"params":{"queries":[5]}}`,
	`{"params":[]}`,
	`{"jsonrpc":2}`,
	`{"method":["fx.retrieve"]}`,
	`[1]`,
	`[{"jsonrpc":"2.0"},{"jsonrpc":true}]`,
	`"fx.retrieve"`,
	``,
	`{"id":1,}`,
	`{"id":01}`,
	`{"id":-}`,
	`{"id":1.}`,
	`{"id":1e}`,
	`{"id":.5}`,
	`{"id":[1,]}`,
	`{"id":tru}`,
	`{"id":"\q"}`,
	`{"id":"\u12"}`,
	`{"id":"a` + "\x01" + `"}`,
	`{"id":1}}`,
	`{"id":1} x`,
	`[{"id":1},]`,
}

// deepSeeds sit at encoding/json's nesting limit: 10 000 arrays and
// objects open at once, and one more. They stay out of the fuzz corpus,
// where minimising their mutations would take the fuzzing time.
var deepSeeds = []string{
	`{"params":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`[{"params":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}]`,
	`{"params":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"params":{"query":` + strings.Repeat(`{"":`, 9996) + `{}` + strings.Repeat("}", 9996) + `}}`,
}

// FuzzRequestCodec is the request codec's differential test. raw is
// decoded as a request body and as params, as it stands; the other
// arguments build a call that goes through the encoder, then the
// decoder, then every truncation.
func FuzzRequestCodec(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s), "part\x1fpart-1", uint64(1), uint8(0))
	}
	for shape := 0; shape < 128; shape++ {
		f.Add([]byte(`{}`), "q\"b\\\x1f\b\f\n\r\t\x00\x7f\x1f<&>\x1fa<b>&c\x1e\xe2\x80\xa8\x1f\xff\xc0\x1e/\x1f\xc3\xa9",
			uint64(shape)<<57, uint8(shape))
	}
	f.Fuzz(func(t *testing.T, raw []byte, keys string, id uint64, shape uint8) {
		checkRequest(t, raw)
		checkParams(t, raw)

		method, params, mirror := buildParams(keys, shape)
		var wantParams json.RawMessage
		if mirror != nil {
			var err error
			if wantParams, err = json.Marshal(mirror); err != nil {
				t.Fatal(err)
			}
		}
		want, err := json.Marshal(mirrorRequest{JSONRPC: "2.0", ID: json.RawMessage(strconv.FormatUint(id, 10)), Method: method, Params: wantParams})
		if err != nil {
			t.Fatal(err)
		}
		enc := appendRequest([]byte("prefix"), id, method, params)
		if !bytes.Equal(enc[len("prefix"):], want) {
			t.Fatalf("appendRequest\n got %s\nwant %s", enc[len("prefix"):], want)
		}
		enc = enc[len("prefix"):]
		if !checkRequest(t, enc) {
			t.Fatalf("decoder rejected the encoder's output %q", enc)
		}
		if reqs, _, _ := DecodeRequests(enc, nil); !bytes.Equal(reqs[0].Params, wantParams) {
			t.Fatalf("params %q, encoded %q", reqs[0].Params, wantParams)
		}

		// No proper prefix of an object is JSON: each must be an error,
		// none a panic.
		step := 1 + len(enc)/256
		for cut := 0; cut < len(enc); cut += step {
			if _, _, err := DecodeRequests(enc[:cut], nil); err == nil {
				t.Fatalf("decoder accepted the truncation %q", enc[:cut])
			}
			if _, _, err := DecodeRequests(append([]byte{'['}, enc[:cut]...), nil); err == nil {
				t.Fatalf("decoder accepted the truncated batch [%q", enc[:cut])
			}
		}
		for cut := 0; cut < len(wantParams); cut += step {
			err1 := new(Params).Decode(MethodRetrieve, wantParams[:cut])
			err2 := new(Params).Decode(MethodRetrieveBatch, wantParams[:cut])
			if err1 == nil || err2 == nil {
				t.Fatalf("params decoders accepted the truncation %q: %v, %v", wantParams[:cut], err1, err2)
			}
		}
	})
}

// TestRequestSeeds names what the decoders must refuse among the fuzz
// seeds, so that decoders that refuse everything cannot pass.
func TestRequestSeeds(t *testing.T) {
	refused := map[string]bool{
		`{"jsonrpc":2}`:                        true,
		`{"method":["fx.retrieve"]}`:           true,
		`[1]`:                                  true,
		`[{"jsonrpc":"2.0"},{"jsonrpc":true}]`: true,
		`"fx.retrieve"`:                        true,
		``:                                     true,
		`{"id":1,}`:                            true,
		`{"id":01}`:                            true,
		`{"id":-}`:                             true,
		`{"id":1.}`:                            true,
		`{"id":1e}`:                            true,
		`{"id":.5}`:                            true,
		`{"id":[1,]}`:                          true,
		`{"id":tru}`:                           true,
		`{"id":"\q"}`:                          true,
		`{"id":"\u12"}`:                        true,
		`{"id":"a` + "\x01" + `"}`:             true,
		`{"id":1}}`:                            true,
		`{"id":1} x`:                           true,
		`[{"id":1},]`:                          true,
		deepSeeds[2]:                           true, // 10 001 deep
	}
	// Frames that decode, but whose params do not: as a query, as
	// queries.
	malformed := map[string][2]bool{
		`{"params":{"query":{"a":1}}}`: {true, false},
		`{"params":{"query":3}}`:       {true, false},
		`{"params":{"queries":[5]}}`:   {false, true},
		`{"params":[]}`:                {true, true},
	}
	for _, s := range append(requestSeeds, deepSeeds...) {
		if got := checkRequest(t, []byte(s)); got == refused[s] {
			t.Errorf("accepted = %v for %.80q", got, s)
		}
		want, ok := malformed[s]
		if !ok {
			continue
		}
		reqs, _, _ := DecodeRequests([]byte(s), nil)
		err := new(Params).Decode(MethodRetrieve, reqs[0].Params)
		errs := new(Params).Decode(MethodRetrieveBatch, reqs[0].Params)
		if want[0] != (err != nil) || want[1] != (errs != nil) {
			t.Errorf("params of %.80q: %v, %v", s, err, errs)
		}
	}
}

// The calls behind testdata/request-frames.golden, whose bytes were
// written by the client when it encoded its frames with encoding/json.
var (
	goldenQueries = []map[string]string{
		{"supplier": "supplier-3", "part": "part-1"},
		{"q\"b\\": "\b\f\n\r\t\x00\x1f\x7f", "<&>": "a<b>&c", "\xe2\x80\xa8": "\xe2\x80\xa9\xc3\xa9", "bad": "\xff\xfe", "\xc0": "x", "/": "é\U0001F600"},
		nil,
		{},
	}
	goldenBatches = [][]map[string]string{
		{{"b": "1", "a": "2"}, nil, {}, {"<": ">"}},
		nil,
		{},
	}
)

// TestRequestFramesGolden sends a fixed set of calls through a client
// and holds the bodies the server receives to the bytes the client sent
// before it had its own encoder.
func TestRequestFramesGolden(t *testing.T) {
	var mu sync.Mutex
	var frames []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body bytes.Buffer
		body.ReadFrom(r.Body)
		mu.Lock()
		frames = append(append(frames, body.Bytes()...), '\n')
		mu.Unlock()
		w.Write([]byte(`{"jsonrpc":"2.0","id":1,"result":null}`))
	}))
	defer srv.Close()
	c := New(srv.URL, WithAPIKey("k"))
	defer c.Close()
	ctx := context.Background()
	for _, q := range goldenQueries {
		if _, err := c.Retrieve(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Explain(ctx, map[string]string{"z": "1", "a": "2", "m": ""}); err != nil {
		t.Fatal(err)
	}
	for _, qs := range goldenBatches {
		if _, err := c.RetrieveBatch(ctx, qs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/request-frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frames, want) {
		t.Errorf("request frames\n got %s\nwant %s", frames, want)
	}
}

// TestRequestHeaders pins the headers a call carries, the shared values
// included, and that adding to a request's Content-Type cannot write
// into the slice every request shares.
func TestRequestHeaders(t *testing.T) {
	got := make(chan http.Header, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got <- r.Header
		w.Write([]byte(`{"jsonrpc":"2.0","id":1,"result":null}`))
	}))
	defer srv.Close()
	for _, tc := range []struct {
		opts []Option
		auth []string
	}{{[]Option{WithAPIKey("key-1")}, []string{"Bearer key-1"}}, {nil, nil}, {[]Option{WithAPIKey("x"), WithAPIKey("")}, nil}} {
		c := New(srv.URL, tc.opts...)
		if _, err := c.Health(context.Background()); err != nil {
			t.Fatal(err)
		}
		c.Close()
		want := http.Header{
			"Accept-Encoding": {"gzip"},
			"Content-Length":  {"45"},
			"Content-Type":    {"application/json"},
			"User-Agent":      {"Go-http-client/1.1"},
		}
		if tc.auth != nil {
			want["Authorization"] = tc.auth
		}
		if h := <-got; !reflect.DeepEqual(h, want) {
			t.Errorf("request headers\n got %v\nwant %v", h, want)
		}
	}
	if len(jsonContentType) != cap(jsonContentType) {
		t.Errorf("the shared Content-Type has len %d, cap %d", len(jsonContentType), cap(jsonContentType))
	}
}

// TestOneClientReusesItsConnections pins the Client's promise of kept-
// alive connections under concurrency: 16 goroutines × 200 calls through
// one Client. The server holds the first 16 calls until all have
// arrived, so they open 16 connections; every later call must find one
// of them idle. On http.DefaultTransport, which keeps two idle
// connections per host, the same traffic opened about 350.
func TestOneClientReusesItsConnections(t *testing.T) {
	const callers = 16
	var opened, served atomic.Int64
	var firstCalls sync.WaitGroup
	firstCalls.Add(callers)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) <= callers {
			firstCalls.Done()
			firstCalls.Wait()
		}
		w.Write([]byte(`{"jsonrpc":"2.0","id":1,"result":{"api_version":"fx/v1","status":"ok"}}`))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c := New(srv.URL)
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := c.Health(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := opened.Load(); n != callers {
		t.Errorf("%d callers opened %d connections, want %d", callers, n, callers)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestWrappedDefaultTransportIsKept pins that a Client built after a
// program wrapped http.DefaultTransport (tracing, a proxy, a fake) sends
// through the wrapper instead of a transport of its own.
func TestWrappedDefaultTransportIsKept(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"jsonrpc":"2.0","id":1,"result":{"api_version":"fx/v1","status":"ok"}}`))
	}))
	defer srv.Close()
	def := http.DefaultTransport
	defer func() { http.DefaultTransport = def }()
	var calls atomic.Int64
	http.DefaultTransport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
		calls.Add(1)
		return def.RoundTrip(r)
	})
	c := New(srv.URL)
	defer c.Close()
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("the wrapped DefaultTransport saw %d calls, want 1", n)
	}
}

// sixFields is a point query on a six-field schema.
var sixFields = map[string]string{"part": "part-17", "supplier": "supplier-3", "warehouse": "warehouse-2",
	"bin": "bin-40", "lot": "lot-8", "grade": "grade-1"}

// TestRequestCodecAllocations guards the request path's reason to
// exist. The client encodes a frame into its buffer without an
// allocation; what it sends is one copy of it. A six-field fx.retrieve
// — frame, then params — decodes in two: the pairs and the one blob
// holding their names and values; into a Params that decoded before, as
// the gate's per-request memory does, in none.
func TestRequestCodecAllocations(t *testing.T) {
	buf := appendRequest(nil, 1<<40, MethodRetrieve, RetrieveParams{Query: sixFields})
	if allocs := testing.AllocsPerRun(50, func() {
		buf = appendRequest(buf[:0], 1<<40, MethodRetrieve, RetrieveParams{Query: sixFields})
	}); allocs != 0 {
		t.Errorf("encoding a six-field query: %.0f allocations, want 0", allocs)
	}
	var p Params
	allocs := testing.AllocsPerRun(50, func() {
		var one [1]Request
		reqs, batch, err := DecodeRequests(buf, one[:0])
		if err != nil || batch || reqs[0].Method != MethodRetrieve {
			t.Fatal("not one fx.retrieve frame:", err)
		}
		if p = (Params{}); p.Decode(reqs[0].Method, reqs[0].Params) != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("decoding a six-field fx.retrieve: %.0f allocations, want at most 2", allocs)
	}
	if !reflect.DeepEqual(asMap(p.Query), sixFields) {
		t.Errorf("decoded %q", p.Query)
	}
	var reused Params
	if allocs := testing.AllocsPerRun(50, func() {
		var one [1]Request
		reqs, _, err := DecodeRequests(buf, one[:0])
		if err == nil {
			err = reused.Decode(reqs[0].Method, reqs[0].Params)
		}
		if err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("decoding a six-field fx.retrieve into a Params that decoded before: %.0f allocations, want 0", allocs)
	}
	if !reflect.DeepEqual(asMap(reused.Query), sixFields) {
		t.Errorf("decoded again %q", reused.Query)
	}
}

// TestParamsMemoryFollowsTheInput holds the params decode to memory
// that grows with what it decodes. Params are read before admission, so
// a body whose colons and commas sit inside a string, or inside a member
// the decode skips, must not size anything by their count.
func TestParamsMemoryFollowsTheInput(t *testing.T) {
	filler := strings.Repeat(":,", 1<<19)
	for _, params := range []string{
		`{"query":{"a":"` + filler + `"}}`,
		`{"query":{"a":"b"},"skipped":"` + filler + `"}`,
		`{"queries":[{"a":"` + filler + `"}]}`,
		`{"queries":[{"a":"b"}],"skipped":["` + filler + `"]}`,
	} {
		data := []byte(params)
		for _, method := range []string{MethodRetrieve, MethodRetrieveBatch} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := new(Params).Decode(method, data)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s params %.40q: %v", method, params, err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 3*uint64(len(data)) {
				t.Errorf("%s params of %d bytes (%.40q...): %d bytes allocated, want at most 3 per byte",
					method, len(data), params, n)
			}
		}
	}
}

func BenchmarkRequestDecode(b *testing.B) {
	buf := appendRequest(nil, 1<<40, MethodRetrieve, RetrieveParams{Query: sixFields})
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var one [1]Request
		reqs, _, err := DecodeRequests(buf, one[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := new(Params).Decode(reqs[0].Method, reqs[0].Params); err != nil {
			b.Fatal(err)
		}
	}
}
