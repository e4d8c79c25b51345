package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "Test counter.", L("device", "0")).Add(5)
	tr := NewTracer(8)
	sp := begin(tr, "q", 0, 0)
	sp.SetRequestID(42)
	sp.End()

	extra := Endpoint{Path: "/debug/extra", Desc: "one extra view", Handler: DebugEndpoint(
		func() (any, error) { return map[string]int{"n": 1}, nil }, nil)}
	srv := httptest.NewServer(HandlerFor(MetricsEndpoint(func() *Registry { return r }), TracesEndpoint(func() *Tracer { return tr }), extra))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, `h_total{device="0"} 5`) {
		t.Errorf("/metrics = %d:\n%s", code, body)
	}
	if !strings.Contains(body, "# TYPE h_total counter") {
		t.Error("/metrics missing TYPE line")
	}

	code, body = get("/debug/traces?n=5")
	if code != 200 {
		t.Fatalf("/debug/traces = %d", code)
	}
	var spans []SpanSnapshot
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Errorf("/debug/traces not JSON: %v", err)
	}
	if len(spans) != 1 || spans[0].RequestID != 42 {
		t.Errorf("/debug/traces = %+v", spans)
	}
	child := begin(tr, "child", sp.Trace(), sp.SpanID())
	child.End()
	code, body = get("/debug/traces?n=5&tree=1&format=text")
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if code != 200 || len(lines) != 2 || !strings.HasPrefix(lines[0], "q trace=") ||
		!strings.Contains(lines[0], " request=42 ") || !strings.HasPrefix(lines[1], "  child trace=") {
		t.Errorf("/debug/traces?tree=1&format=text = %d, want a line per span, the child indented:\n%s", code, body)
	}

	if code, _ = get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, _ = get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}

	// The index lists exactly what the handler mounts: the extra endpoint
	// it was given, nothing it was not.
	if code, body = get("/debug/extra"); code != 200 || !strings.Contains(body, `"n": 1`) {
		t.Errorf("/debug/extra = %d: %s", code, body)
	}
	if code, _ = get("/debug/optimality"); code != http.StatusNotFound {
		t.Errorf("/debug/optimality on a handler not given it = %d, want 404", code)
	}
	_, body = get("/debug/?format=json")
	var index []Endpoint
	if err := json.Unmarshal([]byte(body), &index); err != nil {
		t.Fatalf("/debug/ index not JSON: %v", err)
	}
	var paths []string
	for _, ep := range index {
		paths = append(paths, ep.Path)
	}
	want := []string{"/debug/", "/debug/extra", "/debug/pprof/", "/debug/traces", "/metrics"}
	if strings.Join(paths, " ") != strings.Join(want, " ") {
		t.Errorf("/debug/ index lists %v, want %v", paths, want)
	}
}

func TestListenAndServe(t *testing.T) {
	addr, stop, err := ListenAndServe("127.0.0.1:0", HandlerFor(MetricsEndpoint(NewRegistry)))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/metrics = %d", resp.StatusCode)
	}
}
