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

	srv := httptest.NewServer(HandlerFor(r, tr))
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

	code, body = get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Errorf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["h_total"]; !ok {
		t.Error("/debug/vars missing h_total")
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

	if code, _ = get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, _ = get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

func TestListenAndServe(t *testing.T) {
	addr, stop, err := ListenAndServe("127.0.0.1:0")
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
