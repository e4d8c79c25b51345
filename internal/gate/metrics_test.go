package gate

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// TestMetricsSeriesAfterFixedTraffic drives a fixed mix of requests —
// every method, a malformed frame, an unknown method, a rate-limited
// tenant, an unauthenticated caller — and pins the fxgate_* series the
// gate's own registry then holds for its tenants, values included.
// The list is what the gate emitted when it looked its counters up on
// every request: resolving them once per tenant must not add a series
// (no zero-valued row for a reason that never happened) or lose one.
func TestMetricsSeriesAfterFixedTraffic(t *testing.T) {
	w := wireFixture(t)
	g, err := New(Config{Cluster: w.cfg.Cluster, File: w.cfg.File, Allocator: w.cfg.Allocator,
		Tenants: []TenantConfig{
			{Name: "a", APIKey: "ka"},
			{Name: "b", APIKey: "kb", RatePerSec: 1e-6, Burst: 1},
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	post := func(key, body string) {
		req := httptest.NewRequest(http.MethodPost, "/rpc", strings.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+key)
		g.ServeHTTP(httptest.NewRecorder(), req)
	}
	for _, body := range []string{
		`{"jsonrpc":"2.0","id":1,"method":"fx.retrieve","params":{"query":{"supplier":"supplier-3"}}}`,
		`{"jsonrpc":"2.0","id":2,"method":"fx.retrieve","params":{"query":{"part":"part-1"}}}`,
		`{"jsonrpc":"2.0","id":3,"method":"fx.retrieve","params":{"query":3}}`,
		`{"jsonrpc":"2.0","id":4,"method":"fx.explain","params":{"query":{"part":"part-1"}}}`,
		`{"jsonrpc":"2.0","id":5,"method":"fx.health"}`,
		`{"jsonrpc":"2.0","id":6,"method":"fx.retrieveBatch","params":{"queries":[{"note":"note-1"},{"bogus":"x"}]}}`,
		`[{"jsonrpc":"2.0","id":7,"method":"fx.health"},{"jsonrpc":"2.0","id":8,"method":"fx.nope"}]`,
		`{"jsonrpc":"2.0","id":9,"method":"fx.retrieve"`,
	} {
		post("ka", body)
	}
	for i := 0; i < 3; i++ {
		post("kb", `{"jsonrpc":"2.0","id":1,"method":"fx.retrieve","params":{"query":{"note":"note-2"}}}`)
	}
	post("no-such-key", `{"jsonrpc":"2.0","id":1,"method":"fx.health"}`)

	var buf bytes.Buffer
	if err := g.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var got []string
	unauthorized := false
	for sc := bufio.NewScanner(&buf); sc.Scan(); {
		line := sc.Text()
		switch {
		case !strings.HasPrefix(line, "fxgate_"):
		case strings.HasPrefix(line, `fxgate_rejected_total{reason="unauthorized",tenant=""} `):
			unauthorized = line == `fxgate_rejected_total{reason="unauthorized",tenant=""} 1`
		case strings.Contains(line, `tenant="`):
			got = append(got, line)
		}
	}
	slices.Sort(got)
	want := []string{
		`fxgate_rejected_total{reason="rate_limited",tenant="b"} 2`,
		`fxgate_requests_total{method="fx.explain",tenant="a"} 1`,
		`fxgate_requests_total{method="fx.health",tenant="a"} 2`,
		`fxgate_requests_total{method="fx.retrieve",tenant="a"} 3`,
		`fxgate_requests_total{method="fx.retrieve",tenant="b"} 1`,
		`fxgate_requests_total{method="fx.retrieveBatch",tenant="a"} 1`,
	}
	if !slices.Equal(got, want) {
		t.Errorf("fxgate_* series of the gate's tenants\n got %q\nwant %q", got, want)
	}
	if !unauthorized {
		t.Error(`fxgate_rejected_total{reason="unauthorized",tenant=""} is not 1 after one unauthenticated request`)
	}
	// The reports read the same series: nothing is counted twice.
	rep := g.Report()
	if rep.RateLimited != 2 || rep.Batches == 0 || len(rep.Tenants) != 2 ||
		rep.Tenants[0].Requests != 7 || rep.Tenants[1].Requests != 1 || rep.Tenants[1].RateLimited != 2 {
		t.Errorf("report %+v, want 2 rate-limited, 7 and 1 requests", rep)
	}
}
