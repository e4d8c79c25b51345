package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fxdist"
	"fxdist/client"
)

func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// sink is a ResponseWriter a test reuses: it keeps the last body in a
// buffer of its own and its header map's room, so writing to it
// allocates nothing.
type sink struct {
	h      http.Header
	status int
	body   []byte
}

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) WriteHeader(status int)      { s.status = status }
func (s *sink) Write(b []byte) (int, error) { s.body = append(s.body, b...); return len(b), nil }

func (s *sink) reset() {
	clear(s.h)
	s.status, s.body = 0, s.body[:0]
}

// TestServeHTTPAllocations pins what the gate itself allocates to answer
// a warm fx.retrieve. ServeHTTP is called directly, with a request whose
// body reader is reset and a sink for the response, so net/http is out of
// the count, over a memory cluster whose warm retrieval allocates nothing
// of its own. What is left is the shape key and the Content-Length
// header's value and slice: 3. A gate that allocated per request what it
// now keeps per request memory — params pairs and blob, spec and values,
// one-query slice, caller context and its boxed name, batch results and
// answer — reads 12.
func TestServeHTTPAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts under -race, so allocation counts are not exact")
	}
	g := wireFixture(t)
	body := []byte(`{"jsonrpc":"2.0","id":7,"method":"fx.retrieve","params":{"query":{"supplier":"supplier-3","note":"note-1"}}}`)
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/rpc", nil)
	r.Header.Set("Authorization", "Bearer k")
	r.Body, r.ContentLength = io.NopCloser(rd), int64(len(body))
	w := &sink{h: http.Header{}}
	serve := func() {
		rd.Reset(body)
		w.reset()
		g.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body)
		}
	}
	for i := 0; i < 32; i++ { // past the shape's head-kept queries
		serve()
	}
	var res client.Response
	if err := json.Unmarshal(w.body, &res); err != nil || res.Error != nil {
		t.Fatalf("answer %s: %v", w.body, err)
	}
	if got := testing.AllocsPerRun(1000, serve); got != 3 {
		t.Errorf("a warm fx.retrieve costs the gate %.0f allocations, want 3", got)
	}
}

// TestRecycledRequestHammer drives many callers of one shape through
// ServeHTTP, each request served from pooled request memory, over device
// servers whose frames the answers borrow. An answer holds over 170
// records, more than the engine's 4 KB chunk, so its Records window is a
// pooled slab the gate's release gives back, and requests recycle
// windows as well. Device 0 answers after a millisecond, so dispatches
// overlap, and a third of the requests are cancelled a random moment
// after they are sent: some while their dispatch is in flight, some
// after they were answered. Every answer must be File.Search's. A
// request recycled while something can still read it — its abandoned
// retrieval's devices — shows here as a wrong answer, or as a race under
// -race (CI runs it ten times over).
func TestRecycledRequestHammer(t *testing.T) {
	h := heldGateOver(t, 2000, true)
	h.inj.Set(0, fxdist.FaultSchedule{Latency: time.Millisecond})
	const callers, each, values = 16, 25, 8
	want := make([][]string, values)
	for v := range want {
		want[v] = h.want(t, h.query(t, map[string]string{"supplier": fmt.Sprint("supplier-", v)}))
		if len(want[v]) <= 170 {
			t.Fatalf("supplier-%d: %d records, want a window wider than a chunk", v, len(want[v]))
		}
	}
	var cancelled, answered atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < each; i++ {
				v := rng.Intn(values)
				body := fmt.Sprintf(`{"jsonrpc":"2.0","id":%d,"method":"fx.retrieve","params":{"query":{"supplier":"supplier-%d"}}}`, i, v)
				ctx, cancel := context.WithCancel(context.Background())
				cancels := rng.Intn(3) == 0
				if cancels {
					time.AfterFunc(time.Duration(rng.Int63n(int64(2*time.Millisecond))), cancel)
				}
				r := httptest.NewRequest(http.MethodPost, "/rpc", strings.NewReader(body)).WithContext(ctx)
				r.Header.Set("Authorization", "Bearer k")
				w := httptest.NewRecorder()
				h.ServeHTTP(w, r)
				cancel()
				var resp client.Response
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					t.Errorf("supplier-%d: %v: %s", v, err, w.Body.Bytes())
					return
				}
				if resp.Error != nil {
					if cancels && resp.Error.Data != nil && resp.Error.Data.Code == string(fxdist.ErrCodeCanceled) {
						cancelled.Add(1)
						continue
					}
					t.Errorf("supplier-%d: %v", v, resp.Error)
					return
				}
				var res client.RetrieveResult
				if err := json.Unmarshal(resp.Result, &res); err != nil {
					t.Errorf("supplier-%d: %v", v, err)
					return
				}
				if got := lines(res.Records); !slices.Equal(got, want[v]) {
					t.Errorf("supplier-%d: %d records that are not File.Search's %d", v, len(got), len(want[v]))
					return
				}
				answered.Add(1)
			}
		}(int64(c))
	}
	wg.Wait()
	t.Logf("%d answered; %d cancelled", answered.Load(), cancelled.Load())
	if cancelled.Load() == 0 {
		t.Error("the hammer cancelled nothing")
	}
}
