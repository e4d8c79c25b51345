package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fxdist"
	"fxdist/internal/mempool"
)

// TestMain runs every client test with released slabs poisoned: a value
// the client hands out that still aliased its pooled response body would
// read as 0xDB bytes after the call that returned it.
func TestMain(m *testing.M) {
	mempool.SetPoison(true)
	os.Exit(m.Run())
}

// rateLimitingServer rejects the first reject calls with a JSON-RPC
// 429-class error carrying a Retry-After hint, then answers.
func rateLimitingServer(t *testing.T, reject int, hint time.Duration) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		var req Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("bad request: %v", err)
		}
		w.Header().Set("Content-Type", "application/json")
		if int(n) <= reject {
			e := fxdist.NewError(fxdist.ErrCodeRateLimited, "tenant over budget")
			e.RetryAfter = hint
			w.WriteHeader(http.StatusTooManyRequests)
			resp := Response{JSONRPC: "2.0", ID: req.ID, Error: FromError(e)}
			if err := json.NewEncoder(w).Encode(&resp); err != nil {
				t.Error(err)
			}
			return
		}
		result, _ := json.Marshal(RetrieveResult{APIVersion: APIVersion, Records: [][]string{{"a", "b"}}})
		resp := Response{JSONRPC: "2.0", ID: req.ID, Result: result}
		if err := json.NewEncoder(w).Encode(&resp); err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func TestRetryOn429HonorsRetryAfter(t *testing.T) {
	srv, calls := rateLimitingServer(t, 2, 10*time.Millisecond)
	c := New(srv.URL, WithRetryOn429(4, time.Second))
	defer c.Close()

	start := time.Now()
	res, err := c.Retrieve(context.Background(), map[string]string{"part": "p1"})
	if err != nil {
		t.Fatalf("retries exhausted: %v", err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("got %v", res.Records)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	// Two rejections, each with a 10ms hint: the client must have slept
	// at least that long in total.
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("client returned after %v, ignored Retry-After", waited)
	}
}

func TestRetryOn429DisabledByDefault(t *testing.T) {
	srv, calls := rateLimitingServer(t, 1, time.Millisecond)
	c := New(srv.URL)
	defer c.Close()

	_, err := c.Retrieve(context.Background(), map[string]string{"part": "p1"})
	var fe *fxdist.Error
	if !errors.As(err, &fe) || fe.Code != fxdist.ErrCodeRateLimited {
		t.Fatalf("got %v, want rate_limited", err)
	}
	if fe.RetryAfter != time.Millisecond {
		t.Fatalf("RetryAfter %v not surfaced", fe.RetryAfter)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retry configured)", got)
	}
}

func TestRetryOn429RespectsAttemptCeiling(t *testing.T) {
	srv, calls := rateLimitingServer(t, 100, time.Millisecond)
	c := New(srv.URL, WithRetryOn429(3, time.Second))
	defer c.Close()

	_, err := c.Retrieve(context.Background(), map[string]string{"part": "p1"})
	var fe *fxdist.Error
	if !errors.As(err, &fe) || fe.Code != fxdist.ErrCodeRateLimited {
		t.Fatalf("got %v, want rate_limited", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want exactly maxAttempts", got)
	}
}

func TestRetryOn429RespectsWaitBudget(t *testing.T) {
	// The server demands 10s per retry; a 50ms budget must give up
	// immediately rather than sleep.
	srv, calls := rateLimitingServer(t, 100, 10*time.Second)
	c := New(srv.URL, WithRetryOn429(5, 50*time.Millisecond))
	defer c.Close()

	start := time.Now()
	_, err := c.Retrieve(context.Background(), map[string]string{"part": "p1"})
	if err == nil {
		t.Fatal("succeeded against a permanently limiting server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("client slept %v past its wait budget", elapsed)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (hint exceeds budget)", got)
	}
}

func TestRetryOn429DoesNotRetryOtherErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		var req Request
		_ = json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/json")
		resp := Response{JSONRPC: "2.0", ID: req.ID,
			Error: FromError(fxdist.NewError(fxdist.ErrCodeInvalidQuery, "unknown field"))}
		_ = json.NewEncoder(w).Encode(&resp)
	}))
	defer srv.Close()
	c := New(srv.URL, WithRetryOn429(5, time.Second))
	defer c.Close()

	_, err := c.Retrieve(context.Background(), map[string]string{"bogus": "x"})
	var fe *fxdist.Error
	if !errors.As(err, &fe) || fe.Code != fxdist.ErrCodeInvalidQuery {
		t.Fatalf("got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls for a non-retryable error", got)
	}
}

func TestRetryOn429ContextCancel(t *testing.T) {
	srv, _ := rateLimitingServer(t, 100, 10*time.Second)
	c := New(srv.URL, WithRetryOn429(5, 0)) // no wait cap: only ctx stops it
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Retrieve(ctx, map[string]string{"part": "p1"})
	var fe *fxdist.Error
	if !errors.As(err, &fe) || fe.Code != fxdist.ErrCodeTimeout {
		t.Fatalf("got %v, want timeout from the canceled wait", err)
	}
}

// TestOversizeResponseIsNamed pins the response-size limit: a body over
// it used to be cut at the limit and reported as a parse failure
// quoting the start of a perfectly good frame.
func TestOversizeResponseIsNamed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Declaring the length is enough: the client refuses before it
		// reads, and the server drops the connection it cannot fill.
		w.Header().Set("Content-Length", strconv.Itoa(maxResponseBytes+1))
	}))
	defer srv.Close()
	c := New(srv.URL)
	defer c.Close()
	_, err := c.Retrieve(context.Background(), map[string]string{"part": "p1"})
	var fe *fxdist.Error
	if !errors.As(err, &fe) || fe.Code != fxdist.ErrCodeInternal || fe.Message != "response exceeds 64 MiB" {
		t.Fatalf("got %v, want internal: response exceeds 64 MiB", err)
	}

	// The same limit when the reply is chunked and the length is only
	// known once it has been read; and at the limit, nothing is cut.
	const limit = 1 << 10
	body := func(n int, declared int64) *http.Response {
		return &http.Response{ContentLength: declared, Body: io.NopCloser(strings.NewReader(strings.Repeat("x", n)))}
	}
	for _, declared := range []int64{-1, limit} {
		data, err := readBody(body(limit, declared), limit)
		if err != nil || len(data) != limit {
			t.Errorf("declared %d: a body of the limit read as %d bytes, %v", declared, len(data), err)
		}
		if declared >= 0 && cap(data) != limit {
			t.Errorf("a declared length of %d was read into a buffer of %d", declared, cap(data))
		}
	}
	for _, declared := range []int64{-1, limit + 1} {
		if _, err := readBody(body(limit+1, declared), limit); !errors.As(err, &fe) || fe.Code != fxdist.ErrCodeInternal {
			t.Errorf("declared %d: a body over the limit gave %v", declared, err)
		}
	}
	if _, err := readBody(body(limit-1, limit), limit); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a body shorter than declared gave %v", err)
	}
}

// TestDecodeResponse covers the frame walk that replaced
// json.Unmarshal into a Response: members in any order, any result
// type, error frames, and what is not a frame at all.
func TestDecodeResponse(t *testing.T) {
	answer := `{"api_version":"fx/v1","records":[["a","b"]],"device_buckets":[1,0],"largest_response_size":1}`
	want := RetrieveResult{APIVersion: APIVersion, Records: [][]string{{"a", "b"}}, DeviceBuckets: []int{1, 0}, LargestResponseSize: 1}
	for _, frame := range []string{
		`{"jsonrpc":"2.0","id":1,"result":` + answer + `}`,
		` { "result" : ` + answer + ` , "id" : [ "}" , {"result":1} ] , "jsonrpc" : "2.0" , "error" : null } `,
		`{"RESULT":` + answer + `,"extension":{"error":{}}}`,
	} {
		var got RetrieveResult
		if wireErr, err := decodeResponse([]byte(frame), &got); err != nil || wireErr != nil {
			t.Fatalf("%s: %v, %+v", frame, err, wireErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s decoded as %#v", frame, got)
		}
	}

	var batch BatchResult
	frame := `{"jsonrpc":"2.0","id":2,"result":{"api_version":"fx/v1","items":[{"result":` + answer + `},{"error":{"code":-32602,"message":"m"}}]}}`
	if wireErr, err := decodeResponse([]byte(frame), &batch); err != nil || wireErr != nil {
		t.Fatalf("%v, %+v", err, wireErr)
	}
	if len(batch.Items) != 2 || !reflect.DeepEqual(*batch.Items[0].Result, want) || batch.Items[1].Error.Message != "m" {
		t.Errorf("batch decoded as %+v", batch)
	}

	var untouched RetrieveResult
	wireErr, err := decodeResponse([]byte(`{"jsonrpc":"2.0","id":3,"error":{"code":-32002,"message":"slow down","data":{"code":"rate_limited","retry_after_ms":20}}}`), &untouched)
	if err != nil || wireErr == nil || wireErr.Err().Code != fxdist.ErrCodeRateLimited || wireErr.Err().RetryAfter != 20*time.Millisecond {
		t.Errorf("error frame: %v, %+v", err, wireErr)
	}
	if wireErr, err := decodeResponse([]byte(`{"result":null,"id":null}`), &untouched); err != nil || wireErr != nil || !reflect.DeepEqual(untouched, RetrieveResult{}) {
		t.Errorf("null result: %v, %+v, %+v", err, wireErr, untouched)
	}
	if _, err := decodeResponse([]byte(`{"result":{"status":"ok"},"id":4}`), nil); err != nil {
		t.Errorf("result with nowhere to go: %v", err)
	}

	for _, bad := range []string{
		``, `null`, `[]`, `<html>502 Bad Gateway</html>`, `{"result":` + answer, `{"result":` + answer + `}}`,
		`{"result":{"records":[["a",]]}}`, `{"result":{},"result":{}}`, `{"id":01,"result":{}}`, `{"error":{"code":"x"}}`,
		`{"result":[]}`, `{"result":{"status":1}}`,
	} {
		var health HealthResult
		var out any = &untouched
		if strings.Contains(bad, "status") {
			out = &health
		}
		if _, err := decodeResponse([]byte(bad), out); err == nil {
			t.Errorf("decodeResponse accepted %q", bad)
		}
	}
}

// TestResultsOutliveTheResponseBody pins the client's side of the pooled
// body: what a call returns is the caller's outright. A RetrieveResult, a
// BatchResult and an error's message are read again after three more
// calls on the same client have reused (and, poisoned, scribbled) the
// slab their bodies arrived in.
func TestResultsOutliveTheResponseBody(t *testing.T) {
	one := RetrieveResult{APIVersion: APIVersion, Records: [][]string{{"part-1", "sup\"plier", "wh"}, {"part-2", "", "w\u00e9"}},
		DeviceBuckets: []int{1, 0, 2, 0}, LargestResponseSize: 2, TraceID: 99}
	two := BatchResult{APIVersion: APIVersion, Items: []BatchItem{{Result: &one},
		{Error: FromError(fxdist.NewError(fxdist.ErrCodeInvalidQuery, "no such field \"colour\""))}}}
	refused := fxdist.NewError(fxdist.ErrCodeInvalidQuery, "a message long enough to sit in the body and nowhere else")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("bad request: %v", err)
		}
		resp := Response{JSONRPC: "2.0", ID: req.ID}
		switch req.Method {
		case MethodRetrieve:
			resp.Result, _ = json.Marshal(one)
		case MethodRetrieveBatch:
			resp.Result, _ = json.Marshal(two)
		default:
			resp.Error = FromError(refused)
		}
		body, _ := json.Marshal(resp)
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}))
	defer srv.Close()
	c := New(srv.URL)
	defer c.Close()
	ctx := context.Background()

	res, err := c.Retrieve(ctx, map[string]string{"part": "part-1"})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.RetrieveBatch(ctx, []map[string]string{{"part": "part-1"}, {"colour": "red"}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Explain(ctx, map[string]string{"part": "part-1"})
	var fe *fxdist.Error
	if !errors.As(err, &fe) {
		t.Fatalf("explain: %v, want the server's refusal", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Retrieve(ctx, map[string]string{"part": "part-2"}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(*res, one) {
		t.Errorf("the result changed under later calls:\n%+v\nwant\n%+v", *res, one)
	}
	if !reflect.DeepEqual(*batch, two) {
		t.Errorf("the batch result changed under later calls:\n%+v\nwant\n%+v", *batch, two)
	}
	if fe.Message != refused.Message || fe.Code != refused.Code {
		t.Errorf("the error changed under later calls: %q (%s)", fe.Message, fe.Code)
	}
}
