package client

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fxdist"
	"fxdist/internal/mempool"
)

// Client talks JSON-RPC 2.0 to an fxgate endpoint over persistent
// (keep-alive) HTTP connections. It is safe for concurrent use; a
// single Client multiplexes any number of in-flight calls over the
// transport's connection pool.
type Client struct {
	url    *url.URL // the endpoint, parsed once; urlErr fails every call
	urlErr error
	// authorization is the Authorization header's value, built once and
	// shared by every request like jsonContentType.
	authorization []string
	headers       sync.Pool // request header maps between calls
	httpc         *http.Client
	nextID        atomic.Uint64
	retryAttempts int
	retryMaxWait  time.Duration
}

// Option configures New.
type Option func(*Client)

// WithAPIKey authenticates every request as the tenant owning key
// (sent as a Bearer token).
func WithAPIKey(key string) Option {
	return func(c *Client) {
		c.authorization = nil
		if key != "" {
			c.authorization = []string{"Bearer " + key}
		}
	}
}

// WithHTTPClient substitutes the underlying HTTP client (custom
// transport, TLS, proxies). The default keeps connections alive — as
// many idle ones as calls were in flight — and applies no overall
// timeout: use context deadlines per call.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.httpc = h }
}

// WithRetryOn429 retries calls the gateway rejected with a 429-class
// error (rate_limited or overloaded), sleeping the server's Retry-After
// hint between attempts — the cooperative half of the gateway's
// admission control. maxAttempts counts total tries (values below 2
// disable retrying); maxWait caps the cumulative time spent sleeping,
// after which the last rejection is returned as is (zero means no cap).
// Rejections carrying no hint back off exponentially from 25ms. Other
// error classes are never retried here: device-level retry policy
// belongs to the cluster's retry controller, not the edge client.
func WithRetryOn429(maxAttempts int, maxWait time.Duration) Option {
	return func(c *Client) {
		c.retryAttempts = maxAttempts
		c.retryMaxWait = maxWait
	}
}

// New builds a client for an fxgate RPC endpoint, e.g.
// "http://127.0.0.1:8080/rpc".
func New(endpoint string, opts ...Option) *Client {
	c := &Client{httpc: &http.Client{}}
	c.headers.New = func() any { return http.Header{} }
	if c.url, c.urlErr = url.Parse(endpoint); c.urlErr == nil {
		c.url.Host = strings.TrimSuffix(c.url.Host, ":") // an empty port, as http.NewRequest drops it
	}
	// http.DefaultTransport keeps two idle connections per host, so past
	// two calls in flight most dialled one of their own; a Client's clone
	// keeps them all. A DefaultTransport a program wrapped is used as is.
	if def, ok := http.DefaultTransport.(*http.Transport); ok {
		tr := def.Clone()
		tr.MaxIdleConnsPerHost = max(tr.MaxIdleConns, 100)
		c.httpc.Transport = tr
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// jsonContentType is every request's Content-Type value, one slice for
// all of them. Its len is its cap, so an Add to a request's header
// copies it instead of writing into it.
var jsonContentType = []string{"application/json"}

// call runs one JSON-RPC request, retrying 429-class rejections per the
// client's WithRetryOn429 policy, and unmarshals the result into out.
func (c *Client) call(ctx context.Context, method string, params any, out any) error {
	var waited time.Duration
	for attempt := 1; ; attempt++ {
		err := c.callOnce(ctx, method, params, out)
		if err == nil || attempt >= c.retryAttempts {
			return err
		}
		var fe *fxdist.Error
		if !errors.As(err, &fe) ||
			(fe.Code != fxdist.ErrCodeRateLimited && fe.Code != fxdist.ErrCodeOverloaded) {
			return err
		}
		delay := fe.RetryAfter
		if delay <= 0 {
			delay = 25 * time.Millisecond << (attempt - 1)
		}
		if c.retryMaxWait > 0 && waited+delay > c.retryMaxWait {
			return err
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return classifyTransport(ctx, ctx.Err())
		}
		waited += delay
	}
}

// callOnce runs one JSON-RPC round trip.
func (c *Client) callOnce(ctx context.Context, method string, params any, out any) error {
	// The frame is written on the stack and copied out once: the
	// transport may still be sending the body when Do returns, so it
	// cannot be a slab that goes back to a pool there.
	var frame [512]byte
	body := slices.Clone(appendRequest(frame[:0], c.nextID.Add(1), method, params))
	if c.urlErr != nil || ctx == nil {
		return fmt.Errorf("client: build request: %w", cmp.Or(c.urlErr, errors.New("net/http: nil Context")))
	}
	// http.NewRequestWithContext's request, without a URL parse or a new
	// header map; the body is the in-memory kind net/http knows, as there.
	h := c.headers.Get().(http.Header)
	h["Content-Type"] = jsonContentType
	if c.authorization != nil {
		h["Authorization"] = c.authorization
	}
	hreq := (&http.Request{Method: http.MethodPost, URL: c.url, Host: c.url.Host, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: h, Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)),
		GetBody: func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil },
	}).WithContext(ctx)
	hres, err := c.httpc.Do(hreq)
	if err != nil {
		return classifyTransport(ctx, err)
	}
	defer func() { clear(h); c.headers.Put(h) }() // after the Close; a cookie jar may have added to h
	defer hres.Body.Close()
	data, err := readBody(hres, maxResponseBytes)
	// Nothing below keeps the bytes — the decoder copies every value out
	// (the record blob, unquote, encoding/json), the error text is
	// formatted before the return — so the slab goes back when it is done.
	defer mempool.Frames.Put(data)
	if err != nil {
		return classifyTransport(ctx, err)
	}
	wireErr, err := decodeResponse(data, out)
	if err != nil {
		// No JSON-RPC frame (a proxy's error page, a cut-off body):
		// surface the HTTP status.
		e := fxdist.NewError(fxdist.ErrCodeInternal,
			fmt.Sprintf("HTTP %d: %v: %.200s", hres.StatusCode, err, data))
		if ra := retryAfterHeader(hres); ra > 0 {
			e.Code = fxdist.ErrCodeOverloaded
			e.RetryAfter = ra
		}
		return e
	}
	if wireErr != nil {
		e := wireErr.Err()
		if e.RetryAfter == 0 {
			e.RetryAfter = retryAfterHeader(hres)
		}
		return e
	}
	return nil
}

// maxResponseBytes bounds one response body.
const maxResponseBytes = 64 << 20

// readBody reads a response body of at most limit bytes: into one
// mempool.Frames slab of the declared size when the server sent a
// Content-Length (the caller puts it back), by io.ReadAll when the reply
// is chunked. A longer body is an error, not a prefix for the decoder to
// choke on.
func readBody(res *http.Response, limit int64) ([]byte, error) {
	if res.ContentLength > limit {
		return nil, errTooLong(limit)
	}
	if res.ContentLength >= 0 {
		data := mempool.Frames.Get(int(res.ContentLength))
		_, err := io.ReadFull(res.Body, data)
		return data, err
	}
	data, err := io.ReadAll(io.LimitReader(res.Body, limit+1))
	if err == nil && int64(len(data)) > limit {
		return nil, errTooLong(limit)
	}
	return data, err
}

func errTooLong(limit int64) error {
	return fxdist.NewError(fxdist.ErrCodeInternal, fmt.Sprintf("response exceeds %d MiB", limit>>20))
}

// classifyTransport folds transport-level failures onto the taxonomy.
func classifyTransport(ctx context.Context, err error) error {
	e := fxdist.Classify(err)
	if ctx.Err() == context.DeadlineExceeded {
		e.Code = fxdist.ErrCodeTimeout
	} else if ctx.Err() == context.Canceled {
		e.Code = fxdist.ErrCodeCanceled
	}
	return e
}

// retryAfterHeader parses an HTTP Retry-After delay (seconds form).
func retryAfterHeader(res *http.Response) time.Duration {
	v := res.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil && secs > 0 {
		return time.Duration(secs * float64(time.Second))
	}
	return 0
}

// Retrieve answers one partial match query: field name → required
// value; unmentioned fields are unspecified. Failures are *fxdist.Error
// values carrying the taxonomy code from the wire.
func (c *Client) Retrieve(ctx context.Context, query map[string]string) (*RetrieveResult, error) {
	var out RetrieveResult
	if err := c.call(ctx, MethodRetrieve, RetrieveParams{Query: query}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RetrieveBatch answers a batch of queries in one round trip; the
// result's Items are index-aligned with queries, each carrying either
// a result or a per-query error.
func (c *Client) RetrieveBatch(ctx context.Context, queries []map[string]string) (*BatchResult, error) {
	var out BatchResult
	if err := c.call(ctx, MethodRetrieveBatch, BatchParams{Queries: queries}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Explain reports the compiled plan's view of a query — shape, |R(q)|,
// the strict bound, per-device loads when known — without running it.
func (c *Client) Explain(ctx context.Context, query map[string]string) (*ExplainResult, error) {
	var out ExplainResult
	if err := c.call(ctx, MethodExplain, RetrieveParams{Query: query}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health reports the serving cluster's identity and liveness.
func (c *Client) Health(ctx context.Context) (*HealthResult, error) {
	var out HealthResult
	if err := c.call(ctx, MethodHealth, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Close releases the idle connections the client's transport holds.
func (c *Client) Close() {
	c.httpc.CloseIdleConnections()
}
