package gate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fxdist"
	"fxdist/client"
	"fxdist/internal/mempool"
)

// maxBodyBytes bounds one HTTP request body (a JSON-RPC frame or an
// array of frames).
const maxBodyBytes = 8 << 20

// ServeHTTP is the gate's RPC endpoint: POST one JSON-RPC 2.0 request
// (or a JSON array of requests — the JSON-RPC batch envelope) with an
// Authorization: Bearer <api-key> header. Connections are persistent:
// plain HTTP/1.1 keep-alive, any number of requests per connection.
//
// HTTP status carries the admission outcome for single frames: 401
// unauthenticated, 429 + Retry-After for rate limits / quota / shed
// rejections, 200 otherwise (method-level failures are JSON-RPC error
// objects, as the spec wants). Batch envelopes are always 200 unless
// unauthenticated; per-frame outcomes ride inside the array.
func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "fxgate speaks JSON-RPC 2.0 over POST", http.StatusMethodNotAllowed)
		return
	}
	// A declared-length body is read into a pooled slab: json.Unmarshal
	// copies what it keeps (Params included), so nothing holds the bytes
	// once the response is written. A chunked one is read to its end.
	var body []byte
	var err error
	tooLarge := r.ContentLength > maxBodyBytes
	if n := r.ContentLength; n < 0 {
		body, err = io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
		tooLarge = len(body) > maxBodyBytes
	} else if !tooLarge {
		body = mempool.Frames.Get(int(n))
		defer mempool.Frames.Put(body)
		_, err = io.ReadFull(r.Body, body)
	}
	if err != nil {
		writeFrame(w, http.StatusBadRequest, errorFrame(nil, client.ParseError("read body: "+err.Error())))
		return
	}
	if tooLarge {
		writeFrame(w, http.StatusRequestEntityTooLarge,
			errorFrame(nil, client.InvalidRequestError(fmt.Sprintf("request body exceeds %d MiB", maxBodyBytes>>20))))
		return
	}
	t := g.tenants.authenticate(bearerToken(r))
	if t == nil {
		g.metrics.rejected("", "unauthorized")
		e := fxdist.NewError(fxdist.ErrCodeUnauthorized, "unknown or missing API key")
		writeFrame(w, http.StatusUnauthorized, errorFrame(nil, client.FromError(e)))
		return
	}

	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var reqs []client.Request
		if err := json.Unmarshal(body, &reqs); err != nil {
			writeFrame(w, http.StatusOK, errorFrame(nil, client.ParseError(err.Error())))
			return
		}
		if len(reqs) == 0 {
			writeFrame(w, http.StatusOK, errorFrame(nil, client.InvalidRequestError("empty batch envelope")))
			return
		}
		frames := make([]frame, len(reqs))
		for i := range reqs {
			frames[i], _ = g.serveOne(r, t, &reqs[i])
		}
		writeBatch(w, frames)
		return
	}

	var req client.Request
	if err := json.Unmarshal(body, &req); err != nil {
		writeFrame(w, http.StatusOK, errorFrame(nil, client.ParseError(err.Error())))
		return
	}
	res, status := g.serveOne(r, t, &req)
	if res.err != nil && res.err.Data != nil && res.err.Data.RetryAfterMillis > 0 {
		secs := int(math.Ceil(float64(res.err.Data.RetryAfterMillis) / 1000))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeFrame(w, status, res)
}

// serveOne admits and runs one JSON-RPC frame, returning its response
// and the HTTP status a single-frame envelope should carry.
func (g *Gate) serveOne(r *http.Request, t *tenant, req *client.Request) (frame, int) {
	if req.JSONRPC != "2.0" || req.Method == "" {
		return errorFrame(req.ID, client.InvalidRequestError("not a JSON-RPC 2.0 request")), http.StatusOK
	}
	// One token per query. An fx.retrieveBatch is decoded here, once:
	// the limiter is charged for the queries the handler then runs, and
	// params that do not parse are charged one and refused once admitted.
	cost := 1.0
	var batch client.BatchParams
	var malformed *fxdist.Error
	switch req.Method {
	case client.MethodRetrieve, client.MethodExplain, client.MethodHealth:
	case client.MethodRetrieveBatch:
		if err := json.Unmarshal(req.Params, &batch); err != nil {
			malformed = fxdist.NewError(fxdist.ErrCodeInvalidQuery, "malformed params: "+err.Error())
		} else if n := len(batch.Queries); n > 0 {
			cost = float64(n)
		}
	default:
		e := fxdist.NewError(fxdist.ErrCodeUnknownMethod, "unknown method "+req.Method)
		return errorFrame(req.ID, client.FromError(e)), http.StatusOK
	}

	// Admission, outermost first: token bucket, per-tenant in-flight
	// quota, front-door shed. Each rejection carries a Retry-After.
	if ok, retry := t.take(time.Now(), cost); !ok {
		t.mu.Lock()
		t.rateLimited++
		t.mu.Unlock()
		g.rateLimited.Add(1)
		g.metrics.rejected(t.cfg.Name, "rate_limited")
		e := fxdist.NewError(fxdist.ErrCodeRateLimited, "tenant rate limit exceeded")
		e.RetryAfter = maxDuration(retry, time.Second)
		return errorFrame(req.ID, client.FromError(e)), http.StatusTooManyRequests
	}
	if !t.acquire() {
		t.mu.Lock()
		t.quotaRejected++
		t.mu.Unlock()
		g.quotaRejects.Add(1)
		g.metrics.rejected(t.cfg.Name, "quota")
		e := fxdist.NewError(fxdist.ErrCodeRateLimited, "tenant in-flight quota exceeded")
		e.RetryAfter = g.cfg.ShedRetryAfter
		return errorFrame(req.ID, client.FromError(e)), http.StatusTooManyRequests
	}
	defer t.release()
	maxInFlight, shedRetry := g.shedConfig()
	if n := g.inFlight.Add(1); maxInFlight > 0 && n > int64(maxInFlight) {
		g.inFlight.Add(-1)
		t.mu.Lock()
		t.shed++
		t.mu.Unlock()
		g.frontSheds.Add(1)
		g.metrics.rejected(t.cfg.Name, "shed")
		e := fxdist.NewError(fxdist.ErrCodeOverloaded, "gate at max in-flight requests")
		e.RetryAfter = shedRetry
		return errorFrame(req.ID, client.FromError(e)), http.StatusTooManyRequests
	}
	defer func() {
		g.metrics.inflight.Set(float64(g.inFlight.Add(-1)))
	}()
	g.metrics.inflight.Set(float64(g.inFlight.Load()))

	t.mu.Lock()
	t.requests++
	t.mu.Unlock()
	g.metrics.request(t.cfg.Name, req.Method)

	start := time.Now()
	var result any
	herr := malformed
	if herr == nil {
		result, herr = g.call(r.Context(), t, req, batch.Queries)
	}
	g.metrics.latency.ObserveSince(start)
	if herr != nil {
		if herr.Code == fxdist.ErrCodeOverloaded {
			g.metrics.rejected(t.cfg.Name, "burn")
		}
		status := http.StatusOK
		switch herr.Code {
		case fxdist.ErrCodeRateLimited, fxdist.ErrCodeOverloaded:
			status = http.StatusTooManyRequests
		case fxdist.ErrCodeUnauthorized:
			status = http.StatusUnauthorized
		}
		return errorFrame(req.ID, client.FromError(herr)), status
	}
	return frame{id: req.ID, result: result}, http.StatusOK
}

// bearerToken extracts the Authorization: Bearer credential.
func bearerToken(r *http.Request) string {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) > len(prefix) && strings.EqualFold(auth[:len(prefix)], prefix) {
		return auth[len(prefix):]
	}
	return ""
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// frame is one JSON-RPC response on its way out: the request's id and
// either a handler's result or an error.
type frame struct {
	id     json.RawMessage
	result any
	err    *client.ErrorObject
}

// release gives back what the cluster lent under the frame's retrieval
// results. The gate knows when it is done with them — once the encoded
// bytes are written — and must not read their records afterwards.
func (f *frame) release() {
	items, _ := f.result.(batchAnswer)
	if a, ok := f.result.(*answer); ok {
		items = batchAnswer{{answer: *a}}
	}
	for i := range items {
		items[i].res.Release()
	}
}

func errorFrame(id json.RawMessage, e *client.ErrorObject) frame {
	return frame{id: id, err: e}
}

// wireResult is a handler result that encodes itself: the retrieval
// answers, whose size grows with the data and which therefore go from
// the engine's result to the response bytes without passing through
// encoding/json. Every other result, and every error, is small and is
// marshalled the ordinary way.
type wireResult interface {
	// sizeHint estimates the encoding's length, to pick the slab.
	sizeHint() int
	appendJSON(dst []byte) []byte
}

// sizeHint estimates f's encoding so that its slab rarely has to grow.
func (f *frame) sizeHint() int {
	const envelope = 128
	if r, ok := f.result.(wireResult); ok {
		return envelope + r.sizeHint()
	}
	return envelope + 512
}

// appendFrame appends f's encoding, byte for byte what json.Marshal
// writes for the client.Response of the same content.
func appendFrame(dst []byte, f *frame) []byte {
	start := len(dst)
	dst = append(dst, `{"jsonrpc":"2.0"`...)
	if len(f.id) > 0 {
		dst = append(dst, `,"id":`...)
		dst = appendID(dst, f.id)
	}
	if f.err == nil {
		dst = append(dst, `,"result":`...)
		if r, ok := f.result.(wireResult); ok {
			return append(r.appendJSON(dst), '}')
		}
		raw, err := json.Marshal(f.result)
		if err == nil {
			return append(append(dst, raw...), '}')
		}
		e := fxdist.NewError(fxdist.ErrCodeInternal, "marshal result: "+err.Error())
		return appendFrame(dst[:start], &frame{id: f.id, err: client.FromError(e)})
	}
	dst = append(dst, `,"error":`...)
	return append(appendError(dst, f.err), '}')
}

// appendError appends an error object's encoding.
func appendError(dst []byte, e *client.ErrorObject) []byte {
	raw, err := json.Marshal(e)
	if err != nil {
		// A coverage that is not a number is the one thing in an error
		// object that has no JSON; report that instead, without one.
		internal := fxdist.NewError(fxdist.ErrCodeInternal, "marshal error: "+err.Error())
		raw, _ = json.Marshal(client.FromError(internal))
	}
	return append(dst, raw...)
}

// appendID appends a request id the way json.Marshal writes the
// RawMessage holding it: compacted and HTML-escaped. A run of digits,
// which is what most clients send, is already in that form.
func appendID(dst []byte, id json.RawMessage) []byte {
	for _, c := range id {
		if c < '0' || c > '9' {
			// Cannot fail: the id was cut out of a request that parsed.
			raw, _ := json.Marshal(id)
			return append(dst, raw...)
		}
	}
	return append(dst, id...)
}

// writeFrame answers a single-frame request.
func writeFrame(w http.ResponseWriter, status int, f frame) {
	buf := mempool.Frames.Get(f.sizeHint())[:0]
	send(w, status, appendFrame(buf, &f))
	f.release()
}

// writeBatch answers a batch envelope: the frames as one JSON array.
func writeBatch(w http.ResponseWriter, frames []frame) {
	size := 2
	for i := range frames {
		size += frames[i].sizeHint() + 1
	}
	buf := append(mempool.Frames.Get(size)[:0], '[')
	for i := range frames {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendFrame(buf, &frames[i])
	}
	send(w, http.StatusOK, append(buf, ']'))
	for i := range frames {
		frames[i].release()
	}
}

// send writes one encoded response with its length declared, so that
// large answers are not chunked, and recycles the slab.
func send(w http.ResponseWriter, status int, buf []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(status)
	w.Write(buf)
	mempool.Frames.Put(buf)
}
