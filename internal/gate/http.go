package gate

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"fxdist"
	"fxdist/client"
	"fxdist/internal/engine"
	"fxdist/internal/mempool"
	"fxdist/internal/obs"
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
	rq := g.requests.Get().(*request)
	defer func() { // unless the context ended: then something may still read rq
		if r.Context().Err() == nil {
			*rq = request{params: rq.params, spec: rq.spec}
			g.requests.Put(rq)
		}
	}()
	// A declared-length body is read into a pooled slab. The request
	// codec copies every query out of it; only a frame's params (until
	// serveFrame decodes them) and its id (until the answer is written)
	// point into it. A chunked body is read to its end.
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
		rejected(g.metrics.reg, &g.metrics.unauthorized, "", "unauthorized")
		e := fxdist.NewError(fxdist.ErrCodeUnauthorized, "unknown or missing API key")
		writeFrame(w, http.StatusUnauthorized, errorFrame(nil, client.FromError(e)))
		return
	}

	reqs, batch, err := client.DecodeRequests(body, rq.one[:0])
	if err != nil {
		writeFrame(w, http.StatusOK, errorFrame(nil, client.ParseError(err.Error())))
		return
	}
	if batch {
		if len(reqs) == 0 {
			writeFrame(w, http.StatusOK, errorFrame(nil, client.InvalidRequestError("empty batch envelope")))
			return
		}
		frames := make([]frame, len(reqs))
		frames[0], _ = g.serveFrame(rq, r, t, &reqs[0])
		for i := 1; i < len(reqs); i++ {
			frames[i], _ = g.serveOne(r, t, &reqs[i])
		}
		writeBatch(w, frames)
		return
	}
	res, status := g.serveFrame(rq, r, t, &reqs[0])
	if res.err != nil && res.err.Data != nil && res.err.Data.RetryAfterMillis > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((res.err.Data.RetryAfterMillis+999)/1000, 10))
	}
	writeFrame(w, status, res)
}

// request is the memory a ServeHTTP call serves its first frame from. It
// is recycled when ServeHTTP returns, the answer written and released,
// unless the request's context ended first: only then can something still
// read it: the devices of a retrieval the engine abandoned. Nothing in
// it reaches net/http.
type request struct {
	one    [1]client.Request
	params client.Params
	spec   fxdist.PartialMatch
	pms    [1]fxdist.PartialMatch
	caller engine.Caller
	ans    answer
}

// serveOne is serveFrame in memory of its own: a batch envelope's later frames.
func (g *Gate) serveOne(r *http.Request, t *tenant, req *client.Request) (frame, int) {
	return g.serveFrame(new(request), r, t, req)
}

// serveFrame admits and runs one JSON-RPC frame in rq, returning its
// response and the HTTP status a single-frame envelope should carry.
func (g *Gate) serveFrame(rq *request, r *http.Request, t *tenant, req *client.Request) (frame, int) {
	if req.JSONRPC != "2.0" || req.Method == "" {
		return errorFrame(req.ID, client.InvalidRequestError("not a JSON-RPC 2.0 request")), http.StatusOK
	}
	method := slices.Index(methods[:], req.Method)
	if method < 0 {
		e := fxdist.NewError(fxdist.ErrCodeUnknownMethod, "unknown method "+req.Method)
		return errorFrame(req.ID, client.FromError(e)), http.StatusOK
	}
	// The params are decoded here, once, by method. One token per query:
	// the limiter is charged for the queries of an fx.retrieveBatch, and
	// params that do not decode are charged one and refused once admitted.
	p := &rq.params
	var malformed *fxdist.Error
	if err := p.Decode(req.Method, req.Params); err != nil {
		malformed = fxdist.NewError(fxdist.ErrCodeInvalidQuery, "malformed params: "+err.Error())
	}
	cost := max(1, float64(len(p.Queries)))

	// Admission, outermost first: token bucket, per-tenant in-flight
	// quota, front-door shed. Each rejection carries a Retry-After.
	if ok, retry := t.take(time.Now(), cost); !ok {
		return g.refuse(t, rateLimited, req.ID, fxdist.ErrCodeRateLimited, "tenant rate limit exceeded", max(retry, time.Second))
	}
	if !t.acquire() {
		return g.refuse(t, quota, req.ID, fxdist.ErrCodeRateLimited, "tenant in-flight quota exceeded", g.cfg.ShedRetryAfter)
	}
	defer t.release()
	maxInFlight, shedRetry := g.shedConfig()
	if n := g.inFlight.Add(1); maxInFlight > 0 && n > int64(maxInFlight) {
		g.inFlight.Add(-1)
		return g.refuse(t, shed, req.ID, fxdist.ErrCodeOverloaded, "gate at max in-flight requests", shedRetry)
	}
	defer g.inFlight.Add(-1)

	t.series.requests[method].add(g.metrics.reg, 1, "fxgate_requests_total", "JSON-RPC requests admitted, by tenant and method.",
		obs.L("tenant", t.cfg.Name), obs.L("method", req.Method))

	start := time.Now()
	var result any
	herr := malformed
	if herr == nil {
		result, herr = g.call(r.Context(), t, req.Method, rq)
	}
	g.metrics.latency.ObserveSince(start)
	if herr != nil {
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

// refuse counts a request turned away at the front door for the reason,
// on the gate and the tenant, and answers it 429 with a Retry-After.
func (g *Gate) refuse(t *tenant, reason int, id json.RawMessage, code fxdist.ErrorCode, msg string,
	retry time.Duration) (frame, int) {
	t.reject(g.metrics.reg, reason)
	e := fxdist.NewError(code, msg)
	e.RetryAfter = retry
	return errorFrame(id, client.FromError(e)), http.StatusTooManyRequests
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
	switch r := f.result.(type) {
	case *answer:
		r.res.Release()
	case batchAnswer:
		for i := range r {
			r[i].res.Release()
		}
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

// jsonContentType is every response's Content-Type value, one slice for
// all of them. Its len is its cap, so an Add to a response's header
// copies it instead of writing into it.
var jsonContentType = []string{"application/json; charset=utf-8"}

// send writes one encoded response with its length declared, so that
// large answers are not chunked, and recycles the slab.
func send(w http.ResponseWriter, status int, buf []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h.Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(status)
	w.Write(buf)
	mempool.Frames.Put(buf)
}
