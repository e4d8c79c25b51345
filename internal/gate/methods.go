package gate

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"fxdist"
	"fxdist/client"
	"fxdist/internal/audit"
)

// Handler serves one JSON-RPC method for an authenticated tenant. The
// returned value becomes the JSON-RPC result — a wireResult encodes
// itself, anything else goes through json.Marshal; a non-nil
// *fxdist.Error becomes the JSON-RPC error object (and, for
// rate/overload codes, the HTTP status).
type Handler interface {
	ServeJSONRPC(ctx context.Context, t *tenant, params json.RawMessage) (any, *fxdist.Error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ctx context.Context, t *tenant, params json.RawMessage) (any, *fxdist.Error)

func (f HandlerFunc) ServeJSONRPC(ctx context.Context, t *tenant, params json.RawMessage) (any, *fxdist.Error) {
	return f(ctx, t, params)
}

// MethodRepository is the gate's method registry: name → handler, in
// the style of JSON-RPC method repositories (register at startup, look
// up per request under a read lock).
type MethodRepository struct {
	mu      sync.RWMutex
	methods map[string]Handler
}

// RegisterMethod adds a method; re-registering a name or registering a
// nil handler is an error.
func (mr *MethodRepository) RegisterMethod(name string, h Handler) error {
	if name == "" || h == nil {
		return fmt.Errorf("gate: method registration needs a name and a handler")
	}
	mr.mu.Lock()
	defer mr.mu.Unlock()
	if mr.methods == nil {
		mr.methods = make(map[string]Handler)
	}
	if _, dup := mr.methods[name]; dup {
		return fmt.Errorf("gate: method %q already registered", name)
	}
	mr.methods[name] = h
	return nil
}

// Lookup resolves a method name (nil when unknown).
func (mr *MethodRepository) Lookup(name string) Handler {
	mr.mu.RLock()
	defer mr.mu.RUnlock()
	return mr.methods[name]
}

// Methods lists the registered method names, sorted.
func (mr *MethodRepository) Methods() []string {
	mr.mu.RLock()
	defer mr.mu.RUnlock()
	names := make([]string, 0, len(mr.methods))
	for name := range mr.methods {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// newMethodRepository registers the fx.* method surface.
func newMethodRepository(g *Gate) *MethodRepository {
	mr := &MethodRepository{}
	must := func(name string, h HandlerFunc) {
		if err := mr.RegisterMethod(name, h); err != nil {
			panic(err)
		}
	}
	must(client.MethodRetrieve, g.handleRetrieve)
	must(client.MethodRetrieveBatch, g.handleRetrieveBatch)
	must(client.MethodExplain, g.handleExplain)
	must(client.MethodHealth, g.handleHealth)
	return mr
}

// answer is an fx.retrieve result: the engine's result and the size
// of the dispatch it rode in, encoded by the client package's codec.
type answer struct {
	res   fxdist.RetrieveResult
	batch int
}

func (a *answer) appendJSON(dst []byte) []byte {
	return client.AppendRetrieveResult(dst, a.res, a.batch)
}

// sizeHint is a close upper bound for an answer whose values need no
// escaping; one that needs more grows its slab like any append.
func (a *answer) sizeHint() int {
	n := 160 + 21*len(a.res.DeviceBuckets)
	for _, rec := range a.res.Records {
		n += 3
		for _, v := range rec {
			n += len(v) + 3
		}
	}
	return n
}

// batchAnswer is an fx.retrieveBatch result: per query an answer or an
// error, in the shape of client.BatchResult.
type batchAnswer []batchItem

type batchItem struct {
	answer
	err *client.ErrorObject
}

func (b batchAnswer) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"api_version":"`+client.APIVersion+`","items":[`...)
	for i := range b {
		if i > 0 {
			dst = append(dst, ',')
		}
		if b[i].err == nil {
			dst = append(dst, `{"result":`...)
			dst = b[i].appendJSON(dst)
		} else {
			dst = appendError(append(dst, `{"error":`...), b[i].err)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

func (b batchAnswer) sizeHint() int {
	n := 64
	for i := range b {
		n += 256
		if b[i].err == nil {
			n += b[i].sizeHint()
		}
	}
	return n
}

func (g *Gate) handleRetrieve(ctx context.Context, t *tenant, params json.RawMessage) (any, *fxdist.Error) {
	var p client.RetrieveParams
	if err := json.Unmarshal(params, &p); err != nil {
		return nil, fxdist.NewError(fxdist.ErrCodeInvalidQuery, "malformed params: "+err.Error())
	}
	pm, e := g.spec(p.Query)
	if e != nil {
		return nil, e
	}
	res, batch, err := g.retrieve(ctx, t, pm)
	if err != nil {
		return nil, fxdist.Classify(err)
	}
	return &answer{res, batch}, nil
}

func (g *Gate) handleRetrieveBatch(ctx context.Context, t *tenant, params json.RawMessage) (any, *fxdist.Error) {
	var p client.BatchParams
	if err := json.Unmarshal(params, &p); err != nil {
		return nil, fxdist.NewError(fxdist.ErrCodeInvalidQuery, "malformed params: "+err.Error())
	}
	if len(p.Queries) == 0 {
		return nil, fxdist.NewError(fxdist.ErrCodeInvalidQuery, "empty batch")
	}
	items := make(batchAnswer, len(p.Queries))
	pms := make([]fxdist.PartialMatch, 0, len(p.Queries))
	idx := make([]int, 0, len(p.Queries))
	for i, q := range p.Queries {
		pm, e := g.spec(q)
		if e != nil {
			items[i].err = client.FromError(e)
			continue
		}
		pms = append(pms, pm)
		idx = append(idx, i)
	}
	if len(pms) > 0 {
		results, errs := g.retrieveBatch(ctx, t, pms)
		for j, i := range idx {
			if errs[j] != nil {
				items[i].err = client.FromError(fxdist.Classify(errs[j]))
				continue
			}
			items[i].answer = answer{results[j], 1}
		}
	}
	return items, nil
}

func (g *Gate) handleExplain(ctx context.Context, t *tenant, params json.RawMessage) (any, *fxdist.Error) {
	var p client.RetrieveParams
	if err := json.Unmarshal(params, &p); err != nil {
		return nil, fxdist.NewError(fxdist.ErrCodeInvalidQuery, "malformed params: "+err.Error())
	}
	pm, e := g.spec(p.Query)
	if e != nil {
		return nil, e
	}
	q, err := g.cfg.File.BucketQuery(pm)
	if err != nil {
		return nil, fxdist.NewError(fxdist.ErrCodeInvalidQuery, err.Error())
	}
	m := g.cfg.Cluster.M()
	rq := 1
	sizes := g.cfg.File.Sizes()
	for i, v := range pm {
		if v == nil {
			rq *= sizes[i]
		}
	}
	out := &client.ExplainResult{
		APIVersion: client.APIVersion,
		Shape:      q.Shape(),
		RQ:         rq,
		Bound:      audit.Bound(rq, m),
		M:          m,
	}
	if g.cfg.Allocator != nil {
		out.DeviceLoads = fxdist.Loads(g.cfg.Allocator, q)
	}
	for _, plan := range g.cfg.Cluster.PlanCache().Plans {
		if plan.Shape == out.Shape {
			out.PlanCached = true
			break
		}
	}
	return out, nil
}

func (g *Gate) handleHealth(ctx context.Context, t *tenant, params json.RawMessage) (any, *fxdist.Error) {
	return &client.HealthResult{
		APIVersion:    client.APIVersion,
		Status:        "ok",
		Backend:       g.cfg.Cluster.Kind(),
		M:             g.cfg.Cluster.M(),
		Fields:        append([]string(nil), g.cfg.File.Schema().Fields...),
		UptimeSeconds: time.Since(g.start).Seconds(),
	}, nil
}
