package gate

import (
	"context"
	"time"

	"fxdist"
	"fxdist/client"
	"fxdist/internal/audit"
)

// methods is the method registry, in the order of a tenant's request
// counters.
var methods = [...]string{client.MethodRetrieve, client.MethodRetrieveBatch, client.MethodExplain, client.MethodHealth}

// call runs one admitted frame of a known method on the params decoded
// into rq. The returned value becomes the JSON-RPC result — a wireResult
// encodes itself, anything else goes through json.Marshal; a non-nil
// *fxdist.Error becomes the JSON-RPC error object (and, for
// rate/overload codes, the HTTP status).
func (g *Gate) call(ctx context.Context, t *tenant, method string, rq *request) (any, *fxdist.Error) {
	switch method {
	case client.MethodRetrieve:
		return g.handleRetrieve(ctx, t, rq)
	case client.MethodRetrieveBatch:
		return g.handleRetrieveBatch(ctx, t, rq)
	case client.MethodExplain:
		return g.handleExplain(rq.params.Query)
	default: // client.MethodHealth: serveFrame let no other name through
		return g.handleHealth(), nil
	}
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

// handleRetrieve gives back a result that comes with an error (degraded).
func (g *Gate) handleRetrieve(ctx context.Context, t *tenant, rq *request) (any, *fxdist.Error) {
	pm, e := g.spec(rq.params.Query, rq.spec)
	if e != nil {
		return nil, e
	}
	rq.spec = pm
	res, batch, err := g.retrieve(ctx, t, pm, rq)
	if err != nil {
		res.Release()
		return nil, fxdist.Classify(err)
	}
	rq.ans = answer{res, batch}
	return &rq.ans, nil
}

func (g *Gate) handleRetrieveBatch(ctx context.Context, t *tenant, rq *request) (any, *fxdist.Error) {
	if len(rq.params.Queries) == 0 {
		return nil, fxdist.NewError(fxdist.ErrCodeInvalidQuery, "empty batch")
	}
	items := make(batchAnswer, len(rq.params.Queries))
	pms := make([]fxdist.PartialMatch, 0, len(items))
	idx := make([]int, 0, len(items))
	for i, q := range rq.params.Queries {
		pm, e := g.spec(q, nil)
		if e != nil {
			items[i].err = client.FromError(e)
			continue
		}
		pms = append(pms, pm)
		idx = append(idx, i)
	}
	if len(pms) > 0 {
		results, errs := g.retrieveBatch(ctx, t, pms, rq)
		for j, i := range idx {
			if errs[j] != nil {
				results[j].Release()
				items[i].err = client.FromError(fxdist.Classify(errs[j]))
				continue
			}
			items[i].answer = answer{results[j], 1}
		}
	}
	return items, nil
}

func (g *Gate) handleExplain(query [][2]string) (any, *fxdist.Error) {
	pm, e := g.spec(query, nil)
	if e != nil {
		return nil, e
	}
	q, err := g.cfg.File.BucketQuery(pm)
	if err != nil {
		return nil, fxdist.NewError(fxdist.ErrCodeInvalidQuery, err.Error())
	}
	m := g.cfg.Cluster.M()
	rq := q.NumQualified(fxdist.FileSystem{Sizes: g.cfg.File.Sizes(), M: m})
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

func (g *Gate) handleHealth() *client.HealthResult {
	return &client.HealthResult{
		APIVersion:    client.APIVersion,
		Status:        "ok",
		Backend:       g.cfg.Cluster.Kind(),
		M:             g.cfg.Cluster.M(),
		Fields:        append([]string(nil), g.cfg.File.Schema().Fields...),
		UptimeSeconds: time.Since(g.start).Seconds(),
	}
}
