package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
)

// Endpoint is one debug path a handler mounts: the pattern, the
// one-line description its /debug/ index shows, and what serves it.
// Each owner of a view exports its own (a cluster's Instruments, the plan
// cache, the gate, ...) and the handler of whoever owns them mounts
// exactly those.
type Endpoint struct {
	Path    string       `json:"path"`
	Desc    string       `json:"desc"`
	Handler http.Handler `json:"-"`
}

// MetricsEndpoint serves /metrics: the Prometheus text exposition of
// each registry regs returns, read at request time and rendered in
// order (?exemplars=1 appends trace-linked exemplars). Registries
// rendered together must not share a family.
func MetricsEndpoint(regs ...func() *Registry) Endpoint {
	return Endpoint{"/metrics", "Prometheus text exposition of every metric (?exemplars=1 appends trace-linked exemplars)",
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			exemplars := req.URL.Query().Get("exemplars") == "1"
			for _, reg := range regs {
				if reg().writeProm(w, exemplars) != nil {
					return // client gone
				}
			}
		})}
}

// TracesEndpoint serves /debug/traces: the recent spans of the tracer t
// returns, read at request time (?n=K, default 32; ?tree=1 stitches
// parent→child span trees; ?retained=1 lists tail-sampled kept trees);
// ?format=text prints one line per span, a child indented under its parent.
func TracesEndpoint(t func() *Tracer) Endpoint {
	return Endpoint{"/debug/traces", "recent query spans (?n=K; ?tree=1 stitches parent→child; ?retained=1 lists tail-sampled kept trees)",
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			q := req.URL.Query()
			n := 32
			if v, err := strconv.Atoi(q.Get("n")); err == nil {
				n = v
			}
			DebugEndpoint(func() (any, error) {
				switch tr := t(); {
				case q.Get("retained") == "1":
					return tr.Retained(n), nil
				case q.Get("tree") == "1":
					return tr.Trees(n), nil
				default:
					return tr.Recent(n), nil
				}
			}, writeSpans).ServeHTTP(w, req)
		})}
}

// WriteSpanTree prints t one line per span, each child indented two
// spaces under its parent (/debug/traces' text form).
func WriteSpanTree(w io.Writer, t SpanTree, indent string) {
	fmt.Fprintf(w, "%s%s trace=%d span=%d parent=%d request=%d duration=%v done=%v events=%d\n",
		indent, t.Name, t.TraceID, t.ID, t.Parent, t.RequestID, t.Duration, t.Done, len(t.Events))
	for _, c := range t.Children {
		WriteSpanTree(w, c, indent+"  ")
	}
}

func writeSpans(w io.Writer, doc any) {
	switch doc := doc.(type) {
	case []SpanSnapshot:
		for _, s := range doc {
			WriteSpanTree(w, SpanTree{SpanSnapshot: s}, "")
		}
	case []SpanTree:
		for _, t := range doc {
			WriteSpanTree(w, t, "")
		}
	case []RetainedTrace:
		for _, r := range doc {
			WriteSpanTree(w, r.Root, "")
		}
	}
}

// HandlerFor builds an observability handler over exactly the endpoints
// given — /metrics and /debug/traces among them when the owner passes
// its MetricsEndpoint and TracesEndpoint — plus:
//
//	/debug/pprof/       net/http/pprof runtime profiles
//	/debug/             index of every path the handler mounts
func HandlerFor(endpoints ...Endpoint) http.Handler {
	mux := http.NewServeMux()
	var index []Endpoint
	mount := func(ep Endpoint) {
		mux.Handle(ep.Path, ep.Handler)
		index = append(index, ep)
	}
	mount(Endpoint{"/debug/pprof/", "net/http/pprof runtime profiles (cpu, heap, goroutine, ...)", http.HandlerFunc(pprof.Index)})
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, ep := range endpoints {
		mount(ep)
	}
	index = append(index, Endpoint{Path: "/debug/", Desc: "this index: every debug endpoint with a one-line description"})
	sort.Slice(index, func(i, j int) bool { return index[i].Path < index[j].Path })
	// Index: exact /debug (and /debug/) only; this pattern also catches
	// unmounted /debug/* paths, which 404 with a pointer to the index.
	doc := DebugEndpoint(
		func() (any, error) { return index, nil },
		func(w io.Writer, doc any) {
			for _, e := range doc.([]Endpoint) {
				fmt.Fprintf(w, "%-22s %s\n", e.Path, e.Desc)
			}
		},
	)
	mux.HandleFunc("/debug/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/debug/" && req.URL.Path != "/debug" {
			http.Error(w, "unknown debug endpoint (see /debug/ for the index)", http.StatusNotFound)
			return
		}
		doc.ServeHTTP(w, req)
	})
	return mux
}

// ListenAndServe serves h on addr (e.g. "127.0.0.1:9100"; ":0" picks a
// free port) and returns the bound address and a shutdown function.
func ListenAndServe(addr string, h http.Handler) (string, func(), error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(l) //nolint:errcheck // ends on Close
	return l.Addr().String(), func() { srv.Close() }, nil
}
