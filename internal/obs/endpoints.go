package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// backendEvents is one backend's slice of the /debug/events document.
type backendEvents struct {
	Stats  LogStats `json:"stats"`
	Events []Event  `json:"events"`
}

// eventsDoc is the /debug/events document, keyed by backend: in's events,
// or none when backend names another.
func eventsDoc(in *Instruments, backend string, n int) map[string]backendEvents {
	doc := make(map[string]backendEvents, 1)
	if backend == "" || backend == in.Backend {
		doc[in.Backend] = backendEvents{Stats: in.LogStats(), Events: in.Events(n)}
	}
	return doc
}

// QueryEndpoints are a cluster's per-query views: /debug/optimality,
// /debug/hotpath, /debug/flight, /debug/events and /debug/traces, each
// read from the bundle in returns at request time (a cluster's bundle
// changes at a rescale's cutover). Each document is a list (or a map
// keyed by backend) holding this one bundle, so that readers of its JSON
// shape stay as they are.
func QueryEndpoints(in func() *Instruments) []Endpoint {
	return []Endpoint{
		TracesEndpoint(func() *Tracer { return in().Tracer }),
		{Path: "/debug/optimality", Desc: "strict-bound audit per shape: violations, deviation, SLO burn", Handler: DebugEndpoint(
			func() (any, error) { return []BackendAudit{in().AuditReport()}, nil },
			func(w io.Writer, doc any) { writeAuditReport(w, doc.([]BackendAudit)) },
		)},
		{Path: "/debug/hotpath", Desc: "per-shape stage cost aggregates: plan/fanout/merge/audit wall, bytes", Handler: DebugEndpoint(
			func() (any, error) { r := in().CostReport(); return listOf(r, len(r.Shapes)), nil },
			func(w io.Writer, doc any) { writeCostReport(w, doc.([]BackendCost)) },
		)},
		{Path: "/debug/flight", Desc: "slow-query flight recorder: K worst queries per shape with full evidence", Handler: DebugEndpoint(
			func() (any, error) { r := in().FlightReport(); return listOf(r, len(r.Shapes)), nil },
			func(w io.Writer, doc any) { WriteFlightReport(w, doc.([]BackendFlights)) },
		)},
		{Path: "/debug/events", Desc: "wide-event query log: one sampled event per retrieval (?backend=, ?n=, ?format=ndjson, &follow=1)",
			Handler: eventsHandler(in)},
	}
}

// listOf is the document of one backend's report r of n shapes: [r], or
// none (null) when r has no shape.
func listOf[T any](r T, n int) []T {
	if n == 0 {
		return nil
	}
	return []T{r}
}

// FleetEndpoint serves /debug/cluster: the federated fleet view of the
// federator fed returns (nil for a cluster that pulls no stats).
func FleetEndpoint(fed func() *Federator) Endpoint {
	return Endpoint{Path: "/debug/cluster",
		Desc: "federated fleet view: per-node liveness/lag, merged counters+histograms, worst discrepancy and SLO burn",
		Handler: DebugEndpoint(
			func() (any, error) { return fed().Fleets(), nil },
			func(w io.Writer, doc any) { writeClusterText(w, doc.(map[string]ClusterReport)) },
		)}
}

// writeEventsText renders eventsDoc's document: its one backend, or none.
func writeEventsText(w io.Writer, doc map[string]backendEvents) {
	if len(doc) == 0 {
		fmt.Fprintln(w, "no events recorded")
		return
	}
	for b, be := range doc {
		fmt.Fprintf(w, "%s: seen=%d kept=%d (head=%d per shape, then 1 in %d; errors/slow/bound/placement always)\n",
			b, be.Stats.Seen, be.Stats.Kept, be.Stats.HeadPerShape, be.Stats.SampleEvery)
		for _, ev := range be.Events {
			fmt.Fprintf(w, "  %s shape=%s elapsed=%v trace=%d rq=%d bound=%d max=%d keep=%v",
				ev.Time.Format(time.RFC3339Nano), ev.Shape, ev.Elapsed, ev.TraceID, ev.RQ, ev.Bound, ev.MaxDeviceBuckets, ev.Keep)
			if ev.Err != "" {
				fmt.Fprintf(w, " err=%q", ev.Err)
			}
			if ev.Partial {
				fmt.Fprintf(w, " partial coverage=%.2f failed=%v", ev.Coverage, ev.FailedDevices)
			}
			fmt.Fprintln(w)
		}
	}
}

// eventsHandler serves /debug/events. On top of the standard
// ?format=json|text it supports ?format=ndjson (one kept event per
// line, oldest first) and ?follow=1 with ndjson (stream kept events
// live until the client disconnects). ?backend= filters, ?n= bounds
// the dump (default 256).
func eventsHandler(bundle func() *Instruments) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in := bundle()
		q := r.URL.Query()
		backend := q.Get("backend")
		n := 256
		if s := q.Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		if q.Get("format") != "ndjson" {
			// The standard endpoint shape, with this request's filters applied.
			DebugEndpoint(
				func() (any, error) { return eventsDoc(in, backend, n), nil },
				func(w io.Writer, doc any) { writeEventsText(w, doc.(map[string]backendEvents)) },
			).ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		enc := json.NewEncoder(w)
		for _, be := range eventsDoc(in, backend, n) {
			for i := len(be.Events) - 1; i >= 0; i-- { // oldest first
				if enc.Encode(be.Events[i]) != nil {
					return // client gone
				}
			}
		}
		if q.Get("follow") != "1" {
			return
		}
		flusher, _ := w.(http.Flusher)
		if flusher != nil {
			flusher.Flush()
		}
		// One bundle, one feed, read here: nothing outlives the request.
		var feed <-chan Event
		if backend == "" || backend == in.Backend {
			ch, cancel := in.Subscribe()
			defer cancel()
			feed = ch
		}
		for {
			select {
			case ev := <-feed:
				if enc.Encode(ev) != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
			case <-r.Context().Done():
				return
			}
		}
	})
}

func writeClusterText(w io.Writer, reports map[string]ClusterReport) {
	names := make([]string, 0, len(reports))
	for n := range reports {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(w, "no fleet view (a netdist cluster shows one after its first stats pull)")
		return
	}
	for _, name := range names {
		rep := reports[name]
		fmt.Fprintf(w, "fleet %s (generated %s)\n", name, rep.Generated.Format(time.RFC3339))
		fmt.Fprintf(w, "  queries=%d plan-cache-hit=%.1f%% recycle=%.1f%% worst-discrepancy=%.0f (%s %s) worst-burn=%.2f (%s %s)\n",
			rep.Summary.Queries, 100*rep.Summary.PlanCacheHitRate, 100*rep.Summary.MempoolRecycleRate,
			rep.Summary.WorstDiscrepancy, rep.Summary.WorstDiscrepancyNode, rep.Summary.WorstDiscrepancyShape,
			rep.Summary.WorstBurnRate, rep.Summary.WorstBurnNode, rep.Summary.WorstBurnShape)
		for _, n := range rep.Nodes {
			status := "alive"
			if !n.Alive {
				status = "DEAD"
			}
			flag := ""
			if n.Flagged {
				flag = "  FLAGGED: " + n.FlagReason
			}
			fmt.Fprintf(w, "  node %-12s %-5s lag=%.1fs uptime=%.0fs pulls=%d fails=%d errs=%d %s %s%s\n",
				n.Node, status, n.LagSeconds, n.UptimeSeconds, n.Pulls, n.Failures, n.CoordErrors, n.Version, n.GoVersion, flag)
		}
	}
}
