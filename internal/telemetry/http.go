package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"fxdist/internal/obs"
)

// backendEvents is one backend's slice of the /debug/events document.
type backendEvents struct {
	Stats  LogStats `json:"stats"`
	Events []Event  `json:"events"`
}

func eventsDoc(backend string, n int) map[string]backendEvents {
	doc := make(map[string]backendEvents)
	for _, in := range All() {
		if backend != "" && in.Backend != backend {
			continue
		}
		doc[in.Backend] = backendEvents{Stats: in.LogStats(), Events: in.Events(n)}
	}
	return doc
}

func writeEventsText(w io.Writer, doc map[string]backendEvents) {
	backends := make([]string, 0, len(doc))
	for b := range doc {
		backends = append(backends, b)
	}
	sort.Strings(backends)
	if len(backends) == 0 {
		fmt.Fprintln(w, "no events recorded")
		return
	}
	for _, b := range backends {
		be := doc[b]
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
func eventsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		backend := q.Get("backend")
		n := 256
		if s := q.Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		if q.Get("format") == "ndjson" {
			w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
			enc := json.NewEncoder(w)
			for _, be := range eventsDoc(backend, n) {
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
			var feeds []<-chan Event
			var cancels []func()
			for _, in := range All() {
				if backend != "" && in.Backend != backend {
					continue
				}
				ch, cancel := in.Subscribe()
				feeds = append(feeds, ch)
				cancels = append(cancels, cancel)
			}
			defer func() {
				for _, c := range cancels {
					c()
				}
			}()
			merged := make(chan Event, 64)
			for _, ch := range feeds {
				go func(ch <-chan Event) {
					for ev := range ch {
						select {
						case merged <- ev:
						case <-r.Context().Done():
							return
						}
					}
				}(ch)
			}
			for {
				select {
				case ev := <-merged:
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
		}
		// The standard endpoint shape, with this request's filters applied.
		obs.DebugEndpoint(
			func() (any, error) { return eventsDoc(backend, n), nil },
			func(w io.Writer, doc any) { writeEventsText(w, doc.(map[string]backendEvents)) },
		).ServeHTTP(w, r)
	})
}

func writeClusterText(w io.Writer, reports map[string]ClusterReport) {
	names := make([]string, 0, len(reports))
	for n := range reports {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(w, "no fleets registered (start a netdist coordinator with stats pulling)")
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

func init() {
	obs.RegisterDebugHandler("/debug/events",
		"wide-event query log: one sampled event per retrieval (?backend=, ?n=, ?format=ndjson, &follow=1)",
		eventsHandler())
	obs.RegisterDebugHandler("/debug/cluster",
		"federated fleet view: per-node liveness/lag, merged counters+histograms, worst discrepancy and SLO burn",
		obs.DebugEndpoint(
			func() (any, error) { return FleetReports(), nil },
			func(w io.Writer, doc any) { writeClusterText(w, doc.(map[string]ClusterReport)) },
		))
}
