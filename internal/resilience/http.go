package resilience

import (
	"fmt"
	"io"

	"fxdist/internal/obs"
	"fxdist/internal/retry"
)

// Snapshot is the /debug/resilience document of one cluster: its retry
// controller (breaker states, retry/hedge/partial counters) and its fault
// injector (schedules, counters), each a list of at most one so readers
// of the JSON shape (fxtop) stay as they are.
type Snapshot struct {
	Retry     []retry.Report `json:"retry"`
	Injectors []Report       `json:"injectors"`
}

// SnapshotOf reports c and in, either of which may be nil.
func SnapshotOf(c *retry.Controller, in *Injector) Snapshot {
	s := Snapshot{Retry: []retry.Report{}, Injectors: []Report{}}
	if c != nil {
		s.Retry = append(s.Retry, c.Report())
	}
	if in != nil {
		s.Injectors = append(s.Injectors, in.Report())
	}
	return s
}

// Endpoint serves /debug/resilience from the snapshot snap takes at
// request time: JSON by default, a human-readable summary with
// ?format=text.
func Endpoint(snap func() Snapshot) obs.Endpoint {
	return obs.Endpoint{Path: "/debug/resilience", Desc: "retry budget, circuit breaker states, hedging and fault-injector counters",
		Handler: obs.DebugEndpoint(
			func() (any, error) { return snap(), nil },
			func(w io.Writer, doc any) { writeText(w, doc.(Snapshot)) },
		)}
}

func writeText(w io.Writer, s Snapshot) {
	if len(s.Retry) == 0 && len(s.Injectors) == 0 {
		fmt.Fprintln(w, "no retry controller or fault injector")
		return
	}
	for _, r := range s.Retry {
		fmt.Fprintf(w, "retry %s max-attempts=%d retries=%d rejected=%d hedges=%d hedge-wins=%d partials=%d\n",
			r.Backend, r.MaxAttempts, r.Retries, r.Rejected, r.Hedges, r.HedgeWins, r.Partials)
		for _, b := range r.Breakers {
			fmt.Fprintf(w, "  breaker %+v\n", b)
		}
	}
	for _, in := range s.Injectors {
		fmt.Fprintf(w, "injector %s seed=%d\n", in.Name, in.Seed)
		for _, d := range in.Devices {
			fmt.Fprintf(w, "  device %d ops=%d injected=%d delayed=%d schedule=%+v\n",
				d.Device, d.Ops, d.Injected, d.Delayed, d.Schedule)
		}
	}
}
