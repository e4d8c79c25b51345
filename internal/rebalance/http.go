package rebalance

import (
	"encoding/json"
	"fmt"
	"net/http"

	"fxdist/internal/obs"
)

// debugState is the /debug/rescale GET document: a cluster's rescale
// under its name (no entry before the first) and the run's recent
// events, oldest first.
type debugState struct {
	Rescales map[string]DriverStatus `json:"rescales"`
	Events   []Event                 `json:"events"`
}

// Endpoint serves /debug/rescale for the driver d returns at request
// time (nil before the cluster's first rescale), listed under name: GET
// reports its status and events, POST steers it
// (action=pause|resume|abort). fxtop reads it for the migration-progress
// row, fxnode rescale -action for its verbs.
func Endpoint(name string, d func() *Driver) obs.Endpoint {
	return obs.Endpoint{Path: "/debug/rescale", Desc: "live rescale migration status and control (POST action=pause|resume|abort)",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			drv := d()
			switch r.Method {
			case http.MethodGet:
				st := debugState{Rescales: map[string]DriverStatus{}, Events: []Event{}}
				if drv != nil {
					st.Rescales[name] = drv.Status()
					st.Events = drv.Events()
				}
				w.Header().Set("Content-Type", "application/json")
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				enc.Encode(st) //nolint:errcheck // best-effort debug output
			case http.MethodPost:
				if drv == nil {
					http.Error(w, "no rescale on this cluster", http.StatusNotFound)
					return
				}
				action := r.FormValue("action")
				switch action {
				case "pause":
					drv.Pause()
				case "resume":
					drv.Resume()
				case "abort":
					drv.Abort()
				default:
					http.Error(w, fmt.Sprintf("unknown action %q (want pause|resume|abort)", action), http.StatusBadRequest)
					return
				}
				fmt.Fprintf(w, "%s: ok\n", action)
			default:
				http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
			}
		})}
}
