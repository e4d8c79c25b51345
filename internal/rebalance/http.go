package rebalance

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"fxdist/internal/obs"
	"fxdist/internal/telemetry"
)

// The /debug/rescale endpoint: GET reports every registered driver's
// status plus the recent migration event ring; POST steers a run
// (action=pause|resume|abort, name=<driver> when several are live).
// fxnode mounts it with the rest of the debug server; fxtop reads it
// for the migration-progress row.

var (
	driversMu sync.Mutex
	drivers   = map[string]*Driver{}
	httpOnce  sync.Once
)

// RegisterDriver publishes a driver on /debug/rescale under name,
// replacing any previous holder of the name. The first registration
// mounts the endpoint.
func RegisterDriver(name string, d *Driver) {
	httpOnce.Do(func() {
		obs.RegisterDebugHandler("/debug/rescale", "live rescale migration status and control", http.HandlerFunc(serveRescale))
	})
	driversMu.Lock()
	defer driversMu.Unlock()
	drivers[name] = d
}

// UnregisterDriver removes a driver from /debug/rescale.
func UnregisterDriver(name string) {
	driversMu.Lock()
	defer driversMu.Unlock()
	delete(drivers, name)
}

// lookupDriver resolves name, defaulting to the sole registered driver.
func lookupDriver(name string) (*Driver, error) {
	driversMu.Lock()
	defer driversMu.Unlock()
	if name != "" {
		d, ok := drivers[name]
		if !ok {
			return nil, fmt.Errorf("no rescale named %q", name)
		}
		return d, nil
	}
	if len(drivers) == 1 {
		for _, d := range drivers {
			return d, nil
		}
	}
	return nil, fmt.Errorf("%d rescales registered; pass name=", len(drivers))
}

// RescaleDebugState is the /debug/rescale GET document.
type RescaleDebugState struct {
	Rescales map[string]DriverStatus  `json:"rescales"`
	Events   []telemetry.RescaleEvent `json:"events"`
}

// DebugState snapshots what /debug/rescale serves — also used directly
// by in-process callers (fxnode's status verb under test).
func DebugState() RescaleDebugState {
	driversMu.Lock()
	st := RescaleDebugState{Rescales: make(map[string]DriverStatus, len(drivers))}
	for name, d := range drivers {
		st.Rescales[name] = d.Status()
	}
	driversMu.Unlock()
	st.Events = telemetry.RescaleEvents()
	return st
}

func serveRescale(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(DebugState()) //nolint:errcheck // best-effort debug output
	case http.MethodPost:
		d, err := lookupDriver(r.FormValue("name"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		action := r.FormValue("action")
		switch action {
		case "pause":
			d.Pause()
		case "resume":
			d.Resume()
		case "abort":
			d.Abort()
		default:
			http.Error(w, fmt.Sprintf("unknown action %q (want pause|resume|abort)", action), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "%s: ok\n", action)
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
	}
}
