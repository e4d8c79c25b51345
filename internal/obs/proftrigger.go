package obs

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Triggered profiling: when a shape's SLO burn rate or a latency
// threshold trips, capture a bounded pprof CPU+heap profile pair into a
// spool directory. Captures are rate-limited (one at a time, a minimum
// interval between captures, a cap on total captures) so a sustained
// incident cannot fill the disk, and the spool is browsable at
// /debug/profiles.

// ProfileTriggerConfig bounds the capture behaviour.
type ProfileTriggerConfig struct {
	// Dir is the spool directory for profile files (created if absent).
	Dir string
	// CPUDuration is how long each CPU profile runs (default 2s).
	CPUDuration time.Duration
	// MinInterval is the minimum time between captures (default 1m).
	MinInterval time.Duration
	// MaxCaptures caps the number of captures over the trigger's
	// lifetime (default 16).
	MaxCaptures int
	// BurnThreshold trips a capture when a shape's SLO burn rate
	// reaches it (<= 0 disables burn triggering).
	BurnThreshold float64
	// LatencyThreshold trips a capture when a single query's latency
	// reaches it (<= 0 disables latency triggering).
	LatencyThreshold time.Duration
}

// ProfileCapture describes one completed (or failed) capture.
type ProfileCapture struct {
	At       time.Time     `json:"at"`
	Backend  string        `json:"backend"`
	Shape    string        `json:"shape"`
	Reason   string        `json:"reason"`
	CPUFile  string        `json:"cpu_file,omitempty"`
	HeapFile string        `json:"heap_file,omitempty"`
	Elapsed  time.Duration `json:"elapsed_ns,omitempty"`
	Burn     float64       `json:"burn,omitempty"`
	Err      string        `json:"err,omitempty"`
}

// ProfileTrigger watches per-query signals and spools pprof captures.
type ProfileTrigger struct {
	cfg ProfileTriggerConfig

	mu        sync.Mutex
	last      time.Time
	captures  []ProfileCapture
	total     int
	capturing bool
	wg        sync.WaitGroup
	seq       int
}

// NewProfileTrigger returns a trigger with defaults applied.
func NewProfileTrigger(cfg ProfileTriggerConfig) *ProfileTrigger {
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = 2 * time.Second
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = time.Minute
	}
	if cfg.MaxCaptures <= 0 {
		cfg.MaxCaptures = 16
	}
	if cfg.Dir == "" {
		cfg.Dir = filepath.Join(os.TempDir(), "fxdist-profiles")
	}
	return &ProfileTrigger{cfg: cfg}
}

// Config returns the trigger's effective (defaulted) configuration.
func (t *ProfileTrigger) Config() ProfileTriggerConfig { return t.cfg }

// Consider evaluates one query's signals and starts an async capture if
// a threshold trips and the rate limiter admits it. It never blocks the
// query path.
func (t *ProfileTrigger) Consider(backend, shape string, elapsed time.Duration, burn float64) {
	if t == nil {
		return
	}
	reason := ""
	switch {
	case t.cfg.LatencyThreshold > 0 && elapsed >= t.cfg.LatencyThreshold:
		reason = fmt.Sprintf("latency %v >= %v", elapsed, t.cfg.LatencyThreshold)
	case t.cfg.BurnThreshold > 0 && burn >= t.cfg.BurnThreshold:
		reason = fmt.Sprintf("slo burn %.2f >= %.2f", burn, t.cfg.BurnThreshold)
	default:
		return
	}
	t.mu.Lock()
	now := time.Now()
	if t.capturing || t.total >= t.cfg.MaxCaptures ||
		(!t.last.IsZero() && now.Sub(t.last) < t.cfg.MinInterval) {
		t.mu.Unlock()
		return
	}
	t.capturing = true
	t.total++
	t.last = now
	t.seq++
	seq := t.seq
	t.wg.Add(1)
	t.mu.Unlock()

	go t.capture(ProfileCapture{
		At: now, Backend: backend, Shape: shape, Reason: reason,
		Elapsed: elapsed, Burn: burn,
	}, seq)
}

func (t *ProfileTrigger) capture(c ProfileCapture, seq int) {
	defer func() {
		t.mu.Lock()
		t.capturing = false
		t.captures = append(t.captures, c)
		t.mu.Unlock()
		t.wg.Done()
	}()
	if err := os.MkdirAll(t.cfg.Dir, 0o755); err != nil {
		c.Err = err.Error()
		return
	}
	stamp := fmt.Sprintf("%s-%03d", c.At.Format("20060102-150405"), seq)
	cpuName := "cpu-" + stamp + ".pprof"
	f, err := os.Create(filepath.Join(t.cfg.Dir, cpuName))
	if err != nil {
		c.Err = err.Error()
		return
	}
	// StartCPUProfile fails when another CPU profile is running (e.g. a
	// live /debug/pprof/profile scrape); skip the CPU half, still take
	// the heap profile.
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(filepath.Join(t.cfg.Dir, cpuName))
		c.Err = err.Error()
	} else {
		time.Sleep(t.cfg.CPUDuration)
		pprof.StopCPUProfile()
		f.Close()
		c.CPUFile = cpuName
	}
	heapName := "heap-" + stamp + ".pprof"
	hf, err := os.Create(filepath.Join(t.cfg.Dir, heapName))
	if err != nil {
		if c.Err == "" {
			c.Err = err.Error()
		}
		return
	}
	if err := pprof.WriteHeapProfile(hf); err != nil && c.Err == "" {
		c.Err = err.Error()
	} else {
		c.HeapFile = heapName
	}
	hf.Close()
}

// Wait blocks until any in-flight capture completes (for tests and
// orderly shutdown).
func (t *ProfileTrigger) Wait() {
	if t == nil {
		return
	}
	t.wg.Wait()
}

// Captures returns completed captures, most recent first.
func (t *ProfileTrigger) Captures() []ProfileCapture {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]ProfileCapture, len(t.captures))
	copy(out, t.captures)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].At.After(out[j].At) })
	return out
}

// Process-wide trigger (atomic so the query path reads it without a
// lock; nil means triggered profiling is off).
var activeTrigger atomic.Pointer[ProfileTrigger]

// SetProfileTrigger installs (or, with nil, removes) the process-wide
// trigger and returns the previous one.
func SetProfileTrigger(t *ProfileTrigger) *ProfileTrigger {
	return activeTrigger.Swap(t)
}

// ActiveProfileTrigger returns the installed trigger, nil when off.
func ActiveProfileTrigger() *ProfileTrigger { return activeTrigger.Load() }

// ConsiderProfile feeds one query's signals to the installed trigger;
// a no-op when triggered profiling is off.
func ConsiderProfile(backend, shape string, elapsed time.Duration, burn float64) {
	if t := activeTrigger.Load(); t != nil {
		t.Consider(backend, shape, elapsed, burn)
	}
}

// profilesDoc is the /debug/profiles document.
type profilesDoc struct {
	Enabled  bool             `json:"enabled"`
	Dir      string           `json:"dir,omitempty"`
	Captures []ProfileCapture `json:"captures"`
}

// ProfileEndpoints serve the process-wide trigger: /debug/profiles (its
// status and captures) and /debug/profiles/<file> (one spooled capture).
func ProfileEndpoints() []Endpoint {
	return []Endpoint{{"/debug/profiles", "threshold-triggered pprof captures (SLO burn / latency): status and spooled files", DebugEndpoint(
		func() (any, error) {
			t := ActiveProfileTrigger()
			d := profilesDoc{Enabled: t != nil}
			if t != nil {
				d.Dir = t.cfg.Dir
				d.Captures = t.Captures()
			}
			return d, nil
		},
		func(w io.Writer, doc any) {
			d := doc.(profilesDoc)
			if !d.Enabled {
				fmt.Fprintln(w, "triggered profiling off")
				return
			}
			fmt.Fprintf(w, "spool dir %s (%d captures)\n", d.Dir, len(d.Captures))
			for _, c := range d.Captures {
				fmt.Fprintf(w, "  %s %s/%s %s cpu=%s heap=%s", c.At.Format(time.RFC3339), c.Backend, c.Shape, c.Reason, c.CPUFile, c.HeapFile)
				if c.Err != "" {
					fmt.Fprintf(w, " err=%s", c.Err)
				}
				fmt.Fprintln(w)
			}
		},
	)}, {"/debug/profiles/", "download one spooled pprof capture by name", http.HandlerFunc(serveProfileFile)}}
}

// serveProfileFile serves a single spooled profile by base name
// (/debug/profiles/<file>); names are sanitized against traversal.
func serveProfileFile(w http.ResponseWriter, r *http.Request) {
	t := ActiveProfileTrigger()
	if t == nil {
		http.Error(w, "triggered profiling off", http.StatusNotFound)
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/debug/profiles/")
	if name == "" || name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		http.Error(w, "bad profile name", http.StatusBadRequest)
		return
	}
	f, err := os.Open(filepath.Join(t.cfg.Dir, name))
	if err != nil {
		http.Error(w, "no such profile", http.StatusNotFound)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	io.Copy(w, f) //nolint:errcheck // client gone
}
