package gate

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"fxdist/internal/obs"
)

// TenantConfig declares one tenant of the gateway: its API key and the
// admission limits the front door enforces for it. This is the JSON
// element of the -tenants config file (an array of these).
type TenantConfig struct {
	// Name labels the tenant everywhere: wide events (tenant dimension),
	// /debug/tenants rows, metrics.
	Name string `json:"name"`
	// APIKey authenticates the tenant (Authorization: Bearer <key>).
	APIKey string `json:"api_key"`
	// RatePerSec is the tenant's sustained request rate; 0 means
	// unlimited. One fx.retrieve costs one token, one fx.retrieveBatch
	// costs one token per query.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst bounds the token bucket (default: max(1, ceil(RatePerSec))).
	Burst int `json:"burst,omitempty"`
	// MaxInFlight bounds the tenant's concurrent requests; 0 means
	// unlimited.
	MaxInFlight int `json:"max_in_flight,omitempty"`
}

// LoadTenants reads a tenants config file: a JSON array of
// TenantConfig.
func LoadTenants(path string) ([]TenantConfig, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfgs []TenantConfig
	if err := json.Unmarshal(b, &cfgs); err != nil {
		return nil, fmt.Errorf("gate: parse tenants config %s: %w", path, err)
	}
	return cfgs, nil
}

// shapeStats is one tenant's per-query-shape audit slice.
type shapeStats struct {
	Queries    uint64        `json:"queries"`
	Errors     uint64        `json:"errors"`
	SumLatency time.Duration `json:"-"`
	MaxLatency time.Duration `json:"max_latency_ns"`
}

// tenant is the runtime state behind one TenantConfig.
type tenant struct {
	cfg TenantConfig

	mu       sync.Mutex
	tokens   float64
	lastFill time.Time

	inFlight int

	errors    uint64
	coalesced uint64 // queries served through a coalesced batch
	shapes    map[string]*shapeStats

	series tenantSeries
}

func newTenant(cfg TenantConfig) *tenant {
	burst := cfg.Burst
	if burst <= 0 {
		burst = int(cfg.RatePerSec + 0.999)
		if burst < 1 {
			burst = 1
		}
	}
	cfg.Burst = burst
	return &tenant{cfg: cfg, tokens: float64(burst), shapes: make(map[string]*shapeStats)}
}

// take charges n tokens from the bucket, reporting whether the request
// is admitted and — when it is not — how long until n tokens will have
// refilled (the Retry-After hint). Unlimited tenants always admit.
func (t *tenant) take(now time.Time, n float64) (ok bool, retryAfter time.Duration) {
	if t.cfg.RatePerSec <= 0 {
		return true, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.lastFill.IsZero() {
		t.tokens += now.Sub(t.lastFill).Seconds() * t.cfg.RatePerSec
		if max := float64(t.cfg.Burst); t.tokens > max {
			t.tokens = max
		}
	}
	t.lastFill = now
	if t.tokens >= n {
		t.tokens -= n
		return true, 0
	}
	need := n - t.tokens
	return false, time.Duration(need / t.cfg.RatePerSec * float64(time.Second))
}

// acquire claims an in-flight slot; release undoes it.
func (t *tenant) acquire() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.MaxInFlight > 0 && t.inFlight >= t.cfg.MaxInFlight {
		return false
	}
	t.inFlight++
	return true
}

func (t *tenant) release() {
	t.mu.Lock()
	t.inFlight--
	t.mu.Unlock()
}

// observe records one finished query for the tenant's audit slice.
func (t *tenant) observe(shape string, elapsed time.Duration, coalesced bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ss := t.shapes[shape]
	if ss == nil {
		ss = &shapeStats{}
		t.shapes[shape] = ss
	}
	ss.Queries++
	ss.SumLatency += elapsed
	if elapsed > ss.MaxLatency {
		ss.MaxLatency = elapsed
	}
	if err != nil {
		ss.Errors++
		t.errors++
	}
	if coalesced {
		t.coalesced++
	}
}

// reject counts one of the tenant's requests rejected for the reason,
// in the gate's registry r.
func (t *tenant) reject(r *obs.Registry, reason int) {
	rejected(r, &t.series.rejected[reason], t.cfg.Name, reasons[reason])
}

// tenantSet is the gate's tenant registry, keyed by API key.
type tenantSet struct {
	mu      sync.RWMutex
	byKey   map[string]*tenant
	byName  map[string]*tenant
	ordered []*tenant
}

func newTenantSet(cfgs []TenantConfig) (*tenantSet, error) {
	s := &tenantSet{byKey: make(map[string]*tenant), byName: make(map[string]*tenant)}
	for _, cfg := range cfgs {
		if cfg.Name == "" || cfg.APIKey == "" {
			return nil, errors.New("gate: every tenant needs a name and an api_key")
		}
		if s.byName[cfg.Name] != nil {
			return nil, fmt.Errorf("gate: duplicate tenant name %q", cfg.Name)
		}
		if s.byKey[cfg.APIKey] != nil {
			return nil, fmt.Errorf("gate: duplicate api key (tenant %q)", cfg.Name)
		}
		t := newTenant(cfg)
		s.byKey[cfg.APIKey] = t
		s.byName[cfg.Name] = t
		s.ordered = append(s.ordered, t)
	}
	return s, nil
}

// authenticate resolves an API key to its tenant in constant time per
// candidate key.
func (s *tenantSet) authenticate(key string) *tenant {
	if key == "" {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.byKey[key]
	if t == nil {
		return nil
	}
	if subtle.ConstantTimeCompare([]byte(key), []byte(t.cfg.APIKey)) != 1 {
		return nil
	}
	return t
}

func (s *tenantSet) all() []*tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*tenant(nil), s.ordered...)
}
