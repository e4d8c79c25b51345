// Package resilience is the deterministic, seedable fault injector
// behind the chaos tests and the WithFaultInjector facade option:
// per-device schedules of injected errors, latency, hangs, flapping
// and partitions, applied at the engine Device seam (Wrap) or at the
// netdist coordinator's connection seam (Before, called before each
// round trip). Every random decision comes from a per-device rand
// seeded from the injector seed, and flapping is driven by a per-device
// operation counter — the same seed and operation order always produce
// the same fault sequence, which is what makes the chaos integration
// test assertable.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/query"
)

// ErrInjected marks a failure manufactured by the injector; match with
// errors.Is.
var ErrInjected = errors.New("resilience: injected fault")

// Schedule is one device's fault plan. Decision order per operation:
// Partition, then FlapEvery, then ErrorRate — the first that fires
// fails the operation immediately (no latency is charged); otherwise
// Latency+Jitter delay the operation, and Hang blocks it until the
// context dies.
type Schedule struct {
	// ErrorRate fails each operation with this probability (0..1).
	ErrorRate float64 `json:"error_rate,omitempty"`
	// Latency delays each operation by this much.
	Latency time.Duration `json:"latency,omitempty"`
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter time.Duration `json:"jitter,omitempty"`
	// Hang blocks each operation until its context is cancelled.
	Hang bool `json:"hang,omitempty"`
	// Partition fails every operation (the device is unreachable).
	Partition bool `json:"partition,omitempty"`
	// FlapEvery alternates the device between alive and dead phases of
	// this many operations: with FlapEvery=N, operations 1..N succeed,
	// N+1..2N fail, and so on. 0 disables flapping.
	FlapEvery int `json:"flap_every,omitempty"`
}

// active reports whether the schedule injects anything.
func (s Schedule) active() bool {
	return s.ErrorRate > 0 || s.Latency > 0 || s.Jitter > 0 || s.Hang || s.Partition || s.FlapEvery > 0
}

// devState is one device's injection state.
type devState struct {
	sched    Schedule
	rng      *rand.Rand
	ops      uint64
	injected uint64
	delayed  uint64
}

// Injector applies per-device fault schedules deterministically. Safe
// for concurrent use; sleeps and hangs happen outside the lock.
type Injector struct {
	name string
	seed int64

	mu   sync.Mutex
	devs map[int]*devState
}

// NewInjector builds an injector named for its backend seam (the name
// keys the /debug/resilience report) with one schedule per device, and
// registers it for reporting. Each device draws from its own rand
// seeded with seed+device, so devices fault independently but
// reproducibly.
func NewInjector(name string, seed int64, schedules map[int]Schedule) *Injector {
	in := &Injector{name: name, seed: seed, devs: make(map[int]*devState)}
	for dev, s := range schedules {
		in.devs[dev] = &devState{sched: s, rng: rand.New(rand.NewSource(seed + int64(dev)))}
	}
	register(in)
	return in
}

// Name returns the injector's report name.
func (in *Injector) Name() string { return in.name }

// Set replaces dev's schedule at runtime (chaos tests flip devices
// between healthy and failing mid-workload). Operation counters keep
// counting across schedule changes.
func (in *Injector) Set(dev int, s Schedule) {
	in.mu.Lock()
	st := in.devs[dev]
	if st == nil {
		st = &devState{rng: rand.New(rand.NewSource(in.seed + int64(dev)))}
		in.devs[dev] = st
	}
	st.sched = s
	in.mu.Unlock()
}

// Clear removes dev's schedule (the device heals).
func (in *Injector) Clear(dev int) { in.Set(dev, Schedule{}) }

// Before applies dev's schedule to one operation: it returns an
// injected error, sleeps the scheduled latency (honoring ctx), or
// blocks for a Hang schedule until ctx dies. A nil error means the
// operation proceeds.
func (in *Injector) Before(ctx context.Context, dev int) error {
	in.mu.Lock()
	st := in.devs[dev]
	if st == nil || !st.sched.active() {
		in.mu.Unlock()
		return nil
	}
	st.ops++
	op := st.ops
	s := st.sched
	fail := s.Partition
	if !fail && s.FlapEvery > 0 {
		fail = ((op-1)/uint64(s.FlapEvery))%2 == 1
	}
	if !fail && s.ErrorRate > 0 {
		fail = st.rng.Float64() < s.ErrorRate
	}
	var delay time.Duration
	if !fail {
		delay = s.Latency
		if s.Jitter > 0 {
			delay += time.Duration(st.rng.Int63n(int64(s.Jitter)))
		}
	}
	if fail {
		st.injected++
	} else if delay > 0 || s.Hang {
		st.delayed++
	}
	in.mu.Unlock()

	if fail {
		return fmt.Errorf("device %d op %d: %w", dev, op, ErrInjected)
	}
	if s.Hang {
		<-ctx.Done()
		return ctx.Err()
	}
	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	return nil
}

// faultDevice injects faults in front of one engine Device: Before
// runs first and its verdict (error, delay, or hang) gates the inner
// scan.
type faultDevice struct {
	in  *Injector
	dev int
	d   engine.Device
}

func (f faultDevice) Scan(ctx context.Context, q query.Query, pm mkhash.PartialMatch) (engine.Answer, error) {
	if err := f.in.Before(ctx, f.dev); err != nil {
		return engine.Answer{}, err
	}
	return f.d.Scan(ctx, q, pm)
}

// Owner forwards the inner device's declaration (engine.Owner), -1 when
// it makes none: fronting a device does not change whose buckets it
// serves.
func (f faultDevice) Owner() int {
	if o, ok := f.d.(engine.Owner); ok {
		return o.Owner()
	}
	return -1
}

// Wrap returns devs with each device fronted by the injector — the
// engine-seam plug point for the storage backends.
func (in *Injector) Wrap(devs []engine.Device) []engine.Device {
	out := make([]engine.Device, len(devs))
	for i, d := range devs {
		out[i] = faultDevice{in: in, dev: i, d: d}
	}
	return out
}

// DeviceReport is one device's injection state in a Report.
type DeviceReport struct {
	Device   int      `json:"device"`
	Schedule Schedule `json:"schedule"`
	Ops      uint64   `json:"ops"`
	Injected uint64   `json:"injected_failures"`
	Delayed  uint64   `json:"delayed_ops"`
}

// Report is one injector's snapshot for /debug/resilience.
type Report struct {
	Name    string         `json:"name"`
	Seed    int64          `json:"seed"`
	Devices []DeviceReport `json:"devices"`
}

// Report snapshots the injector's per-device schedules and counters.
func (in *Injector) Report() Report {
	in.mu.Lock()
	defer in.mu.Unlock()
	rep := Report{Name: in.name, Seed: in.seed}
	devs := make([]int, 0, len(in.devs))
	for dev := range in.devs {
		devs = append(devs, dev)
	}
	sort.Ints(devs)
	for _, dev := range devs {
		st := in.devs[dev]
		rep.Devices = append(rep.Devices, DeviceReport{
			Device:   dev,
			Schedule: st.sched,
			Ops:      st.ops,
			Injected: st.injected,
			Delayed:  st.delayed,
		})
	}
	return rep
}

// Process-wide injector registry for /debug/resilience; latest
// injector under one name wins.
var (
	regMu     sync.Mutex
	injectors = make(map[string]*Injector)
)

func register(in *Injector) {
	regMu.Lock()
	injectors[in.name] = in
	regMu.Unlock()
}

// ReportAll snapshots every registered injector, sorted by name.
func ReportAll() []Report {
	regMu.Lock()
	all := make([]*Injector, 0, len(injectors))
	for _, in := range injectors {
		all = append(all, in)
	}
	regMu.Unlock()
	out := make([]Report, 0, len(all))
	for _, in := range all {
		out = append(out, in.Report())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
