package storage

import (
	"fxdist/internal/audit"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/plancache"
	"fxdist/internal/resilience"
	"fxdist/internal/retry"
	"fxdist/internal/telemetry"
)

// Option configures a cluster constructor (NewCluster, NewReplicated,
// CreateDurable, OpenDurable) beyond its required arguments.
type Option func(*settings)

type settings struct {
	retry    *retry.Config
	injector *resilience.Injector
	fileOpts []mkhash.Option
}

func newSettings(opts []Option) *settings {
	s := &settings{}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// WithRetry runs the cluster's retrievals under the adaptive retry
// layer: per-device circuit breakers, backoff budgets, same-device
// hedging, and (when cfg.Partial) graceful degraded results.
func WithRetry(cfg retry.Config) Option {
	return func(s *settings) { s.retry = &cfg }
}

// WithInjector fronts every device with a fault injector's schedule
// (chaos testing the local backends at the engine Device seam).
func WithInjector(in *resilience.Injector) Option {
	return func(s *settings) { s.injector = in }
}

// WithFileOptions passes schema options (e.g. mkhash.WithHash) through
// to OpenDurable's metadata load; other constructors ignore them.
func WithFileOptions(opts ...mkhash.Option) Option {
	return func(s *settings) { s.fileOpts = append(s.fileOpts, opts...) }
}

// engineConfig stamps onto an engine config everything a storage backend
// builds for itself from its kind label — its own reporting bundle (with
// the kind's cluster metrics), tracer, plan cache and retry controller. Hedge backups re-dispatch the same device — a second
// independent scan races the first; local backends hold no impersonable
// backup copy (the replicated cluster's successor routes buckets by the
// placement's Server decision, so asking it directly would answer the
// wrong subset).
func (s *settings) engineConfig(kind string, cfg engine.Config) engine.Config {
	cfg.Instr = telemetry.New(kind, audit.SLO{})
	reg := cfg.Instr.Registry
	cfg.Instr.Metrics = telemetry.NewClusterMetrics(reg, kind, len(cfg.Devices))
	cfg.Tracer = obs.DefaultTracer()
	cfg.Span = "storage.retrieve"
	cfg.Plans = plancache.New(reg, kind)
	if s.retry != nil {
		devices := cfg.Devices
		cfg.Retry = retry.NewController(reg, kind, *s.retry)
		cfg.Backup = func(dev int) engine.Device { return devices[dev] }
	}
	return cfg
}
