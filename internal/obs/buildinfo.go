package obs

import (
	"runtime"
	"runtime/debug"
	"time"
)

// Build identity metrics: fxdist_build_info carries the module version
// and Go toolchain as labels (constant 1, the Prometheus idiom), and
// fxdist_uptime_seconds counts up from process start — together they
// make federated node rows identifiable and let fxtop spot restarts.

var processStart = time.Now()

// BuildVersion returns the main module's version as recorded by the Go
// toolchain ("(devel)" for source builds).
func BuildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "(devel)"
}

// Uptime returns the time since process start.
func Uptime() time.Duration { return time.Since(processStart) }

// RegisterBuildInfo installs fxdist_build_info and
// fxdist_uptime_seconds into r: every node's registry (a cluster's, a
// device server's) carries them.
func RegisterBuildInfo(r *Registry) {
	r.Gauge("fxdist_build_info",
		"Build identity; constant 1 with version and goversion labels.",
		L("version", BuildVersion()), L("goversion", runtime.Version()),
	).Set(1)
	r.GaugeFunc("fxdist_uptime_seconds",
		"Seconds since process start.",
		func() float64 { return Uptime().Seconds() },
	)
}
