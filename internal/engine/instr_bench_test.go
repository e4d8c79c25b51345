package engine_test

import (
	"context"
	"testing"

	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/telemetry"
)

// BenchmarkRetrieveInstrumentation isolates the reporting overhead: the
// identical executor, tracer and workload, with the full production
// bundle ("on": cluster metrics, auditor, cost profiler, flight
// recorder, wide-event log, and the trace retention + exemplars the
// log's keep decision drives) and with no bundle at all ("off": the
// only way to turn reporting off). The devices answer instantly, so the
// measured delta is the absolute per-query reporting cost — an upper
// bound on its relative overhead for any real retrieval.
func BenchmarkRetrieveInstrumentation(b *testing.B) {
	for _, mode := range []struct {
		name  string
		instr bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			f := mkhash.MustNew(mkhash.Schema{Fields: []string{"a", "b"}, Depths: []int{2, 2}})
			devs := make([]engine.Device, 4)
			for d := range devs {
				// One of the shape's 4 qualified buckets per device: inside the
				// strict bound, so no always-keep rule fires and the sinks see
				// the ordinary head-then-sampled traffic.
				devs[d] = fixedDevice{ans: engine.Answer{Buckets: 1, Records: 4, Hits: []mkhash.Record{rec("x", "y")}}}
			}
			cfg := planned(b, f, engine.Config{Devices: devs, Model: engine.MainMemory,
				Tracer: obs.DefaultTracer(), Span: "bench.retrieve"})
			if mode.instr {
				cfg.Instr = telemetry.For("bench").WithMetrics(telemetry.NewClusterMetrics("bench", len(devs)))
			}
			e, err := engine.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			pm, err := f.Spec(map[string]string{"a": "x"})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Retrieve(ctx, pm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
